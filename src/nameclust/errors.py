"""Exception hierarchy shared across the package."""


class NameclustError(Exception):
    """Base class for all package errors."""


class MalformedMentionError(NameclustError, ValueError):
    """An author mention string that cannot be parsed."""


class CorpusParseError(NameclustError):
    """Malformed corpus input: DBLP XML or a JSONL records file.

    Carries whatever location is known: the file ``path``, an
    approximate ``byte_offset`` (XML), and a 1-based ``line`` with an
    optional ``column``.
    """

    def __init__(self, message, byte_offset=None, line=None, column=None, path=None):
        super().__init__(message)
        self.byte_offset = byte_offset
        self.line = line
        self.column = column
        self.path = path

    def __str__(self):
        loc = []
        if self.path is not None:
            loc.append(str(self.path))
        if self.byte_offset is not None:
            loc.append(f"byte~{self.byte_offset}")
        if self.line is not None:
            loc.append(f"line {self.line}" if self.column is None
                       else f"line {self.line}, col {self.column}")
        base = super().__str__()
        return f"{base} ({'; '.join(loc)})" if loc else base


class DataIntegrityError(NameclustError):
    """Input invariant violated (e.g. one record under two gold keys, a
    gold record or block name absent from the records, or a report file
    of the wrong shape)."""


class UndefinedModularityError(NameclustError):
    """Modularity requested on a graph with no edges."""
