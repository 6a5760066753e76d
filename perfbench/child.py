"""One CLI invocation inside a child process the benchmark spawns.

    child.py probe OUT -- CLI-ARGS   timed run: records only the
                                     monotonic time of the first call
                                     into the per-block stage
    child.py trace OUT -- CLI-ARGS   traced run: spans around every
                                     function in tracer.WRAPS

Both call ``nameclust.cli.main`` in this process and exit with its code.
"""

from __future__ import annotations

import json
import sys
import time


def _probe(cli, marks):
    """Wrap the per-block entry points: the first ``cluster_block`` call,
    or the first record ``parse_dblp`` yields, ends set-up."""

    def first_call(fn):
        def wrapper(*args, **kwargs):
            marks.setdefault("first_unit", time.monotonic())
            return fn(*args, **kwargs)
        return wrapper

    def first_item(fn):
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                marks.setdefault("first_unit", time.monotonic())
                yield item
        return wrapper

    if hasattr(cli, "cluster_block"):
        cli.cluster_block = first_call(cli.cluster_block)
    if hasattr(cli, "parse_dblp"):
        cli.parse_dblp = first_item(cli.parse_dblp)


def _kernel():
    kernels = sys.modules.get("nameclust.kernels")
    return getattr(kernels, "DEFAULT_KERNEL", None)


def main() -> int:
    mode, out, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("probe", "trace"):
        print(__doc__, file=sys.stderr)
        return 1
    if mode == "probe":
        import nameclust.cli as cli

        marks: dict[str, float] = {}
        _probe(cli, marks)
        rc = cli.main(argv)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({**marks, "kernel": _kernel()}, fh)
        return rc

    import tracer

    rec = tracer.Recorder()
    with rec.span("cli.import"):
        import nameclust.cli as cli
    rec.install()
    with rec.span("cli.main"):
        rc = cli.main(argv)
    rec.dump(out, {"kernel": _kernel()})
    return rc


if __name__ == "__main__":
    sys.exit(main())
