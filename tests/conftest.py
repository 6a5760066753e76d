import os

import pytest

from nameclust.records import AuthorMention, RawRecord


def rec(record_id, *names, kind="article"):
    mentions = tuple(
        AuthorMention(surface_name=" ".join(n.split()[:-1]), gold_id=n.split()[-1])
        if n.split()[-1].isdigit() and len(n.split()[-1]) == 4
        else AuthorMention(surface_name=n, gold_id=None)
        for n in names
    )
    return RawRecord(record_id=record_id, kind=kind, title=f"T {record_id}",
                     venue=None, year=2015, mentions=mentions)


@pytest.fixture
def fig1_records():
    """Small network mirroring the worked distance examples:

    p1 and p2 share the co-author 'Shared X' (distance 1 for the block
    'Daniel Schall'); p3 and p4 connect only through a co-author of a
    co-author via p5 (distance 3 for the block 'Eric Dubois').
    """
    return [
        rec("k/p1", "Daniel Schall 0001", "Shared X"),
        rec("k/p2", "Daniel Schall 0001", "Shared X"),
        rec("k/p3", "Eric Dubois 0001", "Alice A"),
        rec("k/p4", "Eric Dubois 0001", "Bob B"),
        rec("k/p5", "Alice A", "Bob B"),
    ]


def counting_fork(pids):
    """``os.fork``, appending to ``pids`` the pid of each child it starts."""
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    return counted


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children ``os.fork`` starts during the test."""
    pids = []
    monkeypatch.setattr(os, "fork", counting_fork(pids))
    return pids


def no_child_left():
    """True if this process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True
