"""Run a generator in a forked child and read what it yields.

``parse_dblp`` and ``load_graph`` use this to put a second core to work:
the child iterates a generator of lists, and the caller receives the
lists, in order, through a pipe. Only lists, an end marker and an
exception this program's own child pickled are ever unpickled.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal


@contextlib.contextmanager
def forked(batches):
    """Fork a child that iterates the rest of ``batches``, an iterator of
    lists, and pickles each list into a pipe, then an end marker (None),
    or instead the exception that stopped it.

    The fork happens on entering the context; the context's value
    iterates the lists as they arrive, and after the last one raises a
    relayed exception, or ChildProcessError if the pipe ended without the
    end marker or the child did not exit with status 0. On leaving the
    context the child is killed if still running, and always reaped.
    """
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        raise
    if pid == 0:
        _serve(batches, wfd, rfd)
    os.close(wfd)
    reaped = []
    try:
        with open(rfd, "rb") as pipe:
            yield _received(pipe, pid, reaped)
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _received(pipe, pid, reaped):
    """Yield each list the child ``pid`` sends through ``pipe``, then
    reap the child into ``reaped`` and raise what its last message or its
    exit status calls for."""
    while True:
        try:
            message = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            message = False  # the pipe ended before or inside a message
        if type(message) is not list:
            break
        yield message
    _, status = os.waitpid(pid, 0)
    reaped.append(status)
    if isinstance(message, BaseException):
        raise message
    code = os.waitstatus_to_exitcode(status)
    if message is not None or code != 0:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise ChildProcessError(f"a forked child process {how} before it finished")


def _serve(batches, wfd, rfd):
    """The forked child: send each list of ``batches`` through ``wfd``,
    then the end marker or the exception that stopped it, as
    ``_received`` reads them. It leaves through ``os._exit``, so none of
    the caller's cleanups, exit handlers or output buffers run here."""
    status = 1
    try:
        os.close(rfd)
        with open(wfd, "wb") as pipe:
            try:
                for batch in batches:
                    pickle.dump(batch, pipe, pickle.HIGHEST_PROTOCOL)
                    pipe.flush()
                last = None
            except BaseException as exc:  # relayed; the parent raises it
                last = exc
            pickle.dump(last, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)
