"""Order-preserving map over one forked process per CPU.

``fork_map`` runs the independent searches of a table: the forward and
dropped checks of ``schemas.table_sweep``, the rows of
``casestudy.run_grid`` and the premises of ``lattice.lattice_report``.  It
forks with ``os.fork`` and sends the results over pipes as ``marshal``
data, which is built in and costs no import; ``multiprocessing`` and
``concurrent.futures`` would cost every CLI call about 23 ms and 2.2 MB of
peak resident set to import.  So its callers return plain data.  The
callers import this module when they run, so a call that maps nothing does
not compile it.  Two imports wait for a path out by an error: ``pickle``,
to send back the exception an item raised in a child, and ``signal``, to
kill a child still running.
"""

from __future__ import annotations

import marshal
import os
from typing import Callable, Sequence

_MAX_ITEMS = 1024  # fork_map writes the item indices in one 4 KiB write, which any pipe takes


def fork_map(fn: Callable, items: Sequence) -> list:
    """[fn(x) for x in items], computed by one process per CPU this process
    may run on (``os.sched_getaffinity``), and no more processes than items.

    With one CPU or fewer than two items it is that serial loop.  Otherwise
    the parent forks the other processes (``os.fork``) and works beside
    them.  Each process takes the next unstarted item from one pipe of item
    indices, and a child sends its (index, result or exception) entries
    back over its own pipe when the indices run out.  Forked, results must
    be plain data, which ``marshal`` carries: None, bool, int, float, str,
    bytes and tuples, lists, dicts, sets and frozensets of them.  A result
    that is not counts as a TypeError raised by its item, naming the item's
    index and the result's type, in whichever process ran it.  A child's
    entries cross as ``marshal`` data, or pickled when its last item
    raised.  A process whose item raises takes no further item and empties
    the index pipe, so no later item starts; the exception of the lowest
    failed index is raised, as the serial loop would raise it.  Every child
    is reaped on every path out, killed if still running, and leaves with
    ``os._exit``.  A child that dies raises ChildProcessError.  More than
    _MAX_ITEMS items is a ValueError.
    """
    items = list(items)
    if len(items) > _MAX_ITEMS:
        raise ValueError(f"fork_map takes at most {_MAX_ITEMS} items, got {len(items)}")
    processes = min(len(os.sched_getaffinity(0)), len(items))
    if processes < 2:
        return [fn(x) for x in items]

    tasks, todo = os.pipe()
    os.write(todo, b"".join(i.to_bytes(4, "big") for i in range(len(items))))
    os.close(todo)  # every index is in the pipe: a read gets 4 bytes or EOF
    children = {}  # pid -> read end of its result pipe, until it is reaped
    try:
        for _ in range(processes - 1):
            out, back = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(out)
                    for pipe in children.values():
                        pipe.close()
                    with os.fdopen(back, "wb") as pipe:
                        pipe.write(_dumps(_take(fn, items, tasks)))
                    status = 0
                finally:
                    os._exit(status)
            os.close(back)
            children[pid] = os.fdopen(out, "rb")
        done = _take(fn, items, tasks)
        for pid in list(children):
            sent = children[pid].read()
            children.pop(pid).close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code != 0:
                raise ChildProcessError(f"fork_map worker {pid} ended with exit code {code}")
            done += _loads(sent)
    finally:
        os.close(tasks)
        for pid, pipe in children.items():  # empty unless a child may still run
            import signal

            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    done.sort(key=lambda entry: entry[0])
    for _, ok, value in done:
        if not ok:
            raise value
    return [value for _, _, value in done]


def _take(fn: Callable, items: Sequence, tasks: int) -> list:
    """(index, True, fn(item)) for each index read from the tasks pipe, up
    to and including the first (index, False, exception); a result that is
    not plain data is a TypeError (``_plain``)."""
    done = []
    while taken := os.read(tasks, 4):
        i = int.from_bytes(taken, "big")
        try:
            done.append((i, True, _plain(i, fn(items[i]))))
        except Exception as exc:
            done.append((i, False, exc))
            while os.read(tasks, 4096):
                pass
            break
    return done


def _plain(i: int, value):
    """value, if ``marshal`` can carry it; else TypeError naming item i."""
    try:
        marshal.dumps(value)
    except ValueError:
        raise TypeError(f"fork_map item {i} returned {type(value).__name__}, which is not plain data") from None
    return value


def _dumps(done: list) -> bytes:
    """A child's entries as sent: b"m" and ``marshal`` data, or b"p" and
    ``pickle`` data when the last entry is an exception."""
    if done and not done[-1][1]:
        import pickle

        return b"p" + pickle.dumps(done)
    return b"m" + marshal.dumps(done)


def _loads(sent: bytes) -> list:
    """The entries a child sent with ``_dumps``."""
    if sent[:1] == b"p":
        import pickle

        return pickle.loads(sent[1:])
    return marshal.loads(sent[1:])
