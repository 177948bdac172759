"""Order-preserving map over one forked process per CPU.

``fork_map`` runs the independent searches of a table: the forward and
dropped checks of ``schemas.table_sweep``, the rows of
``casestudy.run_grid`` and the premises of ``lattice.lattice_report``.  It
forks with ``os.fork`` and pickles over pipes; ``multiprocessing`` and
``concurrent.futures`` would cost every CLI call about 23 ms and 2.2 MB of
peak resident set to import.  The callers import this module when they
run, so a call that maps nothing does not compile it; ``signal`` is
imported only to kill a child still running on a path out by an error.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

_MAX_ITEMS = 1024  # fork_map writes the item indices in one 4 KiB write, which any pipe takes


def fork_map(fn: Callable, items: Sequence) -> list:
    """[fn(x) for x in items], computed by one process per CPU this process
    may run on (``os.sched_getaffinity``), and no more processes than items.

    With one CPU or fewer than two items it is that serial loop.  Otherwise
    the parent forks the other processes (``os.fork``) and works beside
    them.  Each process takes the next unstarted item from one pipe of item
    indices, and a child sends its (index, result or exception) pairs back
    pickled over its own pipe when the indices run out.  A process whose
    item raises takes no further item and empties the index pipe, so no
    later item starts; the exception of the lowest failed index is raised,
    as the serial loop would raise it.  Every child is reaped on every path
    out, killed if still running, and leaves with ``os._exit``.  A child
    that dies raises ChildProcessError.  More than _MAX_ITEMS items is a
    ValueError.
    """
    items = list(items)
    if len(items) > _MAX_ITEMS:
        raise ValueError(f"fork_map takes at most {_MAX_ITEMS} items, got {len(items)}")
    processes = min(len(os.sched_getaffinity(0)), len(items))
    if processes < 2:
        return [fn(x) for x in items]
    import pickle

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
                        pipe.write(pickle.dumps(_take(fn, items, tasks)))
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
            done += pickle.loads(sent)
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
    to and including the first (index, False, exception)."""
    done = []
    while taken := os.read(tasks, 4):
        i = int.from_bytes(taken, "big")
        try:
            done.append((i, True, fn(items[i])))
        except Exception as exc:
            done.append((i, False, exc))
            while os.read(tasks, 4096):
                pass
            break
    return done
