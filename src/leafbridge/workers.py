"""Run a function over contiguous shares of a sequence in forked processes
(`fork_map`): `forest.train_forest` grows its trees and
`experiment.run_experiment` runs its cells this way."""

from __future__ import annotations

import os
import pickle
import signal
import sys
import threading

#: Work, in records times trees of the forests trained, from which
#: `fork_map` forks workers; below it everything runs in the calling process.
#: Forked over serial time, median (quartiles) of 25 alternating rounds of
#: 10-tree forests on 10 columns in a 100 MiB process, 2 vCPUs of a 2.1 GHz
#: Xeon: 1.19 (0.96-2.06) at 5000, 0.81 (0.69-1.16) at 10 000, 0.83
#: (0.67-1.02) at 20 000 and 0.62 (0.57-0.72) at 50 000; an empty fork and
#: pipe round trip took 5.3 ms. At the threshold, forking won in three
#: rounds of four. Experiment cells gain sooner (two cells took 0.62 of the
#: serial time at 20 000), so the one threshold serves both.
FORK_MIN_WORK = 20_000

# Whether this process is a worker: a forked child, or the caller while it
# runs its own share. A worker never forks workers of its own. It is state of
# the process, which a fork copies, so it lives in the module.
_worker = False


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _threads_running() -> bool:
    """Whether this process runs a thread besides the calling one that a
    fork would copy mid-step: any other Python thread, and from Python
    3.12, where os.fork warns about them, any other native thread (a BLAS
    pool, say). A process whose threads cannot be counted counts as
    threaded."""
    if threading.active_count() > 1:
        return True
    if sys.version_info < (3, 12):
        return False
    try:
        return len(os.listdir("/proc/self/task")) > 1
    except OSError:
        return True


def fork_map(fn, items, work: int, what: str) -> list:
    """fn(share) for contiguous shares of items, joined in order into one list.

    fn takes a slice of items and returns a list. This process runs the
    first share and a child forked for each other share runs it and sends
    its list back pickled through a pipe. There is one share per usable CPU,
    at most one per item, and only one (this process alone) when work
    (records times trees) is below FORK_MIN_WORK, without os.fork, in a
    worker or while another thread runs (from Python 3.12, any other native
    thread too, such as a BLAS pool). `what` names the results in the error
    of a child that ends without sending them. A child's exception is raised
    here. A child that is still running when this returns or raises is
    killed, and every child is reaped. A child's memory is not part of this
    process's resident size.
    """
    global _worker
    workers = min(len(items), _usable_cpus())
    if (workers < 2 or work < FORK_MIN_WORK or _worker or not hasattr(os, "fork")
            or _threads_running()):
        return fn(items)
    shares = [items[k * len(items) // workers:(k + 1) * len(items) // workers]
              for k in range(workers)]
    children = []  # (pid, read end of its pipe) of each child not yet reaped
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child_main(fn, share, r, w)
            os.close(w)
            children.append((pid, open(r, "rb")))
        _worker = True
        try:
            results = fn(shares[0])
        finally:
            _worker = False
        while children:
            pid, pipe = children[0]
            with pipe:
                message = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status != 0:
                raise ChildProcessError(f"worker {pid} ended with exit code "
                                        f"{os.waitstatus_to_exitcode(status)} before sending "
                                        f"its {what}")
            ok, value = pickle.loads(message)
            if not ok:
                raise value
            results.extend(value)
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child_main(fn, share, r, w):
    """A forked worker: send (True, fn(share)) or (False, the exception)
    through fd w, then end the process.

    It ends with os._exit whatever happens, so the child never returns into
    its caller's code and never runs atexit handlers or flushes the stdio
    buffers it shares with its parent, which would write their pending
    text a second time.
    """
    global _worker
    _worker = True
    code = 1
    try:
        os.close(r)
        try:
            message = pickle.dumps((True, fn(share)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # sent to the parent, which raises it
            message = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        with open(w, "wb") as pipe:
            pipe.write(message)
        code = 0
    finally:
        os._exit(code)
