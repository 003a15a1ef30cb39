"""Processes forked from the CLI, and every fork of the package: how many a
command runs, the CPUs they may use, running one function in a forked child,
and ending them with it.

The pcap parse puts its child on the CPU after its own (`child_cpu`): a child
that starts computing at once stays on its parent's CPU where a cpuset turns
load balancing off, and pinning it costs nothing where the kernel balances.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
from typing import Callable, Iterator

from .errors import WorkerDied

PR_SET_PDEATHSIG = 1                   # prctl option, from <sys/prctl.h>
PIPE_READ = 1 << 16                    # bytes read from a child's pipe at a time


def usable_cpus() -> list[int]:
    """The CPUs the calling thread may run on, in increasing order."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:             # no affinity call on this platform
        return list(range(os.cpu_count() or 1))


def workers(jobs: int) -> int:
    """How many processes `jobs` independent jobs run in: one per usable CPU
    and at most one per job; one where the platform has no `fork`."""
    return min(len(usable_cpus()), jobs) if hasattr(os, "fork") else 1


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on, or None without `sched_getcpu`."""
    import ctypes

    getcpu = getattr(ctypes.CDLL(None), "sched_getcpu", None)
    cpu = getcpu() if getcpu is not None else -1
    return cpu if cpu >= 0 else None


def child_cpu() -> int | None:
    """Where a process forked to run at once with the calling thread should
    run: the usable CPU after the caller's own; None, for the kernel to
    choose, on one usable CPU, without `sched_getcpu`, or when the caller
    runs outside its own mask."""
    cpus, here = usable_cpus(), _current_cpu()
    if len(cpus) < 2 or here not in cpus:
        return None
    return cpus[(cpus.index(here) + 1) % len(cpus)]


def settle_child(parent: int, cpu: int | None = None) -> None:
    """In a process forked from `parent`: run on `cpu`, if given, and have
    the kernel kill this process when the thread that forked it dies, so a
    killed run leaves no child behind."""
    if cpu is not None:
        try:
            os.sched_setaffinity(0, [cpu])
        except OSError:                # a mask the kernel refuses: run where it is
            pass
    import ctypes

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:              # Linux only
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:         # died before the request took hold
        os._exit(1)


class Forked:
    """A child started by `fork_call` and the read end of the pipe it answers
    on. Wait on it with `result`, or on several with `results`; `kill` ends
    it, and does nothing more once it is reaped."""

    def __init__(self, pid: int, fd: int):
        self.pid, self.fd, self.sent = pid, fd, bytearray()

    def result(self):
        """What this child's function returned; see `results`."""
        return next(results([self]))

    def kill(self) -> None:
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            self._reap()

    def _reap(self) -> int:
        os.close(self.fd)
        status, self.pid = os.waitpid(self.pid, 0)[1], 0
        return status


def fork_call(fn: Callable, *args, cpu: int | None = None) -> Forked:
    """Run `fn(*args)` in a child forked from this process and settled by
    `settle_child(parent, cpu)`. The child pickles what `fn` returned, or the
    exception it raised, into a pipe and leaves with `os._exit`. Raises
    OSError when no pipe or process can be made."""
    parent = os.getpid()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:                    # out of processes or memory
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)            # so the pipe closes when the child ends
        return Forked(pid, read_end)
    code = 1
    try:
        settle_child(parent, cpu)
        try:
            answer = (False, fn(*args))
        except Exception as exc:       # sent back, for the caller to raise
            answer = (True, exc)
        with open(write_end, "wb") as pipe:
            pickle.dump(answer, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def results(children: list[Forked]) -> Iterator:
    """What each of `children` returned, in the order they end: waits on all
    their pipes at once and reaps each child as its pipe closes. A child that
    raised raises its exception here, and one that died WorkerDied, as soon as
    its pipe closes; the children still running are the caller's to kill."""
    waiting = {child.fd: child for child in children}
    poll = select.poll()
    for fd in waiting:
        poll.register(fd, select.POLLIN)
    while waiting:
        for fd, _ in poll.poll():
            chunk = os.read(fd, PIPE_READ)
            if chunk:
                waiting[fd].sent += chunk
                continue
            poll.unregister(fd)
            child = waiting.pop(fd)
            if (status := child._reap()) != 0 or not child.sent:
                raise WorkerDied("a worker process died before it answered (exit code "
                                 f"{os.waitstatus_to_exitcode(status)})")
            raised, value = pickle.loads(child.sent)
            if raised:
                raise value
            yield value
