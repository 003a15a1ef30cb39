"""Processes forked from the CLI: the CPUs they may use, and ending them with it.

The pcap parse puts its child on the CPU after its own (`child_cpu`): a child
that starts computing at once stays on its parent's CPU where a cpuset turns
load balancing off, and pinning it costs nothing where the kernel balances.
"""

from __future__ import annotations

import os
import signal

PR_SET_PDEATHSIG = 1                   # prctl option, from <sys/prctl.h>


def usable_cpus() -> list[int]:
    """The CPUs the calling thread may run on, in increasing order."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:             # no affinity call on this platform
        return list(range(os.cpu_count() or 1))


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
