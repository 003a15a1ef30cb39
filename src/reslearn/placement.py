"""Processes forked from the CLI: the CPUs they may use, and ending them with it.

The kernel moves a forked process off its parent's CPU only where it balances
load between the process's CPUs. A cgroup-v1 cpuset can turn that off
(`cpuset.sched_load_balance` 0 in it and in every ancestor); there two
processes forked to run at once share one CPU while another idles. So the
pcap parse puts its child on another CPU itself on such a host (`child_cpu`),
and leaves placement to the kernel everywhere else.
"""

from __future__ import annotations

import os
import signal

PR_SET_PDEATHSIG = 1                   # prctl option, from <sys/prctl.h>
OWN_CPUSET = "/proc/self/cpuset"       # this process's cpuset, as a path in the hierarchy
CPUSET_ROOT = "/sys/fs/cgroup/cpuset"  # where cgroup v1 mounts the cpuset hierarchy


def usable_cpus() -> list[int]:
    """The CPUs the calling thread may run on, in increasing order."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:             # no affinity call on this platform
        return list(range(os.cpu_count() or 1))


def balances_load() -> bool:
    """Whether the kernel may move a task between this process's CPUs: false
    only when its cgroup-v1 cpuset and every ancestor have
    `sched_load_balance` 0, true wherever that cannot be read (cgroup v2,
    another platform)."""
    try:
        with open(OWN_CPUSET) as f:
            path = f.read().strip()
        while True:
            flag = os.path.join(CPUSET_ROOT, path.lstrip("/"), "cpuset.sched_load_balance")
            with open(flag) as f:
                if f.read().strip() != "0":
                    return True
            if path in ("/", ""):
                return False
            path = os.path.dirname(path)
    except OSError:
        return True


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on, or None without `sched_getcpu`."""
    import ctypes

    getcpu = getattr(ctypes.CDLL(None), "sched_getcpu", None)
    cpu = getcpu() if getcpu is not None else -1
    return cpu if cpu >= 0 else None


def child_cpu() -> int | None:
    """Where a process forked to run at once with the calling thread should
    run: the usable CPU after the caller's own, on a host that does not
    balance load; None, for the kernel to choose, everywhere else."""
    if balances_load():
        return None
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
