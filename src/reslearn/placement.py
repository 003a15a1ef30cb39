"""Every fork of the package goes through one fan-out, `spread`: the training
tasks, `evaluate`'s inference runs and the split pcap parse. Its rules: child
k runs on the k-th usable CPU after the CLI's own, since a child that starts
computing at once stays on its parent's CPU where a cpuset turns load
balancing off, and pinning costs nothing where the kernel balances; the CLI
computes nothing while its children run; a fork that fails leaves its tasks
to the children already running; a task's exception is raised in the CLI as
itself, and a child that dies is WorkerDied; every child is killed and reaped
before `spread` returns. The process that loads this module, and each child,
computes with one OpenBLAS thread unless OPENBLAS_NUM_THREADS asks for more.
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
INDEX_BYTES = 4                        # a task's index, as a child reads it from the queue
# OpenBLAS's thread-count setter, as scipy-openblas, an ILP64 and a plain build name it
BLAS_THREAD_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                       "openblas_set_num_threads")


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


def spread(fn: Callable[[int], object], count: int) -> list:
    """[fn(0), …, fn(count - 1)], computed in `workers(count)` processes.

    On one, or when the queue or the first child cannot be made, this process
    computes them in order. Otherwise forked children take indices from
    `_queue` and send back what `fn` returned, and this process computes
    nothing: its resident set holds every page its imports touched, while a
    child's counts only the pages the child touches."""
    processes = workers(count)
    queue = _queue(count) if processes > 1 else None
    children: dict[int, int] = {}      # the pid of each running child, by its pipe
    try:
        for cpu in _child_cpus(processes) if queue else ():
            try:
                fd, pid = _fork(fn, queue.fileno(), cpu)
            except OSError:            # out of processes or memory: the queue is theirs
                break
            children[fd] = pid
        if not children:
            return [fn(i) for i in range(count)]
        answers: list = [None] * count
        for done in _answers(children):
            for i, answer in done:
                answers[i] = answer
        return answers
    finally:
        for fd, pid in children.items():
            os.kill(pid, signal.SIGKILL)
            os.close(fd)
            os.waitpid(pid, 0)
        if queue:
            queue.close()


def _queue(count: int):
    """A file holding the indices 0 … count-1, INDEX_BYTES each, read from its
    start, or None when none can be made. Children forked from this process
    share its offset, which the kernel moves under a lock on a regular file,
    so each read takes an index that no other child gets (a memfd's offset is
    not locked: two children read the same index). It is written in full
    before the first fork, so any number of indices fits."""
    import tempfile                    # numpy has loaded it

    try:
        queue = tempfile.TemporaryFile()
    except OSError:                    # no file for it: the caller computes in-process
        return None
    try:
        queue.write(b"".join(i.to_bytes(INDEX_BYTES, "little") for i in range(count)))
        queue.seek(0)
    except OSError:                    # no room for it, likewise
        queue.close()
        return None
    return queue


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on, or None without `sched_getcpu`."""
    import ctypes

    getcpu = getattr(ctypes.CDLL(None), "sched_getcpu", None)
    cpu = getcpu() if getcpu is not None else -1
    return cpu if cpu >= 0 else None


def _child_cpus(count: int) -> list[int | None]:
    """Where each of `count` children forked by the calling thread runs: child
    k on the k-th usable CPU after the caller's own, wrapping round; None,
    for the kernel to choose, on one usable CPU, without `sched_getcpu`, or
    when the caller runs outside its own mask."""
    cpus, here = usable_cpus(), _current_cpu()
    if len(cpus) < 2 or here not in cpus:
        return [None] * count
    return [cpus[(cpus.index(here) + 1 + k) % len(cpus)] for k in range(count)]


def _fork(fn: Callable[[int], object], queue: int, cpu: int | None) -> tuple[int, int]:
    """Fork a child that settles on `cpu` (`_settle_child`) and computes
    `fn(i)` for each index i it reads from `queue`. It pickles [(i, fn(i)),
    …], or the exception `fn` raised, into a pipe and leaves with `os._exit`.
    Returns the pipe's read end and the child's pid; raises OSError when no
    pipe or process can be made."""
    parent = os.getpid()
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)            # so the pipe closes when the child ends
        return read_end, pid
    code = 1
    try:
        _settle_child(parent, cpu)
        try:
            done = []
            while index := os.read(queue, INDEX_BYTES):
                i = int.from_bytes(index, "little")
                done.append((i, fn(i)))
            answer = (False, done)
        except Exception as exc:       # sent back, for the caller to raise
            answer = (True, exc)
        with open(write_end, "wb") as pipe:
            pickle.dump(answer, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _settle_child(parent: int, cpu: int | None) -> None:
    """In a process forked from `parent`: run on `cpu`, if given, set OpenBLAS
    to one thread again, for a caller that raised it after this module
    loaded, and have the kernel kill this process when the thread that forked
    it dies, so a killed run leaves no child behind."""
    if cpu is not None:
        try:
            os.sched_setaffinity(0, [cpu])
        except OSError:                # a mask the kernel refuses: run where it is
            pass
    if _BLAS is not None:
        _BLAS(1)
    import ctypes

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:              # Linux only
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:         # died before the request took hold
        os._exit(1)


def _blas_thread_setter() -> Callable[[int], None] | None:
    """numpy's OpenBLAS thread-count setter, with which this process and the
    children of `spread` set one thread; None where OPENBLAS_NUM_THREADS asks
    for another count, or where numpy links no OpenBLAS. The CLI sets the
    variable to 1 before numpy loads, but where numpy loaded first, OpenBLAS
    runs one thread per CPU. `dlsym` on the handle of numpy's linear-algebra
    module searches the libraries it links too, so the dynamic linker finds
    the OpenBLAS, a wheel's or a system build's, whatever its pathname."""
    if os.environ.get("OPENBLAS_NUM_THREADS", "1") != "1":
        return None
    import ctypes

    try:
        from numpy.linalg import _umath_linalg  # loaded with numpy

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):     # no module to open: the threads stay as they are
        return None
    for name in BLAS_THREAD_SETTERS:
        if hasattr(lib, name):
            setter = getattr(lib, name)
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            return setter
    return None


# looked up once, when this module loads: a caller that loaded numpy first
# then computes with the one thread of `spread`'s children, to the same bits
_BLAS = _blas_thread_setter()
if _BLAS is not None:
    _BLAS(1)


def _answers(children: dict[int, int]) -> Iterator[list]:
    """What each of `children` (pids by pipe) sent, in the order they end:
    waits on all their pipes at once, and reaps each child and takes it out of
    `children` as its pipe closes. A child that raised raises its exception
    here, and one that died WorkerDied, as soon as its pipe closes."""
    sent = {fd: bytearray() for fd in children}
    poll = select.poll()
    for fd in sent:
        poll.register(fd, select.POLLIN)
    while sent:
        for fd, _ in poll.poll():
            if chunk := os.read(fd, PIPE_READ):
                sent[fd] += chunk
                continue
            poll.unregister(fd)
            os.close(fd)
            status = os.waitpid(children.pop(fd), 0)[1]
            if status != 0 or not sent[fd]:
                raise WorkerDied("a worker process died before it answered (exit code "
                                 f"{os.waitstatus_to_exitcode(status)})")
            raised, value = pickle.loads(sent.pop(fd))
            if raised:
                raise value
            yield value
