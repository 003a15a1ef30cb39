import os
import signal
import time

import pytest

from reslearn import placement
from reslearn.errors import WorkerDied


@pytest.mark.parametrize("cpus, here, expected", [
    ([0, 1], 0, 1),
    ([0, 1], 1, 0),
    ([2, 5, 7], 5, 7),
    ([0], 0, None),
    ([0, 1], None, None),
    ([0, 1], 3, None),
], ids=["next", "wraps", "sparse_mask", "one_cpu", "no_getcpu", "outside_mask"])
def test_child_cpu(monkeypatch, cpus, here, expected):
    monkeypatch.setattr(placement, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(placement, "_current_cpu", lambda: here)
    assert placement.child_cpu() == expected


@pytest.mark.parametrize("cpus, jobs, fork, expected", [
    (4, 2, True, 2),
    (2, 5, True, 2),
    (4, 3, False, 1),
], ids=["one_per_job", "one_per_cpu", "no_fork"])
def test_workers(monkeypatch, cpus, jobs, fork, expected):
    monkeypatch.setattr(placement, "usable_cpus", lambda: list(range(cpus)))
    if fork and not hasattr(os, "fork"):
        pytest.skip("needs fork")
    if not fork:
        monkeypatch.delattr(os, "fork", raising=False)
    assert placement.workers(jobs) == expected


def test_current_cpu_is_usable():
    here = placement._current_cpu()
    if here is None:
        pytest.skip("no sched_getcpu on this platform")
    assert here in placement.usable_cpus()


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")


@needs_fork
def test_fork_call_answers_as_the_function_ended():
    returned = placement.fork_call(pow, 2, 10)
    raised = placement.fork_call(int, "ten")
    silent = placement.fork_call(os._exit, 0)          # exits without answering
    assert returned.result() == 1024
    with pytest.raises(ValueError, match="ten"):
        raised.result()
    with pytest.raises(WorkerDied, match=r"died before it answered \(exit code 0\)"):
        silent.result()
    for child in (returned, raised, silent):
        assert child.pid == 0                           # reaped
        child.kill()                                    # and nothing left to kill


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@needs_fork
def test_results_reports_a_dead_child_while_another_runs():
    running = placement.fork_call(time.sleep, 60)
    dead = placement.fork_call(kill_self)
    pid = running.pid
    try:
        with pytest.raises(WorkerDied, match=r"died before it answered \(exit code -9\)"):
            next(placement.results([running, dead]))
        assert running.pid == pid and os.waitpid(pid, os.WNOHANG) == (0, 0)
    finally:
        running.kill()
    with pytest.raises(ChildProcessError):             # killed and reaped
        os.waitpid(pid, os.WNOHANG)
