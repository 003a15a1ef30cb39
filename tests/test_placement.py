import os
import signal
import time

import pytest

from cpus import on_cpus
from reslearn import placement
from reslearn.errors import WorkerDied


@pytest.mark.parametrize("cpus, here, expected", [
    ([0, 1], 0, [1, 0]),
    ([0, 1], 1, [0, 1]),
    ([2, 5, 7], 5, [7, 2, 5]),
    ([0], 0, [None]),
    ([0, 1], None, [None, None]),
    ([0, 1], 3, [None, None]),
], ids=["next", "wraps", "sparse_mask", "one_cpu", "no_getcpu", "outside_mask"])
def test_child_cpu(monkeypatch, cpus, here, expected):
    """Child k of `spread` runs on the k-th usable CPU after the caller's own;
    the kernel places it on one CPU, without `sched_getcpu`, or when the caller
    runs outside its mask."""
    monkeypatch.setattr(placement, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(placement, "_current_cpu", lambda: here)
    assert placement._child_cpus(len(cpus)) == expected


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


def in_child(parent: int, act):
    """A task that runs `act(i)` in a forked child and answers i squared;
    in `parent` it fails the test."""
    def task(i):
        assert os.getpid() != parent, "the caller took a task"
        act(i)
        return i * i
    return task


@needs_fork
def test_fork_call_answers_as_the_function_ended():
    """`spread` answers as its tasks ended in the children: a value comes back
    in index order, a raised exception comes back as itself, and a child that
    exits without answering is WorkerDied with its exit code."""
    parent = os.getpid()
    with on_cpus(2):
        assert placement.spread(in_child(parent, lambda i: None), 5) == [0, 1, 4, 9, 16]
        with pytest.raises(ValueError, match="ten"):
            placement.spread(in_child(parent, lambda i: i == 3 and int("ten")), 5)
        with pytest.raises(WorkerDied, match=r"died before it answered \(exit code 0\)"):
            placement.spread(in_child(parent, lambda i: os._exit(0)), 2)


def kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@needs_fork
def test_results_reports_a_dead_child_while_another_runs(tmp_path):
    """A child that dies ends `spread` at once, while its sibling still runs a
    task; the sibling is killed and reaped."""
    pids = tmp_path / "pids"
    pids.mkdir()

    def task(i):
        (pids / str(os.getpid())).touch()
        if i == 0:
            time.sleep(60)
        deadline = time.monotonic() + 10
        while len(list(pids.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)                       # until the sleeper has started
        kill_self()

    start = time.monotonic()
    with on_cpus(2), pytest.raises(WorkerDied, match=r"died before it answered \(exit code -9\)"):
        placement.spread(task, 2)
    assert time.monotonic() - start < 30
    assert len(list(pids.iterdir())) == 2
    for pid in (int(p.name) for p in pids.iterdir()):
        with pytest.raises(ChildProcessError):     # killed and reaped
            os.waitpid(pid, os.WNOHANG)


@needs_fork
def test_dead_child_ends_a_long_queue():
    """More indices than a pipe holds, over two children, one of which dies on
    its first task: WorkerDied within seconds."""
    parent = os.getpid()
    start = time.monotonic()
    with on_cpus(2), pytest.raises(WorkerDied):
        placement.spread(in_child(parent, lambda i: i == 0 and os._exit(1)), 20_000)
    assert time.monotonic() - start < 10


@needs_fork
@pytest.mark.parametrize("failing_fork", [1, 2], ids=["first", "second"])
def test_failed_fork_leaves_the_queue_to_the_rest(failing_fork, monkeypatch):
    """A fork that fails hands the tasks to the children already running, or
    to the caller when there are none."""
    real_fork, forks = os.fork, []

    def fork():
        forks.append(os.getpid())
        if len(forks) == failing_fork:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    parent = os.getpid()
    with on_cpus(2):
        answers = placement.spread(lambda i: (i, os.getpid() == parent), 6)
    assert [i for i, _ in answers] == list(range(6))
    assert {here for _, here in answers} == {failing_fork == 1}


def test_no_queue_computes_in_process(monkeypatch):
    def no_file():
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("tempfile.TemporaryFile", no_file)
    parent = os.getpid()
    with on_cpus(2):
        assert placement.spread(lambda i: os.getpid() == parent, 3) == [True] * 3


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs CPU affinity")
@pytest.mark.parametrize("stage", ["train", "forecast"])
def test_each_child_runs_on_one_cpu(stage, tmp_path, monkeypatch):
    """On two CPUs the two children of a training run and of a forecast each
    run on one of them (`test_child_cpu` holds which), and the caller's own
    mask is left alone."""
    import numpy as np

    from reslearn import harness
    from reslearn.config import ExperimentConfig
    from reslearn.models import PredictorConfig, build_predictor
    from reslearn.residual import ResLearnModel, SegmentReport, forecast
    from reslearn.seriesprep import Scaler, segment

    masks, parent, cpus = tmp_path / "masks", os.getpid(), placement.usable_cpus()
    masks.mkdir()

    def note_mask():
        if os.getpid() == parent:
            return
        mask = ",".join(map(str, sorted(os.sched_getaffinity(0))))
        (masks / f"{os.getpid()}-{mask}").touch()
        deadline = time.monotonic() + 10
        while len(list(masks.iterdir())) < 2 and time.monotonic() < deadline:
            time.sleep(0.01)                           # so that each child takes a task

    with on_cpus(2):
        if stage == "train":
            monkeypatch.setattr(harness, "train_segment",
                                lambda index, *args: note_mask() or SegmentReport(index))
            harness.train_models(ExperimentConfig(models="fcnn", segment_size=10),
                                 segment(list(range(20)), 10))
        else:
            model = build_predictor(PredictorConfig(kind="fcnn", lookback=4, hidden_width=8))
            forward = model._forward
            monkeypatch.setattr(model, "_forward",
                                lambda params, inputs: note_mask() or forward(params, inputs))
            forecast(ResLearnModel(model, model, 0.0, Scaler(0.0, 1.0)),
                     np.zeros((4 * 32, 4)))
    noted = sorted(m.name.split("-")[1] for m in masks.iterdir())
    assert noted == sorted(map(str, (cpus * 2)[:2]))
    assert sorted(os.sched_getaffinity(0)) == cpus
