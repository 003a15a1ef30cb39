import os
import signal
import subprocess
import sys
import time
from pathlib import Path

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


# runs in a fresh interpreter that loads numpy before reslearn, and without
# OPENBLAS_NUM_THREADS raises OpenBLAS to 2 threads, before it imports
# `placement` when argv[1] is "before" and after it when it is "after"; prints
# the threads just after that raise, then the threads of this process, then
# the pid and threads of the child that took each task. The test prepends the
# definition of SETTERS, `placement.BLAS_THREAD_SETTERS`.
BLAS_CHILDREN = """
import ctypes, os, sys
import numpy

def entry_points():
    lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)
    for setter in SETTERS:
        getter = setter.replace("set_", "get_")
        if hasattr(lib, setter) and hasattr(lib, getter):
            return getattr(lib, getter), getattr(lib, setter)
    sys.exit("no OpenBLAS")

def raise_threads():
    if "OPENBLAS_NUM_THREADS" not in os.environ:
        set_threads(2)
    return get()

get, set_threads = entry_points()
if sys.argv[1] == "before":
    raised = raise_threads()
from reslearn import placement
if sys.argv[1] == "after":
    raised = raise_threads()
cpus = placement.usable_cpus()
placement.usable_cpus = lambda: (cpus * 2)[:2]
print(raised, get(),
      *(f"{pid}:{n}" for pid, n in placement.spread(lambda i: (os.getpid(), get()), 4)))
"""


@needs_fork
@pytest.mark.parametrize("raised, variable, own, children", [
    ("after", None, "2", "1"), ("after", "2", "2", "2"), ("before", None, "1", "1"),
], ids=["unset", "users_setting", "raised_before_import"])
def test_children_run_one_blas_thread(raised, variable, own, children):
    """A child of `spread` runs one OpenBLAS thread even where numpy loaded
    before reslearn, unless OPENBLAS_NUM_THREADS asks for another count; and
    loading `placement` sets the loading process to one thread too, so a
    caller that raised the count before it computes as the children do."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if variable is not None:
        env["OPENBLAS_NUM_THREADS"] = variable
    script = f"SETTERS = {placement.BLAS_THREAD_SETTERS!r}\n" + BLAS_CHILDREN
    done = subprocess.run([sys.executable, "-c", script, raised], env=env,
                          capture_output=True, text=True, timeout=120)
    if "no OpenBLAS" in done.stderr:
        pytest.skip("numpy links no OpenBLAS here")
    assert done.returncode == 0, done.stderr
    raised_to, threads, *answers = done.stdout.split()
    if raised_to != "2":
        pytest.skip("OpenBLAS runs fewer than 2 threads here")
    assert threads == own
    assert len(answers) == 4
    assert {answer.split(":")[1] for answer in answers} == {children}


@needs_fork
def test_unloadable_blas_library_is_no_error(monkeypatch):
    """Where numpy's linear-algebra module links no OpenBLAS setter, cannot be
    loaded by `ctypes.CDLL`, or is missing, no thread count is set, and
    `spread` still answers from its children."""
    import ctypes

    import numpy.linalg

    real_cdll, module = ctypes.CDLL, numpy.linalg._umath_linalg.__file__

    def unloadable(path, *args, **kwargs):
        if path == module:
            raise OSError(f"{path}: cannot open shared object file")
        return real_cdll(path, *args, **kwargs)

    def no_setter(path, *args, **kwargs):
        return object() if path == module else real_cdll(path, *args, **kwargs)

    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setattr(ctypes, "CDLL", unloadable)
    assert placement._blas_thread_setter() is None
    with monkeypatch.context() as missing:
        missing.delattr(numpy.linalg, "_umath_linalg")
        missing.setitem(sys.modules, "numpy.linalg._umath_linalg", None)
        assert placement._blas_thread_setter() is None
    monkeypatch.setattr(ctypes, "CDLL", no_setter)
    assert placement._blas_thread_setter() is None
    monkeypatch.setattr(placement, "_BLAS", None)       # as if the module loaded so
    parent = os.getpid()
    with on_cpus(2):
        assert placement.spread(in_child(parent, lambda i: None), 3) == [0, 1, 4]
