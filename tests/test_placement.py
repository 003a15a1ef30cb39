import pytest

from reslearn import placement


@pytest.fixture
def cpuset(tmp_path, monkeypatch):
    """Builds a fake cgroup-v1 cpuset hierarchy from {path: sched_load_balance}
    and makes `own` this process's cpuset."""

    def build(own, flags):
        root = tmp_path / "cpuset"
        for path, flag in flags.items():
            directory = root / path.lstrip("/")
            directory.mkdir(parents=True, exist_ok=True)
            (directory / "cpuset.sched_load_balance").write_text(f"{flag}\n")
        (tmp_path / "own").write_text(f"{own}\n")
        monkeypatch.setattr(placement, "CPUSET_ROOT", str(root))
        monkeypatch.setattr(placement, "OWN_CPUSET", str(tmp_path / "own"))

    return build


@pytest.mark.parametrize("own, flags, balanced", [
    ("/jobs", {"/": 0, "/jobs": 0}, False),
    ("/", {"/": 0}, False),
    ("/jobs", {"/": 0, "/jobs": 1}, True),
    ("/jobs", {"/": 1, "/jobs": 0}, True),
    ("/a/b", {"/": 0, "/a": 1, "/a/b": 0}, True),
    ("/a/b", {"/": 0, "/a/b": 0}, True),      # /a unreadable: cannot tell
], ids=["off_everywhere", "root_off", "own_on", "root_on", "ancestor_on", "unreadable"])
def test_balances_load_reads_the_cpuset_and_its_ancestors(cpuset, own, flags, balanced):
    cpuset(own, flags)
    assert placement.balances_load() is balanced


def test_balances_load_without_a_cpuset(tmp_path, monkeypatch):
    monkeypatch.setattr(placement, "OWN_CPUSET", str(tmp_path / "absent"))
    assert placement.balances_load()


@pytest.mark.parametrize("balanced, cpus, here, expected", [
    (False, [0, 1], 0, 1),
    (False, [0, 1], 1, 0),
    (False, [2, 5, 7], 5, 7),
    (True, [0, 1], 0, None),
    (False, [0], 0, None),
    (False, [0, 1], None, None),
    (False, [0, 1], 3, None),
], ids=["next", "wraps", "sparse_mask", "kernel_balances", "one_cpu", "no_getcpu",
        "outside_mask"])
def test_child_cpu(monkeypatch, balanced, cpus, here, expected):
    monkeypatch.setattr(placement, "balances_load", lambda: balanced)
    monkeypatch.setattr(placement, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(placement, "_current_cpu", lambda: here)
    assert placement.child_cpu() == expected


def test_current_cpu_is_usable():
    here = placement._current_cpu()
    if here is None:
        pytest.skip("no sched_getcpu on this platform")
    assert here in placement.usable_cpus()
