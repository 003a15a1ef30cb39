import pytest

from reslearn import placement


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


def test_current_cpu_is_usable():
    here = placement._current_cpu()
    if here is None:
        pytest.skip("no sched_getcpu on this platform")
    assert here in placement.usable_cpus()
