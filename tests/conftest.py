import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_processes_left():
    """Every worker process a test starts is joined before the test ends."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running: {left}"
