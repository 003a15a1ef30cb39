import multiprocessing
import os

import pytest


@pytest.fixture(autouse=True)
def no_child_processes_left():
    """Every worker process a test starts is joined before the test ends, and
    every child forked with os.fork, which multiprocessing does not track,
    is reaped."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes still running: {left}"
    if not hasattr(os, "WNOHANG"):     # no fork on this platform
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:          # no child at all
        return
    assert False, ("a forked child was left unreaped" if pid else
                   "a forked child is still running")
