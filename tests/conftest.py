import os

import pytest


@pytest.fixture(autouse=True)
def no_child_processes_left():
    """Every child process a test forks is reaped before the test ends."""
    yield
    if not hasattr(os, "WNOHANG"):     # no fork on this platform
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:          # no child at all
        return
    assert False, ("a forked child was left unreaped" if pid else
                   "a forked child is still running")
