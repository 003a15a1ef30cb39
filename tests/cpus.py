"""Run part of a test on a given number of CPUs, as `taskset` would."""

from __future__ import annotations

import os
from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest

from reslearn import harness, ingest, placement


@contextmanager
def on_cpus(n: int):
    """Run the block with this thread's CPU affinity set to the first `n` CPUs
    it may use, and restore the affinity afterwards. Where it may use fewer
    than `n`, `usable_cpus` also reports `n` CPUs (some of them twice) to the
    modules that ask it, so that they fork and thread as on an `n`-CPU host
    (`evaluate` imports it from `placement` when it runs)."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("needs CPU affinity")
    saved = os.sched_getaffinity(0)
    cpus = sorted(saved)
    os.sched_setaffinity(0, cpus[:n])
    try:
        with ExitStack() as patches:
            if n > len(cpus):
                for module in (placement, harness, ingest):
                    patches.enter_context(
                        mock.patch.object(module, "usable_cpus", lambda: (cpus * n)[:n]))
            yield
    finally:
        os.sched_setaffinity(0, saved)
