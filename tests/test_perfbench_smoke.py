"""The four perfbench workloads at size tiny, untraced, in this process.

A change under src/ that breaks the benchmark's calls or its exact
outputs fails here, not only when the benchmark itself is run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_outputs_are_exact(name, tmp_path):
    _check_tiny_workload(name, tmp_path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_outputs_are_exact_object_dtype(name, tmp_path, object_dtype):
    _check_tiny_workload(name, tmp_path)


def _check_tiny_workload(name, tmp_path):
    """The workload's exact outputs match its pinned expected values, and its
    probe, if it has one, runs under a tracer and records its spans."""
    wl = WORKLOADS[name]
    inp = wl.setup("tiny", 42, tmp_path)
    ops = wl.run(inp, None)
    if hasattr(wl, "finish"):
        wl.finish(inp, ops)
    assert worker.check(ops, wl.expected(inp, False)) == []
    if hasattr(wl, "probe"):
        tracer = Tracer("smoke")
        wl.probe(inp, tracer)
        assert tracer.spans
