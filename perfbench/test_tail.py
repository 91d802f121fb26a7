"""op_tail_ms reads the same class of ops however many cycles a run completes.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_tail.py

A faster library lets a run complete more cycles.  If the tail were the
11th-largest latency of the run, its percentile, and with it the class of
op it falls on, would move with the library's speed.  `tail_q` is fixed
per workload, so one cycle and several cycles read the same class.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Seed-commit median cost per op class, in ms (perfbench/baseline.json).
CLASS_MS = {
    "stretch-mixed": {"n6": 8, "n8": 215, "n10": 12000},
    "grouping-search": {"n6.b1": 1.2, "n6.b2": 2.7, "n8.b1": 5.2, "n8.b2": 25, "n10.b1": 19,
                        "n10.b2": 350, "n12.b1": 95, "n12.b2": 5200},
}
TAIL_CLASS = {"stretch-mixed": "n8", "grouping-search": "n12.b1"}


def tail_tag(latencies, tags, q):
    return tags[run.tail(latencies, q)]


@pytest.mark.parametrize("name", sorted(TAIL_CLASS))
def test_tail_class_fixed_by_cycle(name, tmp_path):
    """With costs jittered by up to 30%, 1 to 6 cycles read the same class."""
    wl = workloads.WORKLOADS[name](0, str(tmp_path))
    rng = np.random.default_rng(0)
    for cycles in range(1, 7):
        tags = [op.tag for c in range(cycles) for op in wl.cycle(c)]
        latencies = [CLASS_MS[name][t] * rng.uniform(0.7, 1.3) for t in tags]
        assert tail_tag(latencies, tags, wl.tail_q) == TAIL_CLASS[name], cycles


def test_grouping_search_two_cycles(tmp_path):
    """Two real cycles of grouping-search read the tail from the same class as one."""
    wl = workloads.GroupingSearch(1, str(tmp_path))
    null = tracing.NullTracer()
    latencies, tags = [], []
    for c in range(2):
        for op in wl.cycle(c):
            t0 = perf_counter()
            wl.check(op, wl.run(op, null))
            latencies.append(perf_counter() - t0)
            tags.append(op.tag)
        assert tail_tag(latencies, tags, wl.tail_q) == "n12.b1", f"{c + 1} cycle(s)"
