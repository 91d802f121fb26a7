"""Spans around the benchmark's own calls into each clustersim layer.

A span is recorded for every call the benchmark makes into a layer's
public function: its name (``<layer>.<function>``), start, end, parent
span, op id and whether the call raised.  Spans stay in memory and are
written out when the run ends.  With tracing off the same call sites go
through `NullTracer`, which adds one Python call and records nothing.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("states", "noise", "witness", "entclass", "mbqc", "classical_bound", "counts", "cli")


class NullTracer:
    """Call-through used for the untraced (end-to-end) runs."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, value):
        pass

    @contextmanager
    def op(self, op_id, tag):
        yield


class Tracer(NullTracer):
    """Records one span per call and one root span per op."""

    def __init__(self):
        # (name, start, end, parent index, op id, tag, failed)
        self.spans: list[tuple] = []
        # (op id, tag) -> {counter name: summed value}
        self.counters: dict[tuple, dict[str, float]] = {}
        self._stack: list[int] = []
        self._op = (None, None)

    def _enter(self):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index, parent, perf_counter()

    def _exit(self, name, index, parent, start, failed):
        end = perf_counter()
        self._stack.pop()
        op_id, tag = self._op
        self.spans[index] = (name, start, end, parent, op_id, tag, failed)

    def call(self, name, fn, *args, **kwargs):
        index, parent, start = self._enter()
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            self._exit(name, index, parent, start, failed)

    def add(self, name, value):
        bucket = self.counters.setdefault(self._op, {})
        bucket[name] = bucket.get(name, 0) + value

    @contextmanager
    def op(self, op_id, tag):
        self._op = (op_id, tag)
        index, parent, start = self._enter()
        failed = True
        try:
            yield
            failed = False
        finally:
            self._exit("op", index, parent, start, failed)
            self._op = (None, None)

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op", "tag", "failed")
        return [dict(zip(keys, span)) for span in self.spans]


def span_cost(calls: int = 20000) -> float:
    """Seconds a traced call adds to a direct one, measured on a no-op."""

    def noop():
        return None

    tracer = Tracer()
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    direct = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(calls):
        tracer.call("noop", noop)
    return max(perf_counter() - t0 - direct, 0.0) / calls


def _metric(name: str, tag) -> str:
    """`states.pauli_mixed` with tag `n10` -> `states.pauli_mixed_ms.n10`."""
    return f"{name}_ms.{tag}" if tag else f"{name}_ms"


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer and per-function figures from the recorded spans.

    Generic figures per layer L: calls per op, busy and self time per op
    (self = busy minus the part covered by child spans), share of op time,
    and calls that raised.  Per-function figures are medians over calls,
    keyed by span name plus the op's size tag.
    """
    spans = tracer.spans
    ops = [s for s in spans if s[0] == "op"]
    n_ops = max(len(ops), 1)
    op_time = sum(s[2] - s[1] for s in ops)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child_time[parent] += end - start

    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    self_time = dict.fromkeys(LAYERS, 0.0)
    failed = dict.fromkeys(LAYERS, 0)
    per_call: dict[str, list[float]] = {}
    for i, (name, start, end, parent, _op, tag, bad) in enumerate(spans):
        if name == "op":
            continue
        layer = name.split(".", 1)[0]
        calls[layer] += 1
        busy[layer] += end - start
        self_time[layer] += end - start - child_time[i]
        failed[layer] += bad
        per_call.setdefault(_metric(name, tag), []).append(end - start)

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (calls[layer] / n_ops, "count/op")
        out[f"{layer}.busy_ms"] = (1e3 * busy[layer] / n_ops, "ms")
        out[f"{layer}.self_ms"] = (1e3 * self_time[layer] / n_ops, "ms")
        out[f"{layer}.share"] = (busy[layer] / op_time if op_time else 0.0, "ratio")
        out[f"{layer}.failed"] = (failed[layer], "count")
    for key, durations in per_call.items():
        out[key] = (1e3 * statistics.median(durations), "ms")

    # Rows parsed per second of parse time, per size tag.
    rows: dict[str, float] = {}
    for (_op, tag), bucket in tracer.counters.items():
        if "counts.parse_rows" in bucket:
            rows[tag] = rows.get(tag, 0) + bucket["counts.parse_rows"]
    for tag, n_rows in rows.items():
        parse_time = sum(
            s[2] - s[1] for s in spans if s[0] == "counts.parse" and s[5] == tag
        )
        if parse_time > 0:
            key = f"counts.parse_rows_per_s.{tag}" if tag else "counts.parse_rows_per_s"
            out[key] = (n_rows / parse_time, "1/s")

    spans_per_op = (len(spans) - len(ops)) / n_ops
    cost = span_cost()
    out["trace.spans_per_op"] = (spans_per_op, "count/op")
    out["trace.ops_per_s"] = (len(ops) / op_time if op_time else 0.0, "1/s")
    # Direct estimate of the tracing overhead, free of run-to-run drift.
    out["trace.span_cost_us"] = (1e6 * cost, "us")
    out["trace.overhead_share"] = (spans_per_op * cost * n_ops / op_time if op_time else 0.0, "ratio")
    return out
