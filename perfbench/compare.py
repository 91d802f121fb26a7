"""Summarise or compare sets of benchmark results.

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A results directory holds the `<workload>-seed<k>-trace<t>.json` files
that perfbench/run.py writes (`--results DIR`).

With one directory, prints for each workload and end-to-end metric the
median, quartiles and spread (interquartile range over median) of its
untraced runs against the metric's bound in BENCHMARK.json, and the
tracing overhead: the drop in ops_per_s from the untraced to the traced
runs.

With two, pairs the runs of each workload in seed order and prints each
side's median and quartiles and a verdict per metric.  Make the runs of a
pair back to back, alternating which side runs first: on a shared VM the
machine's speed can drift by 10-30 % over minutes, so a set of parent runs
followed by a set of change runs can show a "better" that is only drift.
  better      the change wins at least 9/10 of at least 10 pairs and the
              medians differ by more than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the bound, and the spread does not hide it;
  unresolved  a side's spread is wider than the bound (unless every change
              run beats every parent run), or a "better" with < 10 pairs;
  unchanged   otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """(workload, trace) -> results in seed order, from the directory and
    its subdirectories (one per repeat, when a seed is run more than once)."""
    runs: dict[tuple[str, int], list[tuple]] = {}
    for path in sorted(directory.rglob("*-seed*-trace[01].json")):
        result = json.loads(path.read_text())
        runs.setdefault((result["workload"], result["trace"]), []).append((result["seed"], str(path), result))
    return {key: [r for *_, r in sorted(items, key=lambda x: x[:2])] for key, items in runs.items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def e2e(result, name):
    return result["end_to_end"][name]["value"]


def summary(directory: Path, spec: dict) -> int:
    runs = load(directory)
    worst = 0
    for workload in (w["name"] for w in spec["workloads"]):
        plain = runs.get((workload, 0), [])
        if not plain:
            continue
        attempted = sum(r["attempted"] for r in plain)
        failed = sum(r["failed"] for r in plain)
        print(f"{workload}: {len(plain)} runs, seeds {[r['seed'] for r in plain]}, failed {failed}/{attempted}")
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for name, first in plain[0]["end_to_end"].items():
            values = [e2e(r, name) for r in plain]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            if bound is None:
                state = "reported only"
            else:
                state = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "TOO WIDE"
                # setup_s is held to its median, not its spread: the few
                # set-ups of a run leave its spread wide, so it is shown
                # against the bound here but does not fail the summary.
                worst |= name != "setup_s" and state == "TOO WIDE"
            print(f"  {name:<12} median {med:12.6g} {first['unit']:<4} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:6.3f} bound {bound if bound is not None else '-':<4} {state}")
        traced = runs.get((workload, 1), [])
        if traced:
            untraced = statistics.median(e2e(r, "ops_per_s") for r in plain)
            with_trace = statistics.median(e2e(r, "ops_per_s") for r in traced)
            print(f"  tracing overhead: ops_per_s {untraced:.6g} untraced, {with_trace:.6g} traced "
                  f"({len(traced)} runs), drop {(untraced - with_trace) / untraced:+.2%}")
    return worst


def verdict(parent, change, lower_is_better, bound):
    n = len(parent)

    def beats(a, b):
        return a < b if lower_is_better else a > b

    wins = sum(beats(c, p) for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = (pm - cm) if lower_is_better else (cm - pm)
    all_better = all(beats(c, p) for c in change for p in parent)
    all_worse = all(beats(p, c) for c in change for p in parent)
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    if wins >= 0.9 * n and gain > p3 - p1:
        return "better" if n >= 10 else "unresolved", wins
    if -gain / pm > bound and (spread <= bound or all_worse):
        return "worse", wins
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def compare(parent_dir: Path, change_dir: Path, spec: dict) -> int:
    parent_runs, change_runs = load(parent_dir), load(change_dir)
    status = 0
    print(f"{'workload':<16} {'metric':<12} {'parent q1/median/q3':>36} {'change q1/median/q3':>36} "
          f"{'pairs':>5} {'won':>4} verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        parent = parent_runs.get((workload, 0), [])
        change = change_runs.get((workload, 0), [])
        n = min(len(parent), len(change))
        if n == 0:
            continue
        p_runs, c_runs = parent[:n], change[:n]
        gated = {m["name"]: m for m in spec["end_to_end"]}
        for name in p_runs[0]["end_to_end"]:
            pv = [e2e(r, name) for r in p_runs]
            cv = [e2e(r, name) for r in c_runs]
            if name in gated:
                result, wins = verdict(pv, cv, gated[name]["better"] == "lower", gated[name]["bound"])
                status |= result == "worse"
            else:  # printed by run.py but not bounded in BENCHMARK.json
                result, wins = verdict(pv, cv, name.endswith("_ms"), float("inf"))
                result += " (reported only)"
            ps = "/".join(f"{x:.4g}" for x in quartiles(pv))
            cs = "/".join(f"{x:.4g}" for x in quartiles(cv))
            print(f"{workload:<16} {name:<12} {ps:>36} {cs:>36} {n:>5} {wins:>4} {result}")
        failed = (sum(r["failed"] for r in p_runs), sum(r["failed"] for r in c_runs))
        print(f"{workload:<16} failed ops: parent {failed[0]}, change {failed[1]}")
    return status


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    dirs = [Path(a) for a in argv]
    return summary(dirs[0], spec) if len(dirs) == 1 else compare(dirs[0], dirs[1], spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
