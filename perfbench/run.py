"""clustersim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper-chain --seed 1 --seconds 30 --trace 0

Runs the named workload as a closed loop with one client against the
public API of ``src/clustersim`` in this checkout, checks every op's
output, prints the metrics with their units and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics,
taken from spans recorded around the benchmark's own calls into each
layer.  A full result (environment, latencies, errors, and for traced
runs the spans) is written under ``--results``.

``--write-golden`` regenerates ``perfbench/golden/<workload>.json`` from
the current code for the golden seed; see perfbench/README.md.
"""

from __future__ import annotations

from time import perf_counter

PROCESS_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
GOLDEN_SEED = 0
GOLDEN_TOL = 1e-9
# Cycles recorded by --write-golden: more than one 30 s run completes at
# the seed commit (paper-chain 50-88 cycles, stretch-mixed 1,
# grouping-search 2-4, cli-oneshot 17-30).
GOLDEN_CYCLES = {"paper-chain": 120, "stretch-mixed": 2, "grouping-search": 6, "cli-oneshot": 40}
BLAS_NOTE = (
    "With the default 2 OpenBLAS threads a 64x64 complex matmul took 16 ms and eigvalsh 8 ms; "
    "with OPENBLAS_NUM_THREADS=1 they took 0.05 ms and 0.46 ms (2-vCPU Xeon, 2026-10-17). "
    "n = 6 ops in stretch-mixed pay this. Threading is left as found, not pinned."
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or `all` to run each in turn")
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=str(HERE / "results"), help="directory for result files")
    p.add_argument("--write-golden", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def time_import(module: str, reps: int, env: dict) -> list[float]:
    """Wall seconds of `python -c "import <module>"` in a fresh interpreter."""
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"], env=env, check=True, timeout=60)
        times.append(perf_counter() - t0)
    return times


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> dict:
    import ctypes

    import numpy as np

    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": f"{cfg.get('name')} {cfg.get('version')}", "threads": "unknown"}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    break
    except OSError:
        pass
    info["env"] = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ}
    # Live probe of the small-matrix cost that the note describes.
    a = np.random.default_rng(0).normal(size=(64, 64)) * (1 + 1j)
    h = a + a.conj().T
    mm, ev = [], []
    for _ in range(20):
        t0 = perf_counter()
        a @ a
        mm.append(perf_counter() - t0)
        t0 = perf_counter()
        np.linalg.eigvalsh(h)
        ev.append(perf_counter() - t0)
    info["probe_matmul64_ms"] = 1e3 * statistics.median(mm)
    info["probe_eigvalsh64_ms"] = 1e3 * statistics.median(ev)
    info["note"] = BLAS_NOTE
    return info


def environment(numpy_floor_s: float, import_s: float) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "numpy_import_floor_ms": 1e3 * numpy_floor_s,
        "clustersim_import_ms": 1e3 * import_s,
    }


def cpu_clocks() -> dict:
    """Process and main-thread CPU seconds, and the machine's steal time
    (CPU time the hypervisor gave to other guests), to tell noise from
    the BLAS worker threads and from neighbours apart."""
    steal = None
    try:
        with open("/proc/stat") as fh:
            steal = int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return {"process_s": time.process_time(), "main_thread_s": time.thread_time(), "machine_steal_s": steal}


def tail(latencies: list[float], q) -> int:
    """Index into `latencies` of the op at the nearest-rank quantile `q`
    (a Fraction, so that ceil(n * q) is exact for whole cycles)."""
    n = len(latencies)
    rank = max(1, -(-n * q.numerator // q.denominator))
    return sorted(range(n), key=latencies.__getitem__)[rank - 1]


def _mismatch(got, want, path="") -> str | None:
    if isinstance(want, float) or isinstance(got, float):
        ok = isinstance(got, (int, float)) and abs(got - want) <= GOLDEN_TOL
        return None if ok else f"{path}: {got!r} != golden {want!r}"
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs from golden"
        for i, (g, w) in enumerate(zip(got, want)):
            if (m := _mismatch(g, w, f"{path}[{i}]")) is not None:
                return m
        return None
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return f"{path}: keys differ from golden"
        for k in want:
            if (m := _mismatch(got[k], want[k], f"{path}.{k}")) is not None:
                return m
        return None
    return None if got == want else f"{path}: {got!r} != golden {want!r}"


def run_all(args, names) -> int:
    """Run every workload in turn, each in its own process, and end with
    one JSON line whose metrics are keyed `<workload>.<metric>`."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--results", args.results]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clustersim" / "__init__.py").is_file():
        fail(f"no clustersim sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import clustersim

    if Path(clustersim.__file__).resolve().parent != (SRC / "clustersim").resolve():
        fail(f"imported clustersim from {clustersim.__file__}, not from {SRC}")

    import tracing
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=results)
    try:
        return _run(args, spec, workloads, tracing, results, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, spec, workloads, tracing, results, workdir) -> int:
    cls = workloads.WORKLOADS[args.workload]

    # --- set-up, repeated; setup_s = fresh-interpreter import + in-process set-up
    child = workloads.child_env()
    import_times = time_import("clustersim", SETUP_REPS, child)
    numpy_floor = time_import("numpy", SETUP_REPS, child)
    null = tracing.NullTracer()
    inproc_times, setup_errors = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        wl = cls(args.seed, workdir)
        first_cycle = wl.cycle(0)
        for op in wl.warmup():
            try:
                wl.check(op, wl.run(op, null))
            except Exception as exc:  # a wrong warm-up output is reported, not a crash
                setup_errors.append({"op": "warm-up", "tag": op.tag, "error": f"{type(exc).__name__}: {exc}"})
        inproc_times.append(perf_counter() - t0)
    setup_s = statistics.median(import_times) + statistics.median(inproc_times)

    golden_path = Path(__file__).resolve().parent / "golden" / f"{args.workload}.json"
    golden = []
    if not args.write_golden and golden_path.exists():
        stored = json.loads(golden_path.read_text())
        if stored["seed"] == args.seed:
            golden = stored["records"]

    tracer = tracing.Tracer() if args.trace else null
    latencies, tags, errors, records = [], [], [], []
    failed = 0
    cycles = 0
    clocks_before = cpu_clocks()
    first_op_at = perf_counter()
    run_start = first_op_at
    ops = first_cycle
    while True:
        cycle_start = perf_counter()
        for op in ops:
            index = len(latencies)
            error = None
            with tracer.op(index, op.tag):
                t0 = perf_counter()
                try:
                    raw = wl.run(op, tracer)
                except Exception as exc:  # an op that raises counts as failed
                    error = f"raised {type(exc).__name__}: {exc}"
                latencies.append(perf_counter() - t0)
            tags.append(op.tag)
            if error is None:
                try:
                    record = json.loads(json.dumps(wl.check(op, raw)))
                    records.append(record)
                    if index < len(golden):
                        mismatch = _mismatch(record, golden[index], "op")
                        if mismatch:
                            error = f"golden: {mismatch}"
                except Exception as exc:  # CheckError, or output the check cannot read
                    error = f"check: {type(exc).__name__}: {exc}"
            if error is not None:
                failed += 1
                errors.append({"op": index, "tag": op.tag, "error": error})
        cycles += 1
        elapsed = perf_counter() - run_start
        if args.write_golden:
            if cycles >= GOLDEN_CYCLES[args.workload]:
                break
        # Another cycle only if it would end within --seconds even 25% slower
        # than this one, so that a long cycle runs a fixed number of times.
        elif elapsed + 1.25 * (perf_counter() - cycle_start) > args.seconds:
            break
        ops = wl.cycle(cycles)
    wall = perf_counter() - run_start
    clocks_after = cpu_clocks()
    cpu = {
        k: clocks_after[k] - clocks_before[k] if clocks_before[k] is not None else None
        for k in clocks_before
    }

    correct = failed == 0 and not setup_errors
    errors = setup_errors + errors
    if args.write_golden:
        if not correct:
            fail(f"not writing golden outputs: {len(errors)} failures, first: {errors[0]}")
        golden_path.parent.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps({"seed": args.seed, "records": records}) + "\n")
        print(f"wrote {len(records)} golden records to {golden_path}", file=sys.stderr)

    attempted = len(latencies)
    ok = attempted - failed
    tail_op = tail(latencies, wl.tail_q)
    tail_value = latencies[tail_op]
    tail_beyond = sum(x > tail_value for x in latencies)
    tail_pct = float(100 * wl.tail_q)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
    e2e = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (ok / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_value, "ms"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
    }
    env = environment(statistics.median(numpy_floor), statistics.median(import_times))

    if args.trace:
        computed = tracing.layer_metrics(tracer)
        computed["cli.import_ms"] = (env["clustersim_import_ms"], "ms")
        computed["cli.numpy_floor_ms"] = (env["numpy_import_floor_ms"], "ms")
        wanted = spec["per_layer"]
    else:
        computed = e2e
        wanted = spec["end_to_end"]
    # Every metric BENCHMARK.json names is printed; a layer this workload
    # never calls reads 0.
    metrics = {
        m["name"]: {"value": computed.get(m["name"], (0, m["unit"]))[0], "unit": m["unit"]} for m in wanted
    }

    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "cycles": cycles, "wall_s": wall, "cpu_during_run": cpu,
        "setup": {
            "import_s": import_times, "inprocess_s": inproc_times,
            "process_start_to_first_op_s": first_op_at - PROCESS_T0,
        },
        "tail": {"percentile": tail_pct, "samples_beyond": tail_beyond, "samples": attempted,
                 "op": tail_op, "tag": tags[tail_op]},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "metrics": metrics,
        "all_layer_metrics": {k: {"value": v, "unit": u} for k, (v, u) in computed.items()} if args.trace else None,
        "latencies_ms": [1e3 * x for x in latencies],
        "op_tags": tags,
        "errors": errors[:50],
        "golden_records_compared": min(len(golden), attempted),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(tracer.dump()) + "\n")

    print(f"clustersim benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    blas = env["blas"]
    print(f"env: commit={env['commit'][:12]} python={env['python']} numpy={env['numpy']} "
          f"blas={blas['name']} threads={blas['threads']} nproc={env['nproc']} cpu={env['cpu']}")
    print(f"env: import numpy floor {env['numpy_import_floor_ms']:.1f} ms, import clustersim "
          f"{env['clustersim_import_ms']:.1f} ms; 64x64 matmul {blas['probe_matmul64_ms']:.3f} ms, "
          f"eigvalsh {blas['probe_eigvalsh64_ms']:.3f} ms")
    print(f"ops: attempted={attempted} failed={failed} cycles={cycles} "
          f"golden_compared={full['golden_records_compared']}")
    shown = metrics if args.trace else full["end_to_end"]
    for name, m in shown.items():
        extra = ""
        if name == "op_tail_ms":
            extra = f"  (p{tail_pct:.1f}, {tail_beyond} of {attempted} samples beyond)"
        elif name not in metrics:
            extra = "  (reported only: not an end-to-end metric of BENCHMARK.json)"
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{extra}")
    print(f"  {'failed_ratio':<40} {failed / attempted:>14.6g} ratio")
    for err in errors[:5]:
        print(f"  FAILED op {err['op']} [{err['tag']}]: {err['error']}")
    print(f"results: {results / stem}.json")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
