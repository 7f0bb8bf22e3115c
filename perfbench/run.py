"""Benchmark of the dualfield package: one closed-loop client, seeded workloads.

    python3 perfbench/run.py --workload verdict-su2 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

A run builds the workload's request list from ``--seed`` once, then runs
the whole list again and again, one request at a time, until ``--seconds``
have passed and at least the workload's minimum number of passes is done.
After each request the client checks the answer against an independent
reference; that check is not timed.  With ``--trace 0`` the run prints the
end-to-end metrics of ``BENCHMARK.json``, taking each request's latency as
its fastest pass; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Details (request-list digest, window histogram, tail percentile, every
layer metric with its base, spans) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

# One client on one thread: BLAS thread pools would compete with the client
# for the few cores a host gives.  Set before numpy loads; children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import common
import instrument

WORKLOADS = {"verdict-su2": "verdict", "spectral-mc-su2": "spectral", "cli-scripts": "cli_scripts"}
SETUP_REPEATS = 11
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
LAYERS = ("dual_hypergroup", "central_measures", "stationary_fields", "time_series", "cli")
ORACLES = ("time_series.oracle", "stationary_fields.second_moment")
GROWTH_MIN_WINDOW = 16  # smaller windows are dominated by fixed per-call costs
OUT_DIR = common.ROOT / ".perfbench_out"


def load_module(workload):
    module = importlib.import_module(WORKLOADS[workload])
    common.use_checkout_package()
    return module


def measure_setup(workload, seed):
    """Median wall time from starting a process to its first request being ready."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--setup-only", "--workload", workload, "--seed", str(seed)],
            cwd=common.ROOT,
            stdout=subprocess.PIPE,
        )
        line = proc.stdout.readline()
        times.append(perf_counter() - start)
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != b"ready":
            raise SystemExit(f"perfbench: set-up of {workload} failed")
    return statistics.median(times)


def run_pass(requests, tracer=None):
    """Run every request once; returns (latencies in seconds, failures)."""
    gc.collect()
    latencies, failures = [], 0
    for index, request in enumerate(requests):
        span = nullcontext()
        if tracer is not None:
            tracer.request = index
            span = tracer.span("request", {"kind": request.kind, "n": request.window})
        with span:
            start = perf_counter()
            try:
                result, error = request.call(tracer), None
            except Exception as exc:  # a request that raises is a failed operation, not a crash
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - start)
        if error is None:
            error = request.check(result)
        del result
        if error:
            failures += 1
            print(f"FAILED {json.dumps(request.spec)[:200]}: {error}", file=sys.stderr)
    return latencies, failures


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it."""
    return next(p for p in PERCENTILES if samples * (1 - p / 100) >= 10)


def window_histogram(requests):
    """Requests per power-of-two range of the window bound N."""
    counts = {}
    for n in sorted(r.window for r in requests if r.window is not None):
        low = 1 << (max(n, 1).bit_length() - 1)
        counts[f"{low}-{2 * low - 1}"] = counts.get(f"{low}-{2 * low - 1}", 0) + 1
    counts["none"] = sum(r.window is None for r in requests)
    return counts


def growth_exponent(points):
    """Slope of log(time) on log(N), with one intercept per request kind."""
    points = [(k, n, t) for k, n, t in points if n and n >= GROWTH_MIN_WINDOW and t > 0]
    kinds = sorted({k for k, _, _ in points})
    if len({n for _, n, _ in points}) < 2:
        return None
    x = np.zeros((len(points), 1 + len(kinds)))
    for row, (kind, n, _) in enumerate(points):
        x[row, 0] = math.log(n)
        x[row, 1 + kinds.index(kind)] = 1.0
    y = np.log([t for _, _, t in points])
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    windows = [n for _, n, _ in points]
    return float(coef[0]), f"{len(points)} spans, N {min(windows)}..{max(windows)}"


def layer_report(snaps, untraced_walls, traced_walls, process_costs):
    """Every per-layer metric of the traced passes, with its unit and base."""
    report = {}

    def put(name, value, unit, base=None):
        report[name] = {"value": value, "unit": unit, **({"base": base} if base else {})}

    first = snaps[0]
    names = sorted(set().union(*(s["agg"] for s in snaps)) - {"request"})
    for name in names:
        stats = [s["agg"].get(name, [0, 0.0, 0.0]) for s in snaps]
        put(f"{name}.calls", stats[0][0], "count")
        put(f"{name}.busy_s", statistics.median(v[1] for v in stats), "s")
        put(f"{name}.self_s", statistics.median(v[2] for v in stats), "s")
    for layer in LAYERS:
        per_pass = [
            sum(v[2] for k, v in s["agg"].items() if k.startswith(layer + "."))
            for s in snaps
        ]
        if any(per_pass):
            put(f"{layer}.self_s", statistics.median(per_pass), "s", "self time of every boundary of the module")
    if process_costs:
        base = f"median of {len(process_costs)} fresh processes"
        put("cli.import_s", statistics.median(c[0] for c in process_costs), "s", base)
        put("cli.interpreter_s", statistics.median(c[1] for c in process_costs), "s", base + ", wall - import - main")
    requests = [s["agg"].get("request", [0, 0.0, 0.0]) for s in snaps]
    put("benchmark.self_s", statistics.median(v[2] for v in requests), "s", "request time outside any boundary")

    tensor_calls = first["agg"].get("dual_hypergroup.tensor", [0])[0]
    if tensor_calls:
        distinct = len(first["distinct"].get("dual_hypergroup.tensor", ()))
        put("dual_hypergroup.tensor.distinct_ratio", distinct / tensor_calls, "ratio", f"{distinct} distinct of {tensor_calls} calls")
    checks = [s for s in first["spans"] if s["name"] == "stationary_fields.check"]
    if checks:
        pairs = sum(s["attrs"]["n"] ** 2 for s in checks)
        oracle_calls = sum(s["calls"].get(o, 0) for s in checks for o in ORACLES)
        put("stationary_fields.check.pairs", pairs, "count", f"{len(checks)} checks")
        put("stationary_fields.check.oracle_calls_per_pair", oracle_calls / pairs, "ratio", f"{oracle_calls} oracle calls over {pairs} pairs")
    for metric, span_name, attr, unit in (
        ("stationary_fields.sample_batch.draws", "stationary_fields.sample_batch", "draws", "count"),
        ("time_series.simulate_batch.paths", "time_series.simulate_batch", "paths", "count"),
    ):
        total = sum(s["attrs"][attr] for s in first["spans"] if s["name"] == span_name)
        if total:
            put(metric, total, unit)

    fits = {"stationary_fields.check.growth_exponent": [], "central_measures.fourier.growth_exponent": []}
    for snap in snaps:
        for span in snap["spans"]:
            if span["name"] == "stationary_fields.check":
                parent = span["parent"]
                kind = snap["spans"][parent]["attrs"].get("kind") if parent is not None else None
                fits["stationary_fields.check.growth_exponent"].append((str(kind), span["attrs"]["n"], span["dur"]))
            elif span["name"] == "request" and str(span["attrs"]["kind"]).startswith("fourier-"):
                points = fits["central_measures.fourier.growth_exponent"]
                points.append((span["attrs"]["kind"], span["attrs"]["n"], span["dur"]))
    for metric, points in fits.items():
        fitted = growth_exponent(points)
        if fitted:
            put(metric, fitted[0], "slope", fitted[1])
    untraced = statistics.median(untraced_walls)
    put("tracing.overhead_frac", statistics.median(traced_walls) / untraced - 1, "ratio", f"untraced wall_s {untraced:.6g}")
    return report


def count_mismatches(snaps):
    """Names of counts that differ between traced passes of the same request list."""
    bad = []
    for s in snaps[1:]:
        for name, value in snaps[0]["agg"].items():
            if s["agg"].get(name, [None])[0] != value[0]:
                bad.append(name)
    return sorted(set(bad))


def run_workload(args, spec):
    module = load_module(args.workload)
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    state = module.Setup(args.seed)
    requests = state.requests
    untraced_walls, pass_latencies, traced_walls, snaps = [], [], [], []
    tracer = instrument.Tracer() if args.trace else None
    if args.trace:
        # Built with tracing installed, so that the oracles it holds are wrapped.
        saved = instrument.install(tracer)
        traced_state = module.Setup(args.seed)
        instrument.uninstall(saved)
    totals = {"attempted": 0, "failed": 0}

    def run_counted(requests, tracer=None):
        lat, fails = run_pass(requests, tracer)
        totals["attempted"] += len(lat)
        totals["failed"] += fails
        return lat

    def untraced_pass():
        lat = run_counted(requests)
        untraced_walls.append(sum(lat))
        pass_latencies.append(lat)
        return sum(lat)

    def traced_pass():
        saved = instrument.install(tracer)
        tracer.reset()
        try:
            lat = run_counted(traced_state.requests, tracer)
        finally:
            instrument.uninstall(saved)
        snaps.append(tracer.snapshot())
        traced_walls.append(sum(lat))
        return sum(lat)

    start = perf_counter()
    if args.trace:
        # The first pass in a process fills lazy state (allocator arenas, cached
        # quadrature rules), which a client pays once; it is checked, not timed.
        # Untraced runs need no such pass: a request's fastest pass is warm.
        run_counted(requests)
    # A round is one untraced pass, or with tracing an untraced and a traced
    # pass, in alternating order so that drift of the host favours neither.
    rounds, min_rounds = [], module.MIN_PASSES if not args.trace else max(2, module.MIN_PASSES // 2)
    while True:
        order = [untraced_pass] if tracer is None else [untraced_pass, traced_pass]
        if len(rounds) % 2:
            order.reverse()
        rounds.append(sum(run() for run in order))
        # Start another round only if at least half of it fits in the time left.
        left = args.seconds - (perf_counter() - start)
        if len(rounds) >= min_rounds and left < 0.5 * statistics.median(rounds):
            break
    attempted, failed = totals["attempted"], totals["failed"]

    digest = hashlib.sha256(json.dumps([r.spec for r in requests], sort_keys=True).encode()).hexdigest()
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests_per_pass": len(requests),
        "request_list_sha256": digest,
        "window_histogram": window_histogram(requests),
        "passes": len(untraced_walls),
        "pass_wall_s": untraced_walls,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
    }
    print(f"workload {args.workload} seed {args.seed}: {len(requests)} requests per pass, {len(untraced_walls)} untraced passes")
    print(f"request list sha256 {digest}")
    print(f"window histogram {json.dumps(details['window_histogram'])}")
    if not args.trace:
        # A request's latency is its fastest pass of the run, as timeit takes
        # the best repeat: on a shared host the slower repeats time the other
        # tenants, which no change to the program moves.
        latencies = np.min(pass_latencies, axis=0)
        percentile = tail_percentile(len(requests))
        tail = float(np.percentile(latencies, percentile))
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": setup_s,
            "wall_s": float(latencies.sum()),
            "latency_p50_ms": 1000 * float(np.percentile(latencies, 50)),
            "latency_tail_ms": 1000 * tail,
            "peak_rss_mib": rss_kib / 1024,
        }
        beyond = int((latencies > tail).sum())
        details["latency_tail"] = {"percentile": percentile, "samples": len(latencies), "beyond": beyond}
        details["request_best_s"] = latencies.tolist()
        details["failed_frac"] = failed / attempted
        wanted = spec["end_to_end"]
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} fresh processes",
            "wall_s": f"sum of each request's fastest of {len(untraced_walls)} passes",
            "latency_p50_ms": f"of {len(latencies)} requests, each its fastest pass",
            "latency_tail_ms": f"p{percentile:g} of {len(latencies)} requests, {beyond} beyond",
            "peak_rss_mib": "this process",
        }
    else:
        process_costs = state.process_costs() if hasattr(state, "process_costs") else None
        report = layer_report(snaps, untraced_walls, traced_walls, process_costs)
        mismatched = count_mismatches(snaps)
        if mismatched:
            failed += 1
            print(f"FAILED counts differ between traced passes: {mismatched}", file=sys.stderr)
        details["traced_pass_wall_s"] = traced_walls
        details["layers"] = report
        details["spans"] = [s["spans"] for s in snaps]
        for name, entry in report.items():
            base = f"  ({entry['base']})" if "base" in entry else ""
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}{base}")
        wanted = spec["per_layer"]
        missing = [m["name"] for m in wanted if m["name"] not in report]
        if missing:
            raise SystemExit(f"perfbench: {args.workload} did not exercise {missing}")
        values = {name: entry["value"] for name, entry in report.items()}
        notes = {}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if not args.trace:
        for name, metric in metrics.items():
            print(f"{name} = {metric['value']:.6g} {metric['unit']}  ({notes[name]})")
        print(f"failed_frac = {details['failed_frac']:.6g}  ({failed} of {attempted} operations)")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=common.ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: {workload} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(common.ROOT)  # the workloads name files of the checkout by relative paths
    if args.setup_only:
        load_module(args.workload).Setup(args.seed)
        print("ready", flush=True)
        return 0
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    result = run_all(args) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
