"""Alternating parent/change runs of the benchmark, summarised per workload and metric.

    python3 tools/ab_pairs.py --parent HEAD~1 --pairs 10 --seconds 12 \\
        --workload verdict-su2 --seed 23 --out BENCH_N.json

The parent revision is unpacked with ``git archive`` into a temporary
directory.  The change is ``--change`` unpacked the same way or, by
default, the working tree: its tracked files and its untracked files that
git does not ignore, copied.  Each side then runs ``perfbench/run.py`` from
its own directory.

First one traced pass of the change runs (``--workload all --seed 1
--seconds 3 --trace 1``); the script stops with exit 1 if that pass exits
non-zero or prints ``correct: false``.  Then, for each workload, it runs
``--pairs`` pairs of untraced runs, the parent first in even pairs and the
change first in odd ones.  It prints each side's median and interquartile
range and the number of pairs the change won, per end-to-end metric of
``BENCHMARK.json``, and writes them with every run's value to ``--out``.
A pair is won when the change reads strictly better; ties count for
neither.  A gain holds when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile
range.  Exit 1 also when any run fails or reads ``correct: false``.

Each run's number of passes is read from the side's
``.perfbench_out/<workload>-seed<n>-trace0.json``, written per run and
printed as each side's median.  The client keeps every pass's latencies,
so a faster program makes more passes in the same seconds and its
``peak_rss_mib`` grows with no change in the program's own peak: the pass
counts tell the two apart.

Each run's fastest latency per request is also read from that file and
summed per request kind.  The kind and window of every request come from building
``Setup(seed).requests`` once per side and workload, in a subprocess in
that side's tree.  Each side's median sum per kind and the pairs the change
won are printed and written to ``--out`` under ``by_kind``: where a
``wall_s`` change sits, with no traced run.  The table is left out when the
two sides build different request lists, when a side cannot build its list,
or when a run's details file is missing, has no ``request_best_s`` or ran a
list of another digest.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

BENCH_SCRIPT = "perfbench/run.py"
OUT_DIR = ".perfbench_out"
# Run in a side's tree: its request list's digest, as perfbench/run.py takes
# it, and the kind and window of each request.
REQUEST_KINDS = """
import hashlib, json, sys
sys.path.insert(0, "perfbench")
import run
requests = run.load_module(sys.argv[1]).Setup(int(sys.argv[2])).requests
digest = hashlib.sha256(json.dumps([r.spec for r in requests], sort_keys=True).encode()).hexdigest()
print(json.dumps({"digest": digest, "requests": [[r.kind, r.window] for r in requests]}))
"""


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True).stdout


def unpack_revision(repo: Path, revision: str, into: Path) -> str:
    """Extract ``revision`` into ``into`` with ``git archive``; return its full hash."""
    commit = git(repo, "rev-parse", "--verify", f"{revision}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git(repo, "archive", commit)), mode="r:") as archive:
        archive.extractall(into)
    return commit


def copy_working_tree(repo: Path, into: Path) -> str:
    """Copy tracked and untracked, not ignored, files; return a description of the tree."""
    listed = git(repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = repo / name
        if source.is_file():  # a tracked file deleted in the working tree is skipped
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    head = git(repo, "rev-parse", "HEAD").decode().strip()
    return f"working tree over {head}"


def run_bench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; its exit code and the JSON object of its last stdout line."""
    argv = [
        sys.executable, BENCH_SCRIPT, "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    result["returncode"] = proc.returncode
    if proc.returncode != 0:
        result["stderr_tail"] = proc.stderr[-2000:]
    return result


def request_kinds(tree: Path, workload: str, seed: int) -> dict | None:
    """{"digest", "requests": [[kind, window], ...]} of the workload's request list in ``tree``, or None."""
    argv = [sys.executable, "-c", REQUEST_KINDS, workload, str(seed)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def read_details(tree: Path, workload: str, seed: int) -> dict | None:
    """The details file of the untraced run just made in ``tree``, or None."""
    try:
        return json.loads((tree / OUT_DIR / f"{workload}-seed{seed}-trace0.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None


def kind_sums(details: dict | None, kinds: dict) -> dict[str, float] | None:
    """Fastest latency summed per request kind, from a run's details, or None."""
    if details is None:
        return None
    latencies = details.get("request_best_s") or []
    if details.get("request_list_sha256") != kinds["digest"] or len(latencies) != len(kinds["requests"]):
        return None
    sums: dict[str, float] = {}
    for (kind, _), latency in zip(kinds["requests"], latencies):
        sums[kind] = sums.get(kind, 0.0) + latency
    return sums


def summarise_kinds(kinds: dict, parent: list[dict], change: list[dict]) -> dict:
    """Per kind: request count, window span, each side's median sum and the pairs the change won."""
    out = {}
    for kind in sorted({k for k, _ in kinds["requests"]}):
        windows = [w for k, w in kinds["requests"] if k == kind and w is not None]
        p = [run[kind] for run in parent]
        c = [run[kind] for run in change]
        p1, p_med, p3 = quartiles(p)
        c_med = statistics.median(c)
        out[kind] = {
            "requests": sum(k == kind for k, _ in kinds["requests"]),
            "windows": [min(windows), max(windows)] if windows else None,
            "parent_median_s": p_med,
            "parent_iqr_s": p3 - p1,
            "change_median_s": c_med,
            "change_minus_parent_s": c_med - p_med,
            "change_won_pairs": f"{sum(b < a for a, b in zip(p, c))} of {len(p)}",
            "parent_runs_s": p,
            "change_runs_s": c,
        }
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1 if better == "lower" else -1
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    return {
        "parent_median": p_med,
        "parent_iqr": p3 - p1,
        "change_median": c_med,
        "change_iqr": c3 - c1,
        "change_pct": round(100 * (c_med - p_med) / p_med, 2) if p_med else None,
        "change_won_pairs": f"{won} of {len(parent)}",
        "gain_holds": won >= 0.9 * len(parent) and sign * (p_med - c_med) > p3 - p1,
        "within_bound": worse_by <= bound,
        "parent_runs": parent,
        "change_runs": change,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--parent", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--change", help="change revision (default: the working tree)")
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    repo = args.repo.resolve()
    # SIGTERM unwinds like an error: subprocess.run kills the running benchmark
    # and the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as scratch:
        trees = {"parent": Path(scratch, "parent"), "change": Path(scratch, "change")}
        for tree in trees.values():
            tree.mkdir()
        revisions = {"parent": unpack_revision(repo, args.parent, trees["parent"])}
        if args.change:
            revisions["change"] = unpack_revision(repo, args.change, trees["change"])
        else:
            revisions["change"] = copy_working_tree(repo, trees["change"])
        spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
        metrics = spec["end_to_end"]
        workloads = args.workload or [w["name"] for w in spec["workloads"]]

        traced = run_bench(trees["change"], "all", 1, 3, 1)
        print(f"traced pass of the change: exit {traced['returncode']}, correct {traced['correct']}")
        if traced["returncode"] != 0 or not traced["correct"]:
            print(traced.get("stderr_tail", ""), file=sys.stderr)
            return 1

        report = {
            "command": f"{BENCH_SCRIPT} --workload W --seed {args.seed} "
            f"--seconds {args.seconds} --trace 0",
            "revisions": revisions,
            "machine": {"python": platform.python_version(), "platform": platform.platform()},
            "protocol": f"{args.pairs} pairs per workload, one run at a time; the parent runs "
            "first in even pairs and the change first in odd ones. Quartiles are "
            "statistics.quantiles(method='inclusive'); a pair is won when the change reads "
            "strictly better.",
            "traced_pass": {k: traced[k] for k in ("returncode", "correct", "failed")},
            "workloads": {},
        }
        ok = True
        for workload in workloads:
            runs = {"parent": [], "change": []}
            # Per-kind sums only where both sides build the same request list.
            kinds = request_kinds(trees["parent"], workload, args.seed)
            if kinds is None or kinds != request_kinds(trees["change"], workload, args.seed):
                kinds = None
            sums = {"parent": [], "change": []}
            passes = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_bench(trees[side], workload, args.seed, args.seconds, 0)
                    if result["returncode"] != 0 or not result["correct"]:
                        ok = False
                        print(f"{workload} {side} pair {pair}: exit {result['returncode']}, "
                              f"correct {result['correct']}", file=sys.stderr)
                        print(result.get("stderr_tail", ""), file=sys.stderr)
                    runs[side].append(result)
                    details = None
                    if result["returncode"] == 0:
                        details = read_details(trees[side], workload, args.seed)
                        if kinds is not None:
                            sums[side].append(kind_sums(details, kinds))
                    passes[side].append(details.get("passes") if details else None)
            summary = {
                "correct": all(r["correct"] for side in runs.values() for r in side),
                "failed": sum(r.get("failed") or 0 for side in runs.values() for r in side),
                "passes": {},
            }
            for side, counts in passes.items():
                read = [c for c in counts if c is not None]
                summary["passes"][f"{side}_median"] = statistics.median(read) if read else None
                summary["passes"][f"{side}_runs"] = counts
            medians = summary["passes"]
            print(
                f"{workload:16s} {'passes':16s} parent {medians['parent_median']}  "
                f"change {medians['change_median']}",
                flush=True,
            )
            for metric in metrics:
                name = metric["name"]
                values = {
                    side: [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
                    for side, results in runs.items()
                }
                if len(values["parent"]) != args.pairs or len(values["change"]) != args.pairs:
                    continue
                entry = summarise(values["parent"], values["change"], metric["better"], metric["bound"])
                summary[name] = entry
                print(
                    f"{workload:16s} {name:16s} parent {entry['parent_median']:.6g} "
                    f"(IQR {entry['parent_iqr']:.3g})  change {entry['change_median']:.6g} "
                    f"(IQR {entry['change_iqr']:.3g})  {entry['change_pct']:+}%  "
                    f"won {entry['change_won_pairs']}  gain {entry['gain_holds']}  "
                    f"within bound {entry['within_bound']}",
                    flush=True,
                )
            if all(len(v) == args.pairs and None not in v for v in sums.values()):
                summary["by_kind"] = summarise_kinds(kinds, sums["parent"], sums["change"])
                for kind, entry in summary["by_kind"].items():
                    print(
                        f"{workload:16s} {kind:20s} parent {entry['parent_median_s']:.6g} s "
                        f"(IQR {entry['parent_iqr_s']:.3g})  change {entry['change_median_s']:.6g} s  "
                        f"{entry['change_minus_parent_s']:+.3g} s  won {entry['change_won_pairs']}",
                        flush=True,
                    )
            report["workloads"][workload] = summary
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
