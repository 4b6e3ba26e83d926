"""quadsum benchmark.

    python3 bench/run.py --workload circle-method --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload in turn

Run from the repository root.  Each workload run is a fresh Python process
(bench/worker.py) with one job at a time, BLAS/OpenMP pinned to one thread
and fixed malloc thresholds; runs never overlap.  Untraced runs repeat until
--seconds have passed (at least three) and give wall_s and peak_rss_mb as
medians.  After each run come SETUP_PER_RUN processes that stop after
set-up; setup_s is the median, over the runs, of the fastest set-up next to
each run: on a shared host, bursts of interference are often shorter than a
set-up, and the fastest of a few neighbouring set-ups is the one that missed
them.  With --trace 1 half the time goes to untraced runs and one traced run
gives the per-layer metrics.  Metric names and units come from
BENCHMARK.json.

Prints one line per metric and, last, one JSON object.  Exits 1 when any
job's result fails its oracle (a probe's result too, once a probe returns
one), and 2 when the benchmark cannot run at all (for instance when
src/quadsum is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import wrong_results  # bench/ is on sys.path; imports nothing from quadsum

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"

MIN_RUNS = 3
SETUP_PER_RUN = 5
WORKER_TIMEOUT_S = 120
# One BLAS/OpenMP thread: a plain single-threaded baseline.  glibc malloc
# starts with adaptive mmap/trim thresholds that make peak RSS flip by about
# 15 MB between identical runs; fixing them at the values the adaptation
# saturates at (32 MiB, twice that for trim) keeps peak_rss_mb repeatable
# without slowing the workloads.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),
    "MALLOC_TRIM_THRESHOLD_": str(64 * 2**20),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list[str], env: dict) -> dict:
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} did not finish in {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_done"] - started
    return result


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return ""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f", quartiles {q1:.4g}..{q3:.4g}"


def layer_metric(name: str, trace: dict, untraced: dict) -> float:
    if name == "trace.overhead_s":
        return trace["wall_s"] - untraced["wall_s"]
    if name == "trace.top_level_share":
        return trace["trace"]["top_level_s"] / trace["wall_s"]
    if name == "probe.wall_s":
        return untraced["probe_s"]
    key, _, field = name.rpartition(".")
    totals = trace["trace"]["totals"]
    if key in totals and field in ("calls", "self_s"):
        calls, self_s = totals[key]
        return calls if field == "calls" else self_s
    return trace["trace"]["values"].get(name, 0)


def measure(workload: str, seed: int, seconds: int, trace: bool, spec: dict) -> tuple[dict, bool]:
    OUT.mkdir(exist_ok=True)
    env = worker_env()
    base = ["--workload", workload, "--seed", str(seed)]
    setup_only = base + ["--setup-only"]
    # also compiles bytecode before anything is timed
    machine = spawn(setup_only + ["--environment"], env)["env"]

    budget = seconds / 2 if trace else seconds
    runs: list[dict] = []
    setups: list[list[float]] = []  # per run: its own set-up, then the set-up-only ones
    started = time.monotonic()
    while True:
        runs.append(spawn(base, env))
        setups.append([runs[-1]["setup_s"]] + [spawn(setup_only, env)["setup_s"]
                                               for _ in range(SETUP_PER_RUN)])
        elapsed = time.monotonic() - started
        if len(runs) >= MIN_RUNS and elapsed * (len(runs) + 1) / len(runs) > budget:
            break
    traced = None
    if trace:
        spans = OUT / f"trace-{workload}-seed{seed}.json"
        traced = spawn(base + ["--trace", "1", "--spans", str(spans)], env)

    walls = [r["wall_s"] for r in runs]
    rss = [r["peak_rss_mb"] for r in runs]
    attempted = sum(r["jobs"] + r["probes"] for r in runs)
    failed = sum(len(r["failures"]) + len(r["probe_failures"]) for r in runs)
    median = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(min(group) for group in setups),
        "ops_ok_share": (attempted - failed) / attempted,
        "probe_s": statistics.median(r["probe_s"] for r in runs),
    }
    all_runs = runs + ([traced] if traced else [])
    job_failures = sorted({tuple(f) for r in all_runs for f in r["failures"]})
    probe_failures = sorted({tuple(f) for r in runs for f in r["probe_failures"]})
    wrong = [wrong_results(r["failures"], r["probe_failures"]) for r in all_runs]

    print(f"environment: nproc={machine['nproc']} python={machine['python']} numpy={machine['numpy']} "
          f"blas={machine['blas']} blas_threads={machine['blas_threads']} "
          + " ".join(f"{k}={v}" for k, v in machine["pinned_env"].items()))
    print(f"{workload} seed={seed}: {len(runs)} untraced runs of {runs[0]['jobs']} jobs "
          f"and {runs[0]['probes']} probes, {1 + SETUP_PER_RUN} set-ups next to each run")
    notes = {
        "wall_s": f"median of {len(walls)}{quartiles(walls)}",
        "peak_rss_mb": f"median of {len(rss)}{quartiles(rss)}",
        "setup_s": f"median of {len(setups)} per-run fastest set-ups; all set-ups"
                   f"{quartiles([x for group in setups for x in group])[1:]}",
        "ops_ok_share": f"{attempted - failed} of {attempted} jobs and probes succeeded; "
                        f"ops_failed_share {failed / attempted:.4g}",
    }
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<18} {median[m['name']]:.6g} {m['unit']:<6} {notes[m['name']]}")
    print(f"  probes (timed apart from wall_s): {median['probe_s']:.4g} s median per run")
    for name, stage, why in probe_failures:
        if stage == "run":
            print(f"    probe failed to run, as expected: {name}: {why}")
        else:
            print(f"  FAILED probe {name}: result rejected: {why}")
    for name, stage, why in job_failures:
        print(f"  FAILED {name} ({stage}): {why}")

    if trace:
        metrics = {m["name"]: (layer_metric(m["name"], traced, median), m["unit"]) for m in spec["per_layer"]}
        for name, (value, unit) in metrics.items():
            print(f"  {name:<40} {value:.6g} {unit}")
        top, overhead = traced["trace"]["top_level_s"], metrics["trace.overhead_s"][0]
        print(f"  top-level layer spans take {top:.4g} s, {top / traced['wall_s']:.1%} of the traced "
              f"wall_s ({traced['wall_s']:.4g} s); less the tracing overhead ({overhead:.4g} s) they "
              f"account for {(top - overhead) / median['wall_s']:.1%} of the untraced wall_s "
              f"({median['wall_s']:.4g} s)")
        print(f"  spans: {spans.relative_to(ROOT)}")
    else:
        metrics = {m["name"]: (median[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    correct = not any(wrong)
    result = {
        "correct": correct,
        "attempted": sum(r["jobs"] + r["probes"] for r in all_runs),
        "failed": sum(len(w) for w in wrong),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": machine, "walls": walls, "job_s": [r["job_s"] for r in runs],
              "peak_rss_mb": rss, "setups": setups,
              "job_failures": job_failures, "probe_failures": probe_failures, "result": result}
    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result, correct


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description="quadsum benchmark")
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "quadsum" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no quadsum package under {SRC}; run from a repository checkout\n")
        return 2

    all_correct = True
    for workload in names if args.workload == "all" else [args.workload]:
        try:
            result, correct = measure(workload, args.seed, args.seconds, bool(args.trace), spec)
        except BenchError as exc:
            sys.stderr.write(f"bench: {exc}\n")
            return 2
        all_correct &= correct
        print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
