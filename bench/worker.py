"""One run of one workload in a fresh process: import quadsum, build the
seeded job list, run and check every job, then print one JSON line.

run.py starts this with a pinned environment and PYTHONPATH set to the
checkout's src/.  By hand, from the repository root:

    PYTHONPATH=src python3 bench/worker.py --workload circle-method --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_jobs(jobs, tracer, times: list | None = None) -> list[list[str]]:
    """Run each job and its check; return [name, stage, reason] for every
    failure, where stage is "run" when the call itself failed and "check"
    when its result was rejected.  Each job's duration, check included, is
    appended to ``times`` when it is given."""
    failures = []
    for job in jobs:
        started = time.perf_counter()
        stage = "run"
        try:
            with tracer.span("job." + job.name.split()[0]):
                result = job.run()
                stage = "check"
                with tracer.span("bench.verify"), tracer.paused():
                    job.check(result)
        except Exception as exc:  # any error fails this job only; the run goes on
            failures.append([job.name, stage, f"{type(exc).__name__}: {exc}"])
        if times is not None:
            times.append(time.perf_counter() - started)
    return failures


def wrong_results(job_failures, probe_failures) -> list:
    """The failures that make a run incorrect: every job failure, and each
    probe whose result an oracle rejected.  A probe that fails to run is the
    expected state and only counts toward ops_ok_share."""
    return list(job_failures) + [f for f in probe_failures if f[1] == "check"]


def blas_threads():
    """The thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "pinned_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    ap.add_argument("--environment", action="store_true",
                    help="with --setup-only, also report the environment")
    args = ap.parse_args()

    import quadsum

    if SRC not in Path(quadsum.__file__).resolve().parents:
        sys.stderr.write(f"quadsum was imported from {quadsum.__file__}, not from {SRC}\n")
        return 2
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install()  # before the workload binds any quadsum function
    workload = WORKLOADS[args.workload](args.seed, tracer)
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done, "env": environment() if args.environment else None}))
        return 0

    job_s: list[float] = []
    start = time.perf_counter()
    failures = run_jobs(workload.jobs, tracer, job_s)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # probes are timed apart and left out of the trace and of peak_rss_mb
    start = time.perf_counter()
    with tracer.paused():
        probe_failures = run_jobs(workload.probes, NullTracer())
    probe_s = time.perf_counter() - start

    result = {
        "setup_done": setup_done,
        "wall_s": wall_s,
        "job_s": job_s,
        "peak_rss_mb": peak_rss_mb,
        "jobs": len(workload.jobs),
        "failures": failures,
        "probes": len(workload.probes),
        "probe_failures": probe_failures,
        "probe_s": probe_s,
    }
    if args.trace:
        result["trace"] = {
            "totals": {k: [v[0], v[2]] for k, v in tracer.totals.items()},
            "values": dict(tracer.values),
            "top_level_s": tracer.top_level_s,
        }
        if args.spans:
            tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed, "wall_s": wall_s})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
