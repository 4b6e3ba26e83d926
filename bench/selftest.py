"""Self-test of the benchmark's checks: a corrupted result must be counted as
a failed job, and the same jobs must pass when nothing is corrupted.

Each case makes one quadsum function return a slightly wrong result (in every
namespace that binds it), runs a few jobs of one workload, and requires that
every one of them fails with an oracle rejection rather than a crash.  A last
case stands in for a later fix of the count_range probe that returns wrong
counts: the probe must then make the run incorrect, while today's failure to
run must not.

    PYTHONPATH=src python3 bench/selftest.py
"""

from __future__ import annotations

import sys
from dataclasses import replace

import numpy as np

from quadsum import cli, density, lattice, theta
from tracer import NullTracer, rebind
from worker import run_jobs, wrong_results
from workloads import WORKLOADS

SEED = 1


def _counts_off_by_one(fn):
    def corrupted(*args, **kwargs):
        counts = fn(*args, **kwargs).copy()
        counts[-1] += 1
        return counts
    return corrupted


def _census_off_by_one(fn):
    def corrupted(*args, **kwargs):
        table = fn(*args, **kwargs).copy()
        table[-1, 1] += 1
        return table
    return corrupted


def _density_scaled(fn):
    def corrupted(*args, **kwargs):
        rep = fn(*args, **kwargs)
        return replace(rep, delta=rep.delta * (1 + 1e-6))
    return corrupted


def _cusp_component_scaled(fn):
    def corrupted(f, j, *args, **kwargs):
        val = fn(f, j, *args, **kwargs)
        return replace(val, value=val.value * (1 + 1e-6)) if j == theta.INF else val
    return corrupted


def _cusp_flipped(fn):
    def corrupted(*args, **kwargs):
        chk = fn(*args, **kwargs)
        return replace(chk, is_cusp=not chk.is_cusp)
    return corrupted


def _real_format_shifted(fn):
    def corrupted(x):
        return fn(float(x) * (1 + 1e-6))
    return corrupted


# (workload, module, function, corruption, job-name prefixes that must fail,
#  prefixes of the earlier jobs whose kept results those jobs are compared with)
CASES = [
    ("circle-method", lattice, "count_range", _counts_off_by_one,
     ("count_range d=4", "count_range d=5", "cli repnum"), ()),
    ("circle-method", density, "local_density", _density_scaled,
     ("local_density p=2 d=5", "local_density p=3", "local_density p=5"), ()),
    ("circle-method", cli, "fmt_real", _real_format_shifted, ("cli mainterm", "cli singular"),
     ("count_range d=5", "singular_series", "main_term band d=5")),
    ("theta-identities", theta, "theta_j_eval_full", _cusp_component_scaled,
     ("generator_table p=3 d=2", "generator_table p=5 d=3"), ()),
    ("equidist-sweep", theta, "cusp_check", _cusp_flipped, ("cusp p=3", "cusp p=5 d=3"), ()),
    ("equidist-sweep", lattice, "residue_census", _census_off_by_one,
     ("decay_study d=5 p=3 a=1 kmax=7", "decay_study d=4 p=5 a=1 kmax=6"), ()),
    ("equidist-sweep", cli, "fmt_real", _real_format_shifted, ("cli equidist", "cli growth"),
     ("decay_study d=5 p=3", "coeff_growth_scan d=5")),
]


def _counts_without_guard(fn):
    """count_range as if the 64-bit guard were lifted, with wrong d = 8 counts."""
    def corrupted(d, nmax, *args, **kwargs):
        if d != 8:
            return fn(d, nmax, *args, **kwargs)
        counts = np.full(nmax + 1, 16, dtype=np.int64)
        counts[0] = 1
        return counts
    return corrupted


def selected(workload: str, prefixes: tuple[str, ...], probes: bool = False):
    built = WORKLOADS[workload](SEED, NullTracer())
    jobs = built.probes if probes else built.jobs
    return [job for job in jobs if job.name.startswith(prefixes)]


def probe_case() -> list[str]:
    """A probe that fails to run leaves the run correct; one whose result is
    rejected makes it incorrect."""
    problems = []
    label = "circle-method: count_range probe"
    today = run_jobs(selected("circle-method", ("probe count_range",), probes=True), NullTracer())
    if [f[1] for f in today] != ["run"] or wrong_results([], today):
        problems.append(f"{label}: expected one failure to run that leaves the run correct, got {today}")
    original = lattice.count_range
    corrupted = _counts_without_guard(original)
    rebind({id(original): corrupted})
    try:
        fixed = run_jobs(selected("circle-method", ("probe count_range",), probes=True), NullTracer())
    finally:
        rebind({id(corrupted): original})
    if [f[1] for f in fixed] != ["check"] or not wrong_results([], fixed):
        problems.append(f"{label}: a wrong result was not counted as a failed job: {fixed}")
    print(f"{label}: fails to run today ({len(today)} failure), "
          f"{len(wrong_results([], fixed))} rejected result when it returns wrong counts")
    return problems


def main() -> int:
    problems = []
    for workload, module, attr, corrupt, prefixes, earlier in CASES:
        label = f"{workload}: corrupted {module.__name__}.{attr}"
        clean = run_jobs(selected(workload, prefixes + earlier), NullTracer())
        if clean:
            problems.append(f"{label}: uncorrupted jobs failed: {clean}")
        original = getattr(module, attr)
        corrupted = corrupt(original)
        rebind({id(original): corrupted})
        try:
            failures = run_jobs(selected(workload, prefixes + earlier), NullTracer())
        finally:
            rebind({id(corrupted): original})
        jobs = [job.name for job in selected(workload, prefixes)]
        failed = {name: (stage, why) for name, stage, why in failures}
        missed = [name for name in jobs if name not in failed]
        crashed = [name for name in jobs if name in failed and not failed[name][1].startswith("Rejected")]
        if not jobs or missed or crashed:
            problems.append(f"{label}: {len(jobs)} jobs, not counted as failed: {missed}, "
                            f"failed without an oracle rejection: {crashed}")
        print(f"{label}: {len(jobs) - len(missed)} of {len(jobs)} jobs counted as failed")
    problems += probe_case()
    for p in problems:
        print("SELFTEST FAILED", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
