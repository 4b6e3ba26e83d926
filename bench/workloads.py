"""The three benchmark workloads: seeded inputs, the job list, and the oracle
each job's result is checked against.

A workload is built from its seed alone.  The seed picks concrete inputs from
fixed-shape distributions (a range start, test-function seeds, a real part
of tau), so the work per run does not depend on it.  Every job pairs a call
into quadsum with a check that raises ``Rejected`` when an oracle disagrees.
Oracles are the independent paths the package keeps for this purpose
(census row sums, the divisor formula for r_4, direct A_d sums, the S(r,w)
vanishing predicate) plus two exact references written here: the 2-adic
density from primitive solution counts mod 8, and the divisor formula for
r_8 used by a probe.

A job whose result is also produced elsewhere in the same workload (a CLI
command over a library call, a main-term band over its sampled singular
series) is checked against that earlier job's result once the earlier one has
passed its own oracle, so a check never repeats layer work.

Probe jobs are valid inputs that fail at the time the benchmark was written.
They run after the timed job list.  Their failure to run counts only toward
``ops_ok_share``; a result they do return must still pass its oracle.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from quadsum import cli, density, equidist, lattice, theta
from quadsum.limits import DEFAULT_PRIME_CUTOFF


class Rejected(Exception):
    """An oracle rejected a job's result."""


def expect(cond, what: str) -> None:
    if not cond:
        raise Rejected(what)


def keeping(kept: dict, key, check: Callable[[object], None]) -> Callable[[object], None]:
    """``check``, then keep the result under ``key`` for a later job's check."""
    def check_and_keep(result) -> None:
        check(result)
        kept[key] = result
    return check_and_keep


def reference(kept: dict, key):
    """The kept result of an earlier job; rejects when that job failed."""
    expect(key in kept, f"no checked result for {key} to compare with")
    return kept[key]


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    jobs: list[Job]
    probes: list[Job]


# ---------------------------------------------------------------------------
# reference arithmetic (independent of quadsum)
# ---------------------------------------------------------------------------


def ref_primes(n: int) -> list[int]:
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for q in range(2, math.isqrt(n) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, n + 1, q)))
    return [i for i, f in enumerate(flags) if f]


def ref_is_prime(n: int) -> bool:
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def largest_prime_factor(n: int) -> int:
    best, q = 1, 2
    while q * q <= n:
        while n % q == 0:
            best, n = q, n // q
        q += 1
    return max(best, n) if n > 1 else best


@lru_cache(maxsize=None)
def _primitive_counts_mod8(d: int) -> tuple[int, ...]:
    """Number of x in (Z/8)^d with an odd coordinate, by Q(x) mod 8."""
    acc = {(0, False): 1}
    for _ in range(d):
        new: dict = {}
        for (s, odd), c in acc.items():
            for t in range(8):
                key = ((s + t * t) % 8, odd or t % 2 == 1)
                new[key] = new.get(key, 0) + c
        acc = new
    return tuple(acc.get((m, True), 0) for m in range(8))


def density2(d: int, n: int) -> float:
    """delta_{2,d}(n), exactly up to rounding.

    Primitive solutions lift uniformly from mod 8 (Hensel for p = 2), and the
    solutions with every coordinate even are 2y with Q(y) = n/4, which give
    delta(4m) = 2^{2-d} delta(m) + primitive(4m).
    """
    total, scale = 0.0, 1.0
    while True:
        total += scale * _primitive_counts_mod8(d)[n % 8] / 8.0 ** (d - 1)
        if n % 4:
            return total
        n //= 4
        scale *= 2.0 ** (2 - d)


def density_direct(p: int, d: int, n: int) -> float:
    """delta_{p,d}(n) for odd p as the direct sum of A_d(p^h, n), h <= ord + 2."""
    o = 0
    while n % p ** (o + 1) == 0:
        o += 1
    return sum(density.a_coeff_direct(d, p**h, n) for h in range(o + 3)).real


def r8(n: int) -> int:
    """r_8(n) = 16 sum_{k | n} (-1)^{n+k} k^3."""
    return 16 * sum((-1) ** (n + k) * k**3 for k in range(1, n + 1) if n % k == 0)


def arch_factor(d: int, n: int) -> float:
    return math.pi ** (d / 2) / math.gamma(d / 2) * n ** (d / 2 - 1)


def close(got: complex, want: complex, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


# ---------------------------------------------------------------------------
# CLI jobs: integers compare byte for byte, reals within a relative tolerance
# ---------------------------------------------------------------------------

_COMPLEX = re.compile(r"^(-?[0-9.]+e-?[0-9]+)([+-])([0-9.]+e-?[0-9]+)i$")


def number(field: str) -> complex:
    m = _COMPLEX.match(field)
    if m:
        im = float(m.group(3))
        return complex(float(m.group(1)), -im if m.group(2) == "-" else im)
    return float(field)


def cli_job(tracer, name: str, argv: list[str], check: Callable[[list[dict]], None]) -> Job:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
        text = out.getvalue()
        tracer.add("cli.output_bytes", len(text.encode()))
        expect(rc == 0, f"exit {rc}: {err.getvalue().strip()}")
        return list(csv.DictReader(io.StringIO(text)))

    return Job(name, run, check)


def same_ints(row: dict, want: dict) -> None:
    for key, value in want.items():
        want_text = "" if value is None else str(int(value))
        expect(row[key] == want_text, f"{key}: {row[key]!r} != {want_text!r}")


def near(row: dict, key: str, want: complex, rtol: float = 1e-9, atol: float = 1e-12) -> None:
    got = number(row[key])
    expect(close(got, want, rtol, atol), f"{key}: {got!r} vs {want!r}")


# ---------------------------------------------------------------------------
# circle-method: density and arith; lattice only through count_range
# ---------------------------------------------------------------------------

BAND_LEN = 320
BAND_SAMPLES = 4  # singular series checked on their own, main terms compared at them
P2_VALUATIONS = range(15)
ODD_SAMPLE = 12


def _check_counts(d: int, nmax: int, counts) -> None:
    expect(counts.shape == (nmax + 1,), f"shape {counts.shape}")
    rows = lattice.residue_census(d, nmax, 2).sum(axis=1)
    expect(np.array_equal(counts, rows), "count_range differs from census row sums")
    if d == 4:
        bad = [n for n in range(1, nmax + 1) if int(counts[n]) != lattice.r4_jacobi(n)]
        expect(not bad, f"r_4 differs from the divisor formula at n={bad[:3]}")


def _check_band(d: int, band: range, kept: dict, values: list) -> None:
    expect(len(values) == len(band), f"{len(values)} values")
    counts = reference(kept, ("count_range", d))
    ratios = [int(counts[n]) / v for n, v in zip(band, values)]
    share = sum(0.6 <= r <= 1.6 for r in ratios) / len(ratios)
    expect(share >= 0.95, f"only {share:.1%} of r_d(n)/main_term in [0.6, 1.6]")
    for n in band[:: len(band) // BAND_SAMPLES]:
        series = reference(kept, ("singular_series", d, n)).value
        v = values[n - band[0]]
        expect(close(v, arch_factor(d, n) * series, 1e-12), f"main_term({d}, {n}) = {v}")


def _check_density(p: int, d: int, n: int, rep) -> None:
    expect((rep.p, rep.d, rep.n) == (p, d, n), "report for another input")
    want = density2(d, n) if p == 2 else density_direct(p, d, n)
    expect(close(rep.delta, want, 1e-9, 1e-9), f"delta_{p},{d}({n}) = {rep.delta}, oracle {want}")


def _check_singular(d: int, n: int, val) -> None:
    bound = max(DEFAULT_PRIME_CUTOFF, largest_prime_factor(n))
    expect(list(val.factors) == ref_primes(bound), "Euler product over the wrong primes")
    expect(close(val.value, math.prod(val.factors.values()), 1e-12), "value != product of factors")
    expect(close(val.factors[2], density2(d, n), 1e-9, 1e-9), "2-adic factor")
    for p in (3, 5, 7):
        expect(close(val.factors[p], density_direct(p, d, n), 1e-9, 1e-9), f"{p}-adic factor")


def _check_mainterm_row(d: int, n: int, rows: list[dict]) -> float:
    """Integer fields and main_term = arch * singular; returns main_term."""
    expect(len(rows) == 1, f"{len(rows)} rows")
    same_ints(rows[0], {"d": d, "n": n, "prime_cutoff": DEFAULT_PRIME_CUTOFF})
    main = number(rows[0]["main_term"])
    near(rows[0], "singular", main / arch_factor(d, n))
    return main


def _check_mainterm_cli(d: int, band: range, n: int, kept: dict, rows: list[dict]) -> None:
    want = reference(kept, ("main_term", d))[n - band[0]]
    expect(close(_check_mainterm_row(d, n, rows), want), f"main_term {rows[0]['main_term']} vs {want!r}")


def _check_singular_cli(d: int, n: int, kept: dict, rows: list[dict]) -> None:
    expect(len(rows) == 1, f"{len(rows)} rows")
    same_ints(rows[0], {"d": d, "n": n, "prime_cutoff": DEFAULT_PRIME_CUTOFF})
    near(rows[0], "value", reference(kept, ("singular_series", d, n)).value)


def _check_density_cli(p: int, d: int, n: int, rows: list[dict]) -> None:
    expect(rows, "no rows")
    want = density2(d, n) if p == 2 else density_direct(p, d, n)
    for h, row in enumerate(rows):
        same_ints(row, {"p": p, "d": d, "n": n, "h": h})
        near(row, "delta", want, 1e-9, 1e-9)
        if p != 2:
            near(row, "term", density.a_coeff_direct(d, p**h, n), 1e-8, 1e-8)
    expect(close(sum(number(r["term"]) for r in rows).real, want, 1e-9, 1e-9), "terms do not sum to delta")


def _check_acoeff_cli(d: int, p: int, hmax: int, nmax: int, rows: list[dict]) -> None:
    expect(len(rows) == hmax * nmax, f"{len(rows)} rows")
    for row, (h, n) in zip(rows, ((h, n) for h in range(1, hmax + 1) for n in range(1, nmax + 1))):
        same_ints(row, {"d": d, "p": p, "h": h, "n": n})
        direct = density.a_coeff_direct(d, p**h, n)
        near(row, "a_direct", direct)
        near(row, "a_closed", direct, 0.0, cli.ACOEFF_TOL)
        expect(row["match"] == "true", f"acoeff h={h} n={n} mismatch")


def _check_repnum_cli(nmax: int, rows: list[dict]) -> None:
    expect(len(rows) == nmax + 1, f"{len(rows)} rows")
    for n, row in enumerate(rows):
        r4 = lattice.r4_jacobi(n) if n else 1
        same_ints(row, {"n": n, "r_enum": r4, "r_conv": r4, "r_jacobi": r4 if n else None})
        expect(row["match"] == "true", f"repnum n={n} mismatch")


def _check_count8(sample: list[int], counts) -> None:
    expect(int(counts[0]) == 1, "r_8(0) != 1")
    for n in sample:
        expect(int(counts[n]) == r8(n), f"r_8({n}) = {counts[n]}, divisor formula {r8(n)}")


def _check_mainterm_probe(d: int, n: int, rows: list[dict]) -> None:
    ratio = int(lattice.count_range(d, n)[n]) / _check_mainterm_row(d, n, rows)
    expect(0.6 <= ratio <= 1.6, f"r_{d}({n}) / main term = {ratio}")


def circle_method(seed: int, tracer) -> Workload:
    rng = random.Random(seed)
    kept: dict = {}
    # A long band from a narrow span of starts keeps the number of primes
    # main_term sieves over, and so the work, nearly the same for every seed.
    start = rng.randrange(1024, 1056)
    band = range(start, start + BAND_LEN)
    jobs = [
        Job(f"count_range d={d} nmax={band[-1]}", partial(lattice.count_range, d, band[-1]),
            keeping(kept, ("count_range", d), partial(_check_counts, d, band[-1])))
        for d in (4, 5, 6)
    ]
    for d in (5, 6):
        for n in band[:: BAND_LEN // BAND_SAMPLES]:
            jobs.append(Job(f"singular_series d={d} n={n}", partial(density.singular_series, d, n),
                            keeping(kept, ("singular_series", d, n), partial(_check_singular, d, n))))
        jobs.append(Job(f"main_term band d={d} n={start}..{band[-1]}",
                        lambda d=d: [density.main_term(d, n) for n in band],
                        keeping(kept, ("main_term", d), partial(_check_band, d, band, kept))))
    for d in (5, 6):
        for v in P2_VALUATIONS:
            n = (2 * rng.randrange(512) + 1) * 2**v
            jobs.append(Job(f"local_density p=2 d={d} n={n}", partial(density.local_density, 2, d, n),
                            partial(_check_density, 2, d, n)))
    for _ in range(ODD_SAMPLE):
        p = rng.choice((3, 5, 7, 11, 13))
        d = rng.randrange(3, 9)
        o = rng.randrange(4 if p < 7 else 3)
        n = p**o * rng.choice([u for u in range(1, 400) if u % p])
        jobs.append(Job(f"local_density p={p} d={d} n={n}", partial(density.local_density, p, d, n),
                        partial(_check_density, p, d, n)))
    for d, lo in ((5, 100_000), (6, 150_000)):
        n = next(m for m in range(lo + rng.randrange(1000), 2 * lo) if ref_is_prime(m))
        jobs.append(Job(f"singular_series d={d} n={n}", partial(density.singular_series, d, n),
                        partial(_check_singular, d, n)))

    n_mt = rng.choice(band)
    n_sg = rng.randrange(2, 5000)
    jobs.append(Job(f"singular_series d=6 n={n_sg}", partial(density.singular_series, 6, n_sg),
                    keeping(kept, ("singular_series", 6, n_sg), partial(_check_singular, 6, n_sg))))
    n_d2 = (2 * rng.randrange(512) + 1) * 2 ** rng.randrange(11)
    n_d3 = 3 ** rng.randrange(4) * rng.choice([u for u in range(1, 400) if u % 3])
    d_ac = rng.randrange(3, 9)
    jobs += [
        cli_job(tracer, f"cli mainterm d=5 n={n_mt}", ["mainterm", "--d", "5", "--n", str(n_mt)],
                partial(_check_mainterm_cli, 5, band, n_mt, kept)),
        cli_job(tracer, f"cli singular d=6 n={n_sg}", ["singular", "--d", "6", "--n", str(n_sg)],
                partial(_check_singular_cli, 6, n_sg, kept)),
        cli_job(tracer, f"cli density p=2 d=5 n={n_d2}",
                ["density", "--p", "2", "--d", "5", "--n", str(n_d2)],
                partial(_check_density_cli, 2, 5, n_d2)),
        cli_job(tracer, f"cli density p=3 d=6 n={n_d3}",
                ["density", "--p", "3", "--d", "6", "--n", str(n_d3)],
                partial(_check_density_cli, 3, 6, n_d3)),
        cli_job(tracer, f"cli acoeff d={d_ac} p=3",
                ["acoeff", "--d", str(d_ac), "--p", "3", "--hmax", "3", "--nmax", "20"],
                partial(_check_acoeff_cli, d_ac, 3, 3, 20)),
        cli_job(tracer, "cli repnum d=4 nmax=300", ["repnum", "--d", "4", "--nmax", "300"],
                partial(_check_repnum_cli, 300)),
    ]

    # Valid inputs that fail today: the 2-adic partial sum needs the modulus
    # 2^21 (above q_cap), and the static 64-bit guard rejects d=8, nmax=10^5.
    sample8 = sorted(rng.sample(range(1, 10**5 + 1), 4)) + [10**5]
    probes = [
        cli_job(tracer, "probe cli mainterm d=5 n=65536", ["mainterm", "--d", "5", "--n", "65536"],
                partial(_check_mainterm_probe, 5, 65536)),
        Job("probe count_range d=8 nmax=100000", partial(lattice.count_range, 8, 10**5),
            partial(_check_count8, sample8)),
    ]
    return Workload(jobs, probes)


# ---------------------------------------------------------------------------
# theta-identities: theta evaluation on top of the residue census
# ---------------------------------------------------------------------------

LIGHT_CELLS = ((3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (11, 2))
HEAVY_CELLS = ((3, 8), (5, 5), (7, 4), (11, 3))
WEAK_MOD_P = 3


def _check_residuals(expected_rows: int, tol: float, rows) -> None:
    expect(len(rows) == expected_rows, f"{len(rows)} residual rows, expected {expected_rows}")
    for r in rows:
        expect(math.isfinite(abs(r.lhs)) and math.isfinite(abs(r.rhs)), f"{r.label}: non-finite")
        expect(close(r.residual, abs(r.lhs - r.rhs) / max(1.0, abs(r.rhs)), 1e-9, 0.0),
               f"{r.label}: residual does not match lhs/rhs")
        expect(r.residual < tol, f"{r.label}: residual {r.residual:.3e} >= {tol}")


def _generator_table(p: int, d: int, s: int, tau: complex) -> list:
    f = theta.random_even_function(p, d, s)
    return [theta.verify_poisson(f, tau)] + theta.verify_generator_actions(f, tau)


def _poisson(p: int, d: int, s: int, tau: complex) -> list:
    return [theta.verify_poisson(theta.random_even_function(p, d, s), tau)]


def _weak_modularity(d: int, s: int, tau: complex) -> list:
    f = theta.random_even_function(WEAK_MOD_P, d, s)
    return [theta.verify_weak_modularity(f, g, tau)
            for g in (((1, 1), (0, 1)), ((1, 0), (4 * WEAK_MOD_P**2, 1)))]


def _check_theta_verify_cli(p: int, rows: list[dict]) -> None:
    expect(len(rows) == 2 * p + 5, f"{len(rows)} rows")
    for row in rows:
        tol = cli.WEAK_MOD_TOL if row["check"] == "weak-modularity" else cli.TABLE1_TOL
        lhs, rhs, residual = number(row["lhs"]), number(row["rhs"]), number(row["residual"])
        near(row, "tol", tol, 0.0, 0.0)
        expect(close(residual, abs(lhs - rhs) / max(1.0, abs(rhs)), 1e-6, 1e-15),
               f"{row['label']}: residual does not match lhs/rhs")
        expect(residual < tol and row["pass"] == "true", f"{row['label']}: residual {residual}")


def theta_identities(seed: int, tracer) -> Workload:
    rng = random.Random(seed)
    # |x| above about 0.05 moves the 3^8 census into the next 64-row radius
    # bucket, so x stays below that and peak memory is the same for every seed.
    x = rng.uniform(-0.03, 0.03)
    taus = (1j, 0.5j, complex(x, 1.0))
    jobs = []
    for p, d in LIGHT_CELLS:
        for s in (rng.randrange(2**31), rng.randrange(2**31)):
            for tau in taus:
                jobs.append(Job(f"generator_table p={p} d={d} seed={s} tau={tau}",
                                partial(_generator_table, p, d, s, tau),
                                partial(_check_residuals, 2 * p + 3, cli.TABLE1_TOL)))
    for p, d in HEAVY_CELLS:
        s1, s2 = rng.randrange(2**31), rng.randrange(2**31)
        jobs.append(Job(f"generator_table p={p} d={d} seed={s1} tau={taus[2]}",
                        partial(_generator_table, p, d, s1, taus[2]),
                        partial(_check_residuals, 2 * p + 3, cli.TABLE1_TOL)))
        jobs.append(Job(f"poisson p={p} d={d} seed={s2} tau={taus[2]}",
                        partial(_poisson, p, d, s2, taus[2]),
                        partial(_check_residuals, 1, cli.TABLE1_TOL)))
    # Im(g tau) = Im(tau) / |c tau + 1|^2 sets the census radius; a small
    # real part keeps it, and so the work, the same for every seed.
    for d, tau in ((4, complex(x, 1.0)), (6, complex(x / 10, 0.25))):
        s = rng.randrange(2**31)
        jobs.append(Job(f"weak_modularity p={WEAK_MOD_P} d={d} seed={s} tau={tau}",
                        partial(_weak_modularity, d, s, tau),
                        partial(_check_residuals, 2, cli.WEAK_MOD_TOL)))
    s = rng.randrange(2**31)
    jobs.append(cli_job(tracer, f"cli theta-verify p=3 d=4 seed={s}",
                        ["theta-verify", "--p", "3", "--d", "4", "--tau", "0+1i", "--seed", str(s)],
                        partial(_check_theta_verify_cli, 3)))
    return Workload(jobs, [])


# ---------------------------------------------------------------------------
# equidist-sweep: census growth and row reads, cusp criterion, no theta sums
# ---------------------------------------------------------------------------

KMIN = 6
# (d, p, level, parity, last kmax): kmax grows one step per job, and every
# step asks for a larger census of the same (d, p).
DECAY_CELLS = ((5, 3, 1, None, 13), (5, 3, 0, None, 13), (5, 5, 2, None, 11), (4, 5, 1, "odd", 13))
CUSP_CELLS = ((3, 4), (3, 5), (5, 3), (5, 4), (7, 3), (7, 4))
GROWTH_CELLS = ((5, 3, 2000), (4, 5, 2000))


def _admissible(d: int, p: int, a: int, parity, counts, lo: int, hi: int) -> int:
    """Number of n in [lo, hi) that decay_study samples, from r_d alone."""
    total = 0
    for n in range(lo, hi):
        if n % p != a or (parity == "odd" and n % 2 == 0):
            continue
        points = int(counts[n])
        if a == 0 and n % (p * p) == 0:
            points -= int(counts[n // (p * p)])  # drop (pZ)^d
        total += points > 0
    return total


def _census_row_by_enumeration(d: int, p: int, n: int) -> np.ndarray:
    row = np.zeros(p**d, dtype=np.int64)
    weights = [p**i for i in range(d)]

    def visit(x):
        row[sum((c % p) * w for c, w in zip(x, weights))] += 1

    lattice.enumerate_sphere(d, n, visit)
    return row


def _check_decay(d: int, p: int, a: int, parity, kmax: int, last: bool, rows) -> None:
    windows = equidist.dyadic_windows(KMIN, kmax)
    expect(len(rows) == len(windows), f"{len(rows)} windows")
    nmax = windows[-1][1] - 1
    counts = lattice.count_range(d, nmax)
    census = lattice.residue_census(d, nmax, p)
    expect(np.array_equal(census.sum(axis=1), counts), "census row sums differ from count_range")
    for row, (lo, hi) in zip(rows, windows):
        expect((row.lo, row.hi) == (lo, hi), f"window [{row.lo}, {row.hi})")
        want = _admissible(d, p, a, parity, counts, lo, hi)
        expect(row.samples == want, f"[{lo}, {hi}): {row.samples} samples, expected {want}")
        expect(0.0 <= row.median_tv <= row.max_tv <= 1.0, f"[{lo}, {hi}): TV out of range")
    meds = [r.median_tv for r in rows]
    expect(all(meds[i + 1] <= 1.10 * meds[i] for i in range(len(meds) - 1)), f"no decay: {meds}")
    if len(meds) >= 4:
        expect(1.5 * meds[-1] <= meds[0], f"decay factor below 1.5: {meds}")
    if last:
        n0 = next(n for n in range(windows[0][0], windows[0][1]) if n % p == a and n % 2)
        expect(np.array_equal(census[n0], _census_row_by_enumeration(d, p, n0)),
               f"census row {n0} differs from enumeration")


def _cusp_pair(p: int, d: int, s: int, cusp: bool) -> tuple[bool, bool]:
    f = (theta.random_cusp_function if cusp else theta.random_even_function)(p, d, s)
    return theta.cusp_check(f).is_cusp, theta.srw_vanishing(f, 3)


def _check_cusp(cusp: bool, result) -> None:
    expect(result == (cusp, cusp), f"cusp_check / srw_vanishing = {result}, expected {cusp}")


def _growth(p: int, d: int, s: int, nmax: int):
    f = theta.random_cusp_function(p, d, s)
    return f, equidist.coeff_growth_scan(f, d, nmax)


def _check_growth(d: int, nmax: int, result) -> None:
    f, rows = result
    expect([r.n for r in rows] == list(range(1, nmax + 1)), "rows for the wrong n")
    for r in rows[:12]:
        row = _census_row_by_enumeration(d, f.p, r.n)
        want = abs(complex(row @ f.values))
        expect(close(r.abs_c, want, 1e-9, 1e-9), f"|c_{r.n}| = {r.abs_c}, enumeration {want}")
    for r in rows:
        expect(close(r.hecke_ratio, r.abs_c / r.n ** (d / 4), 1e-12), f"hecke ratio at n={r.n}")
        expect(close(r.kloosterman_ratio, r.abs_c / r.n**0.75, 1e-12), f"ratio at n={r.n}")


def _check_equidist_cli(kept: dict, key: tuple, rows: list[dict]) -> None:
    ref = reference(kept, key)
    expect(len(rows) == len(ref), f"{len(rows)} rows")
    for row, w in zip(rows, ref):
        same_ints(row, {"lo": w.lo, "hi": w.hi, "samples": w.samples})
        expect(row["under_sampled"] == ("true" if w.under_sampled else "false"), "under_sampled")
        near(row, "median_tv", w.median_tv)
        near(row, "max_tv", w.max_tv)


def _check_growth_cli(nmax: int, kept: dict, key: tuple, rows: list[dict]) -> None:
    ref = reference(kept, key)[1][:nmax]
    expect(len(rows) == nmax == len(ref), f"{len(rows)} rows")
    for row, w in zip(rows, ref):
        same_ints(row, {"n": w.n})
        near(row, "abs_c", w.abs_c)
        near(row, "abs_c_over_n_d4", w.hecke_ratio)
        near(row, "abs_c_over_n_34", w.kloosterman_ratio)


def _check_srw_cli(p: int, d: int, rmax: int, kept: dict, key: tuple, rows: list[dict]) -> None:
    expect(reference(kept, key) == (True, True), "srw_vanishing did not hold for this function")
    expect(len(rows) == sum(p**r for r in range(rmax + 1)), f"{len(rows)} rows")
    i = 0
    for r in range(rmax + 1):
        scale = float(p ** ((max(r, 1) - 1) * d))
        for w in range(p**r):
            row = rows[i]
            i += 1
            same_ints(row, {"r": r, "w": w})
            normalized = number(row["normalized"])
            near(row, "abs_value", normalized * scale)
            expect(normalized < 1e-8, f"S({r},{w}) does not vanish for a cusp function")


def _check_cusp_cli(p: int, d: int, s: int, kept: dict, key: tuple, rows: list[dict]) -> None:
    expect(len(rows) == 1, f"{len(rows)} rows")
    same_ints(rows[0], {"p": p, "d": d, "seed": s})
    expect(reference(kept, key) == (True, True) and rows[0]["is_cusp"] == "true",
           "cusp-check disagrees with srw_vanishing")


def equidist_sweep(seed: int, tracer) -> Workload:
    rng = random.Random(seed)
    kept: dict = {}
    jobs = []
    for kmax in range(KMIN, max(c[-1] for c in DECAY_CELLS) + 1):
        for d, p, a, parity, last in DECAY_CELLS:
            if kmax <= last:
                jobs.append(Job(f"decay_study d={d} p={p} a={a} kmax={kmax}",
                                partial(equidist.decay_study, d, p, a,
                                        equidist.dyadic_windows(KMIN, kmax), parity),
                                keeping(kept, ("decay_study", d, p, a, kmax),
                                        partial(_check_decay, d, p, a, parity, kmax, kmax == last))))
    seeds = {}
    for p, d in CUSP_CELLS:
        for cusp in (True, False):
            s = seeds[p, d, cusp] = rng.randrange(2**31)
            jobs.append(Job(f"cusp p={p} d={d} seed={s} {'cusp' if cusp else 'even'}",
                            partial(_cusp_pair, p, d, s, cusp),
                            keeping(kept, ("cusp", p, d, cusp), partial(_check_cusp, cusp))))
    for d, p, nmax in GROWTH_CELLS:
        s = seeds[p, d, "growth"] = rng.randrange(2**31)
        jobs.append(Job(f"coeff_growth_scan d={d} p={p} seed={s}", partial(_growth, p, d, s, nmax),
                        keeping(kept, ("growth", d, p), partial(_check_growth, d, nmax))))
    # Each CLI command repeats a library job above, with the same inputs, and
    # is compared with that job's checked result.  a = 1 because at a = 0 every
    # distance is exactly zero, which would leave the real columns unchecked.
    a = 1
    s_growth, s_srw, s_cusp = seeds[3, 5, "growth"], seeds[5, 3, True], seeds[5, 4, True]
    jobs += [
        cli_job(tracer, f"cli equidist d=5 p=3 a={a}",
                ["equidist", "--d", "5", "--p", "3", "--a", str(a), "--kmin", str(KMIN), "--kmax", "10"],
                partial(_check_equidist_cli, kept, ("decay_study", 5, 3, a, 10))),
        cli_job(tracer, f"cli growth d=5 p=3 seed={s_growth}",
                ["growth", "--d", "5", "--p", "3", "--nmax", "300", "--seed", str(s_growth)],
                partial(_check_growth_cli, 300, kept, ("growth", 5, 3))),
        cli_job(tracer, f"cli srw p=5 d=3 seed={s_srw}",
                ["srw", "--p", "5", "--d", "3", "--rmax", "3", "--kind", "random-cusp", "--seed", str(s_srw)],
                partial(_check_srw_cli, 5, 3, 3, kept, ("cusp", 5, 3, True))),
        cli_job(tracer, f"cli cusp-check p=5 d=4 seed={s_cusp}",
                ["cusp-check", "--p", "5", "--d", "4", "--kind", "random-cusp", "--seed", str(s_cusp)],
                partial(_check_cusp_cli, 5, 4, s_cusp, kept, ("cusp", 5, 4, True))),
    ]
    return Workload(jobs, [])


WORKLOADS = {
    "circle-method": circle_method,
    "theta-identities": theta_identities,
    "equidist-sweep": equidist_sweep,
}
