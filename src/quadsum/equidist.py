"""Empirical equidistribution of sphere points mod p: normalized residue
histograms against the uniform measure on the finite quadric, Weyl sums for
test functions, windowed decay studies, and coefficient-growth tables.

The convergence statement being measured is about test-function averages; on
a finite support total variation metrizes the same convergence, so TV (plus
the sup deviation) is the reported discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import median
from typing import Optional, Sequence

import numpy as np

from .arith import require_prime
from .errors import EmptyMeasureError, ValidationError
from .lattice import decode_index, quadric_indices, residue_census
from .theta import TestFunction, cusp_check, theta_coeffs

#: a decay-study window with fewer admissible n than this is flagged under-sampled
MIN_SAMPLES = 30


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Normalized residue histogram of X_d(n) on the quadric level a = n mod p.

    Census row n is zero off X(a), so the masses are that row read on
    ``_level_support``, which for a = 0 drops the origin: the points of
    (pZ)^d are excluded and the comparison is uniform on the punctured quadric.
    """

    p: int
    d: int
    a: int
    n: int
    support: np.ndarray  # encoded residue indices, ascending
    masses: np.ndarray  # same length as support; sums to 1 unless empty
    points_counted: int
    empty: bool

    def support_points(self) -> list[tuple[int, ...]]:
        return [decode_index(int(e), self.p, self.d) for e in self.support]


def empirical_measure(d: int, n: int, p: int) -> EmpiricalMeasure:
    require_prime(p, "empirical_measure", odd=True)
    if n < 1:
        raise ValidationError(f"empirical_measure requires n >= 1, got {n}")
    a = n % p
    support = _level_support(p, d, a)
    counts = residue_census(d, n, p)[n][support]
    total = int(counts.sum())
    return EmpiricalMeasure(
        p=p, d=d, a=a, n=n, support=support,
        masses=counts / total if total else np.zeros(len(support)),
        points_counted=total, empty=total == 0,
    )


def _level_support(p: int, d: int, a: int) -> np.ndarray:
    """Encoded indices of X_{p,d}(a), without the origin when a = 0.  Census
    row n, n = a mod p, is zero off X(a), so the row read here holds every
    point of X_d(n) but those of (pZ)^d: the one home of that exclusion."""
    support = quadric_indices(p, d, a)
    return support[support != 0] if a == 0 else support


def _tv(masses: np.ndarray, uniform: float) -> float:
    """Half the l1 distance between ``masses`` and the constant ``uniform``."""
    return 0.5 * float(np.abs(masses - uniform).sum())


def tv_to_uniform(mu: EmpiricalMeasure) -> float:
    """Half the l1 distance between mu and the uniform measure on its support."""
    if mu.empty:
        raise EmptyMeasureError(f"no lattice points behind measure at n={mu.n}")
    return _tv(mu.masses, 1.0 / len(mu.support))


def sup_deviation(mu: EmpiricalMeasure) -> float:
    if mu.empty:
        raise EmptyMeasureError(f"no lattice points behind measure at n={mu.n}")
    uniform = 1.0 / len(mu.support)
    return float(np.abs(mu.masses - uniform).max())


@dataclass(frozen=True)
class DiscrepancyRecord:
    d: int
    p: int
    a: int
    n: int
    points_counted: int
    tv: float
    sup_dev: float


def discrepancy_record(d: int, n: int, p: int) -> DiscrepancyRecord:
    mu = empirical_measure(d, n, p)
    return DiscrepancyRecord(
        d=d, p=p, a=mu.a, n=n, points_counted=mu.points_counted,
        tv=tv_to_uniform(mu), sup_dev=sup_deviation(mu),
    )


def weyl_sum(f: TestFunction, d: int, n: int) -> complex:
    """Normalized test-function average over the sphere points:
    (sum over X_d(n) of f(x mod p)) / r_d(n), with the (pZ)^d points dropped
    from both numerator and denominator when n = 0 mod p."""
    if f.d != d:
        raise ValidationError(f"test function has d={f.d}, asked for d={d}")
    p = f.p
    require_prime(p, "weyl_sum", odd=True)
    if n < 1:
        raise ValidationError(f"weyl_sum requires n >= 1, got {n}")
    support = _level_support(p, d, n % p)
    counts = residue_census(d, n, p)[n][support]
    total = int(counts.sum())
    if total == 0:
        raise EmptyMeasureError(f"no admissible lattice points at n={n}")
    return complex((counts * f.values[support]).sum()) / total


@dataclass(frozen=True)
class WindowSummary:
    lo: int
    hi: int
    samples: int
    under_sampled: bool
    median_tv: float
    max_tv: float


def dyadic_windows(kmin: int, kmax: int) -> list[tuple[int, int]]:
    """[2^k, 2^{k+1}) for k = kmin..kmax."""
    if kmin < 0 or kmax < kmin:
        raise ValidationError(f"bad window exponents kmin={kmin}, kmax={kmax}")
    return [(2**k, 2 ** (k + 1)) for k in range(kmin, kmax + 1)]


def decay_study(
    d: int, p: int, a: int, windows: Sequence[tuple[int, int]], parity: Optional[str] = None
) -> list[WindowSummary]:
    """Median and max TV discrepancy over n = a mod p in each window.

    For d = 4 the study must be restricted to odd n (the even orbits carry
    bounded representation numbers and cannot equidistribute), so the parity
    filter is mandatory there.  Windows with fewer than ``MIN_SAMPLES``
    admissible n are flagged under-sampled but still summarized.
    """
    if d < 4:
        raise ValidationError(f"decay_study requires d >= 4, got {d}")
    require_prime(p, "decay_study", odd=True)
    if not 0 <= a < p:
        raise ValidationError(f"level a={a} out of range mod {p}")
    if parity not in (None, "odd", "even"):
        raise ValidationError(f"parity must be 'odd', 'even' or None, got {parity!r}")
    if d == 4 and parity != "odd":
        raise ValidationError("decay_study with d = 4 requires parity='odd'")
    if not windows:
        raise ValidationError("at least one window is required")
    for lo, hi in windows:
        if lo < 1 or hi <= lo:
            raise ValidationError(f"bad window [{lo}, {hi})")
    census = residue_census(d, max(hi for _, hi in windows) - 1, p)
    support = _level_support(p, d, a)
    uniform = 1.0 / len(support)
    step = p if parity is None else 2 * p
    out: list[WindowSummary] = []
    for lo, hi in windows:
        tvs: list[float] = []
        start = lo + (a - lo) % p
        if parity is not None and start % 2 != (parity == "odd"):
            start += p  # p is odd: the next n = a mod p has the other parity
        for n in range(start, hi, step):
            counts = census[n][support]
            total = int(counts.sum())
            if total:
                tvs.append(_tv(counts / total, uniform))
        out.append(
            WindowSummary(
                lo=lo, hi=hi, samples=len(tvs), under_sampled=not tvs or len(tvs) < MIN_SAMPLES,
                median_tv=float(median(tvs)) if tvs else math.nan,
                max_tv=float(max(tvs)) if tvs else math.nan,
            )
        )
    return out


@dataclass(frozen=True)
class GrowthRow:
    n: int
    abs_c: float
    hecke_ratio: float  # |c_n| / n^{d/4}
    kloosterman_ratio: float  # |c_n| / n^{3/4}


def coeff_growth_scan(f: TestFunction, d: int, nmax: int) -> list[GrowthRow]:
    """Scaling table |c_n|, |c_n|/n^{d/4}, |c_n|/n^{3/4} for a cusp function.

    The two normalizations bracket the coefficient bounds relevant for d >= 5
    and d = 4; the table carries no pass/fail since the bounds are asymptotic
    with unspecified constants.
    """
    if f.d != d:
        raise ValidationError(f"test function has d={f.d}, asked for d={d}")
    if nmax < 1:
        raise ValidationError(f"coeff_growth_scan requires nmax >= 1, got {nmax}")
    check = cusp_check(f)
    if not check.is_cusp:
        raise ValidationError(
            f"coeff_growth_scan requires a cusp function ({check.failing_condition} fails)"
        )
    c = theta_coeffs(f, nmax).c
    rows = []
    for n in range(1, nmax + 1):
        ac = abs(c[n])
        rows.append(
            GrowthRow(
                n=n, abs_c=float(ac),
                hecke_ratio=float(ac / n ** (d / 4)),
                kloosterman_ratio=float(ac / n ** 0.75),
            )
        )
    return rows
