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

from .arith import is_prime
from .errors import EmptyMeasureError, ValidationError
from .lattice import decode_index, quadric_indices, residue_census
from .limits import DEFAULT_CENSUS_CELL_CAP
from .theta import TestFunction, cusp_check, theta_coeffs


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Normalized residue histogram of X_d(n) on the quadric level a = n mod p.

    For a = 0 the points of (pZ)^d are excluded and the origin is removed
    from the support, so the comparison measure is uniform on the punctured
    quadric.
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


def empirical_measure(
    d: int, n: int, p: int, cell_cap: int = DEFAULT_CENSUS_CELL_CAP
) -> EmpiricalMeasure:
    if p == 2 or not is_prime(p):
        raise ValidationError(f"empirical_measure requires odd prime p, got {p}")
    if n < 1:
        raise ValidationError(f"empirical_measure requires n >= 1, got {n}")
    return _measure(p, d, n, residue_census(d, n, p, cell_cap)[n], _level_support(p, d, n % p))


def _level_support(p: int, d: int, a: int) -> np.ndarray:
    """Encoded indices of X_{p,d}(a), without the origin when a = 0."""
    support = quadric_indices(p, d, a)
    return support[support != 0] if a == 0 else support


def _measure(p: int, d: int, n: int, row: np.ndarray, support: np.ndarray) -> EmpiricalMeasure:
    """The measure of census row n on the support of its level."""
    a = n % p
    total = int(row.sum())
    if a == 0:
        total -= int(row[0])
    return EmpiricalMeasure(
        p=p, d=d, a=a, n=n, support=support,
        masses=row[support] / total if total else np.zeros(len(support)),
        points_counted=total, empty=total == 0,
    )


def tv_to_uniform(mu: EmpiricalMeasure) -> float:
    """Half the l1 distance between mu and the uniform measure on its support."""
    if mu.empty:
        raise EmptyMeasureError(f"no lattice points behind measure at n={mu.n}")
    uniform = 1.0 / len(mu.support)
    return 0.5 * float(np.abs(mu.masses - uniform).sum())


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
    if p == 2 or not is_prime(p):
        raise ValidationError(f"weyl_sum requires odd prime p, got {p}")
    if n < 1:
        raise ValidationError(f"weyl_sum requires n >= 1, got {n}")
    row = residue_census(d, n, p)[n]
    num = complex(row @ f.values)
    denom = int(row.sum())
    if n % p == 0:
        num -= int(row[0]) * complex(f.values[0])
        denom -= int(row[0])
    if denom == 0:
        raise EmptyMeasureError(f"no admissible lattice points at n={n}")
    return num / denom


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
    d: int,
    p: int,
    a: int,
    windows: Sequence[tuple[int, int]],
    parity: Optional[str] = None,
    min_samples: int = 30,
    cell_cap: int = DEFAULT_CENSUS_CELL_CAP,
) -> list[WindowSummary]:
    """Median and max TV discrepancy over n = a mod p in each window.

    For d = 4 the study must be restricted to odd n (the even orbits carry
    bounded representation numbers and cannot equidistribute), so the parity
    filter is mandatory there.  Windows with fewer than ``min_samples``
    admissible n are flagged under-sampled but still summarized.
    """
    if d < 4:
        raise ValidationError(f"decay_study requires d >= 4, got {d}")
    if p == 2 or not is_prime(p):
        raise ValidationError(f"decay_study requires odd prime p, got {p}")
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
    census = residue_census(d, max(hi for _, hi in windows) - 1, p, cell_cap)
    support = _level_support(p, d, a)
    out: list[WindowSummary] = []
    for lo, hi in windows:
        tvs: list[float] = []
        for n in range(lo + (a - lo) % p, hi, p):
            if parity == "odd" and n % 2 == 0:
                continue
            if parity == "even" and n % 2 == 1:
                continue
            mu = _measure(p, d, n, census[n], support)
            if mu.empty:
                continue
            tvs.append(tv_to_uniform(mu))
        out.append(
            WindowSummary(
                lo=lo, hi=hi, samples=len(tvs), under_sampled=not tvs or len(tvs) < min_samples,
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
