"""Empirical equidistribution of sphere points mod p: normalized residue
histograms against the uniform measure on the finite quadric, Weyl sums for
test functions, windowed decay studies, and coefficient-growth tables.

The convergence statement being measured is about test-function averages; on
a finite support total variation metrizes the same convergence, so TV (plus
the sup deviation) is the reported discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Optional, Sequence

import numpy as np

from .arith import require_prime
from .errors import EmptyMeasureError, ValidationError
from .lattice import decode_index, orbit_census, quadric_indices
from .limits import ENTRY_CAP
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
    support, counts, total = _level_counts(d, n, p)
    return EmpiricalMeasure(
        p=p, d=d, a=n % p, n=n, support=support,
        masses=counts / total if total else np.zeros(len(support)),
        points_counted=total, empty=total == 0,
    )


def _level_support(p: int, d: int, a: int) -> np.ndarray:
    """Encoded indices of X_{p,d}(a), without the origin when a = 0.  Census
    row n, n = a mod p, is zero off X(a), so the row read here holds every
    point of X_d(n) but those of (pZ)^d: the one home of that exclusion."""
    support = quadric_indices(p, d, a)
    return support[support != 0] if a == 0 else support


def _level_counts(d: int, n: int, p: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The level support of n, census row n read on it, and its total."""
    support = _level_support(p, d, n % p)
    rows, rank = orbit_census(d, n, p)
    counts = rows[n][rank[support]]
    return support, counts, int(counts.sum())


def _tv(deviations: np.ndarray) -> np.ndarray:
    """Half the sum of each row of ``deviations``, the |mass - uniform| of a
    measure in support order: every row is summed alone, along its contiguous
    axis, so a row's TV does not depend on the rows read with it."""
    return 0.5 * deviations.sum(axis=-1)


def tv_to_uniform(mu: EmpiricalMeasure) -> float:
    """Half the l1 distance between mu and the uniform measure on its support."""
    if mu.empty:
        raise EmptyMeasureError(f"no lattice points behind measure at n={mu.n}")
    return float(_tv(np.abs(mu.masses - 1.0 / len(mu.support))))


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
    support, counts, total = _level_counts(d, n, p)
    if total == 0:
        raise EmptyMeasureError(f"no admissible lattice points at n={n}")
    return complex((counts * f.values[support]).sum()) / total


@dataclass(frozen=True)
class WindowSummary:
    lo: int
    hi: int
    samples: int
    under_sampled: bool
    median_tv: Optional[float]  # None when the window holds no sampled n
    max_tv: Optional[float]


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
    admissible n are flagged under-sampled but still summarized; a window
    with none reports its median and max TV as None.

    The level support is a union of whole orbits, so each block of n reads
    the census on the level's orbit columns only and forms the deviations
    |c/T - 1/|X(a)|| there; they are expanded to the support only for the
    row sum, so each TV is the double ``tv_to_uniform`` gives at that n.
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
    support = _level_support(p, d, a)  # refuses p**d > ENTRY_CAP before a rank of p**d is built
    rows, rank = orbit_census(d, max(hi for _, hi in windows) - 1, p)
    # the level's orbit columns, m[j] support residues on column j, and the
    # column of each support residue (the origin's orbit is a singleton)
    cols = rank[support]
    per_orbit = np.bincount(cols)
    orbits = np.flatnonzero(per_orbit)
    m = per_orbit[orbits]
    inverse = (np.cumsum(per_orbit > 0) - 1)[cols]
    uniform = 1.0 / len(support)
    step = p if parity is None else 2 * p
    block = max(1, ENTRY_CAP // len(support))  # n per read: at most ENTRY_CAP expanded deviations
    out: list[WindowSummary] = []
    for lo, hi in windows:
        start = lo + (a - lo) % p
        if parity is not None and start % 2 != (parity == "odd"):
            start += p  # p is odd: the next n = a mod p has the other parity
        ns = np.arange(start, hi, step)
        tvs = []
        for i in range(0, len(ns), block):
            counts = rows[ns[i : i + block, None], orbits]
            totals = counts @ m
            sampled = totals > 0
            dev = np.abs(counts[sampled] / totals[sampled, None] - uniform)
            # C-contiguous rows: dev[:, inverse] is F-ordered and sums differently
            tvs += _tv(np.take(dev, inverse, axis=1)).tolist()
        out.append(
            WindowSummary(
                lo=lo, hi=hi, samples=len(tvs), under_sampled=not tvs or len(tvs) < MIN_SAMPLES,
                median_tv=median(tvs) if tvs else None,
                max_tv=max(tvs) if tvs else None,
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
