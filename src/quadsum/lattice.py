"""Integer points on spheres Q(x,x) = n and on finite quadrics mod p.

Three independent counting paths are kept deliberately separate so they can
cross-check each other:

* ``enumerate_sphere``   -- depth-first search with budget pruning, visits
                            every point of one sphere in lexicographic order;
* ``enumerated_counts``  -- exhaustive sweep of the coordinate box, tallying
                            every lattice point of every sphere up to nmax;
* ``count_range``        -- d-fold additive convolution of the 1-d
                            square-counting sequence (no enumeration at all).

``residue_census`` extends the convolution path with residue classes mod p;
it is the workhorse behind theta coefficients, histograms, and the
equidistribution experiments.  It keeps only the most recent table: callers
work on one (d, p) at a time (a decay study and the check that reads it back,
a growth scan), so no older table is reused, and one alone can take gigabytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma, isqrt, pi
from typing import Callable, Optional

import numpy as np

from .arith import is_prime
from .errors import ResourceLimitError, ValidationError
from .limits import DEFAULT_CENSUS_CELL_CAP, DEFAULT_ENTRY_CAP, DEFAULT_POINT_CAP

LatticePoint = tuple[int, ...]


@dataclass(frozen=True)
class SphereCount:
    d: int
    n: int
    count: int


def _ball_point_estimate(d: int, n: int) -> float:
    # volume of the radius-sqrt(n) ball plus a surface-term cushion
    if n == 0:
        return 1.0
    vol = pi ** (d / 2) * n ** (d / 2) / gamma(d / 2 + 1)
    return 1.5 * vol + (2 * isqrt(n) + 1) ** (d - 1) * d


def enumerate_sphere(
    d: int,
    n: int,
    visit: Optional[Callable[[LatticePoint], None]] = None,
    point_cap: int = DEFAULT_POINT_CAP,
) -> SphereCount:
    """Visit every x in Z^d with x_1^2 + ... + x_d^2 = n, in lexicographic
    order, and return the representation count r_d(n).

    With ``visit=None`` only the count is produced (the last coordinate is
    then resolved by a square test instead of being iterated).
    """
    if d < 1:
        raise ValidationError(f"enumerate_sphere requires d >= 1, got {d}")
    if n < 0:
        raise ValidationError(f"enumerate_sphere requires n >= 0, got {n}")
    if _ball_point_estimate(d, n) > point_cap:
        raise ResourceLimitError(
            f"projected point count for d={d}, n={n} exceeds cap {point_cap}"
        )
    count = 0
    prefix = [0] * d

    def rec(i: int, budget: int) -> None:
        nonlocal count
        if i == d - 1:
            t = isqrt(budget)
            if t * t != budget:
                return
            if visit is None:
                count += 1 if t == 0 else 2
                return
            for x in ((-t, t) if t else (0,)):
                prefix[i] = x
                count += 1
                visit(tuple(prefix))
            return
        m = isqrt(budget)
        for x in range(-m, m + 1):
            prefix[i] = x
            rec(i + 1, budget - x * x)

    rec(0, n)
    return SphereCount(d=d, n=n, count=count)


def enumerated_counts(d: int, nmax: int, point_cap: int = DEFAULT_POINT_CAP) -> np.ndarray:
    """r_d(0..nmax) by exhaustive enumeration of the box |x_i| <= sqrt(nmax).

    Every lattice point in the box is generated and binned by its squared
    norm, so this is a genuine enumeration oracle (vectorized over the last
    three coordinates); it shares no code with the convolution path.
    """
    if d < 1:
        raise ValidationError(f"enumerated_counts requires d >= 1, got {d}")
    if nmax < 0:
        raise ValidationError(f"enumerated_counts requires nmax >= 0, got {nmax}")
    if _ball_point_estimate(d, nmax) > point_cap:
        raise ResourceLimitError(
            f"projected point count for d={d}, nmax={nmax} exceeds cap {point_cap}"
        )
    s = isqrt(nmax)
    sq = np.arange(-s, s + 1, dtype=np.int64) ** 2
    d_tail = min(d, 3)
    q_tail = sq.copy()
    for _ in range(d_tail - 1):
        q_tail = (q_tail[:, None] + sq[None, :]).ravel()
        q_tail = q_tail[q_tail <= nmax]  # prune: keeps memory near ball volume
    counts = np.zeros(nmax + 1, dtype=np.int64)
    n_head = d - d_tail

    def sweep(i: int, hsum: int) -> None:
        if i == n_head:
            vals = q_tail[q_tail <= nmax - hsum] + hsum
            counts[:] += np.bincount(vals, minlength=nmax + 1)
            return
        m = isqrt(nmax - hsum)
        for x in range(-m, m + 1):
            sweep(i + 1, hsum + x * x)

    sweep(0, 0)
    return counts


def count_range(d: int, nmax: int, count_cap: int = 2**63 - 1) -> np.ndarray:
    """r_d(0..nmax) via d-fold convolution of the square-counting sequence.

    Counts are held in int64; inputs whose counts could exceed ``count_cap``
    are rejected up front rather than silently wrapping.
    """
    if d < 1:
        raise ValidationError(f"count_range requires d >= 1, got {d}")
    if nmax < 0:
        raise ValidationError(f"count_range requires nmax >= 0, got {nmax}")
    if nmax > 10**8:
        raise ResourceLimitError(f"count_range memory cap exceeded: nmax={nmax}")
    s = isqrt(nmax)
    if (2 * s + 1) ** d > count_cap:
        raise ResourceLimitError(
            f"counts for d={d}, nmax={nmax} may exceed the 64-bit cap"
        )
    acc = np.zeros(nmax + 1, dtype=np.int64)
    acc[0] = 1
    for _ in range(d):
        new = np.zeros(nmax + 1, dtype=np.int64)
        for t in range(0, s + 1):
            w = 1 if t == 0 else 2
            tsq = t * t
            new[tsq:] += w * acc[: nmax + 1 - tsq]
        acc = new
    return acc


def representation_count(d: int, n: int) -> int:
    """r_d(n) for a single n (convolution path)."""
    return int(count_range(d, n)[n])


def r4_jacobi(n: int) -> int:
    """r_4(n) = 8 (2 + (-1)^n) * sum of odd divisors of n, exactly."""
    if n < 1:
        raise ValidationError(f"r4_jacobi requires n >= 1, got {n}")
    m = n
    while m % 2 == 0:
        m //= 2
    # sigma(m) over the odd part, via trial division
    sigma = 1
    f = 3
    mm = m
    while f * f <= mm:
        if mm % f == 0:
            pk = 1
            term = 1
            while mm % f == 0:
                mm //= f
                pk *= f
                term += pk
            sigma *= term
        f += 2
    if mm > 1:
        sigma *= 1 + mm
    return 8 * (2 + (1 if n % 2 == 0 else -1)) * sigma


# ---------------------------------------------------------------------------
# residue machinery mod p
# ---------------------------------------------------------------------------

_kept_census: Optional[tuple[int, int, np.ndarray]] = None


def encode_residues(coords: tuple[int, ...], p: int) -> int:
    """Base-p encoding of a residue vector, coordinate 0 least significant."""
    e = 0
    for i, v in enumerate(coords):
        e += (v % p) * p**i
    return e


def decode_index(e: int, p: int, d: int) -> tuple[int, ...]:
    out = []
    for _ in range(d):
        out.append(e % p)
        e //= p
    return tuple(out)


def qmod_vector(p: int, d: int) -> np.ndarray:
    """Q(x,x) at every residue vector, the outer sum of the 1-d squares over
    the coordinates: mod p for odd p, mod 4 for p = 2 (the value of the
    integer sum of bits is well defined mod 4)."""
    q = sq = np.arange(p, dtype=np.int64) ** 2
    for _ in range(d - 1):
        q = np.add.outer(q, sq)
    return q.reshape(-1) % quadric_modulus(p)


def quadric_modulus(p: int) -> int:
    """Level modulus of the finite quadric: p for odd p, 4 for p = 2."""
    return 4 if p == 2 else p


def quadric_indices(p: int, d: int, a: int, entry_cap: int = DEFAULT_ENTRY_CAP) -> np.ndarray:
    """Encoded indices of X_{p,d}(a), sorted ascending."""
    if not is_prime(p):
        raise ValidationError(f"quadric_indices requires prime p, got {p}")
    if d < 1:
        raise ValidationError(f"quadric_indices requires d >= 1, got {d}")
    mod = quadric_modulus(p)
    if not 0 <= a < mod:
        raise ValidationError(f"level a={a} out of range for modulus {mod}")
    if p**d > entry_cap:
        raise ResourceLimitError(f"p**d = {p**d} exceeds entry cap {entry_cap}")
    return np.nonzero(qmod_vector(p, d) == a)[0]


def quadric_points(p: int, d: int, a: int, entry_cap: int = DEFAULT_ENTRY_CAP) -> list[tuple[int, ...]]:
    """The point set X_{p,d}(a) as residue tuples (a mod 4 when p = 2)."""
    idx = quadric_indices(p, d, a, entry_cap)
    return [decode_index(int(e), p, d) for e in idx]


def residue_census(
    d: int,
    nmax: int,
    p: int,
    cell_cap: int = DEFAULT_CENSUS_CELL_CAP,
) -> np.ndarray:
    """(nmax+1, p**d) table: entry [n, e] counts x in Z^d with Q(x,x) = n and
    x = e mod p (base-p encoded).  The returned array is read-only.

    Only the most recent table is kept, as callers reuse nothing older: the
    same (d, p) with no larger nmax gets a view of it, any other request drops
    it before building its own from scratch, so the module never holds two.
    """
    global _kept_census
    if d < 1 or nmax < 0:
        raise ValidationError(f"residue_census got d={d}, nmax={nmax}")
    if not is_prime(p):
        raise ValidationError(f"residue_census requires prime p, got {p}")
    cells = (nmax + 1) * p**d
    if cells > cell_cap:
        raise ResourceLimitError(f"census table of {cells} cells exceeds cap {cell_cap}")
    s = isqrt(nmax)
    if (2 * s + 1) ** d > 2**63 - 1:
        raise ResourceLimitError("census counts may exceed the 64-bit cap")
    if _kept_census is not None and _kept_census[:2] == (d, p) and _kept_census[2].shape[0] > nmax:
        return _kept_census[2][: nmax + 1]
    _kept_census = None  # free the old table before the new one is allocated
    arr = np.zeros((nmax + 1, 1), dtype=np.int64)
    arr[0, 0] = 1
    stride = 1
    for _ in range(d):
        new = np.zeros((nmax + 1, stride * p), dtype=np.int64)
        for t in range(-s, s + 1):
            tsq = t * t
            if tsq > nmax:
                continue
            r = t % p
            new[tsq:, r * stride : (r + 1) * stride] += arr[: nmax + 1 - tsq, :]
        arr = new
        stride *= p
    arr.setflags(write=False)
    _kept_census = (d, p, arr)
    return arr


def residue_histogram(
    d: int,
    n: int,
    p: int,
    exclude_pzd: bool = False,
    cell_cap: int = DEFAULT_CENSUS_CELL_CAP,
) -> dict[tuple[int, ...], int]:
    """Counts of X_d(n) points by residue class mod p.

    With ``exclude_pzd`` the points lying in (pZ)^d (all coordinates divisible
    by p) are omitted; their count is r_d(n / p^2) when p^2 | n and 0 otherwise.
    """
    if p == 2 or not is_prime(p):
        raise ValidationError(f"residue_histogram requires odd prime p, got {p}")
    row = residue_census(d, n, p, cell_cap)[n]
    out: dict[tuple[int, ...], int] = {}
    for e in np.nonzero(row)[0]:
        if exclude_pzd and e == 0:
            continue
        out[decode_index(int(e), p, d)] = int(row[e])
    return out
