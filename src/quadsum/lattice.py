"""Integer points on spheres Q(x,x) = n and on finite quadrics mod p.

Three independent counting paths are kept deliberately separate so they can
cross-check each other:

* ``enumerate_sphere``   -- depth-first search with budget pruning, visits
                            every point of one sphere in lexicographic order;
* ``enumerated_counts``  -- exhaustive sweep of the coordinate box, tallying
                            every lattice point of every sphere up to nmax;
* ``count_range``        -- d-fold additive convolution of the 1-d
                            square-counting sequence (no enumeration at all).

``orbit_census`` extends the convolution path with residue classes mod p;
it is the workhorse behind theta coefficients, histograms, and the
equidistribution experiments.  Q is diagonal, so a count is unchanged by the
signed coordinate permutations: it depends on a residue vector only through
its orbit under them, the multiset of its sign classes min(r, p - r).  The
convolution runs on those C(h + d - 1, d) class multisets, h = p//2 + 1,
with one contiguous count row per multiset, and the table is handed out in
that layout: ``rows`` is its transposed view, read as ``rows[n, k]``, and
``rank`` maps each of the p**d residues to its multiset column, so a reader
gathers only the columns it needs, or folds a function onto the orbits.
Counts are held in int32 while the overflow bound of the build admits it and
in int64 after (``orbit_census``), so a table and its expansion take 4 bytes
a cell wherever every count is known to fit in 31 bits.
``residue_census`` expands the whole table to p**d columns, one gathered
orbit count column per residue; no library path calls it, it is the
per-residue oracle of the tests and the benchmark checks, and it keeps
nothing.  Only the most recent orbit table is kept: callers work on one
(d, p) at a time (a decay study and the check that reads it back, a growth
scan), so no older table is reused.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gamma, isqrt, pi
from typing import Callable, Optional

import numpy as np

from .arith import require_prime
from .errors import ResourceLimitError, ValidationError
from .limits import BOX_POINT_CAP, CENSUS_CELL_CAP, ENTRY_CAP, POINT_CAP, RANGE_NMAX_CAP

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
    d: int, n: int, visit: Optional[Callable[[LatticePoint], None]] = None
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
    if _ball_point_estimate(d, n) > POINT_CAP:
        raise ResourceLimitError(
            f"projected point count for d={d}, n={n} exceeds cap {POINT_CAP}"
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


def enumerated_counts(d: int, nmax: int) -> np.ndarray:
    """r_d(0..nmax) by exhaustive enumeration of the box |x_i| <= sqrt(nmax).

    Every lattice point in the box is generated and binned by its squared
    norm, so this is a genuine enumeration oracle (vectorized over the last
    three coordinates); it shares no code with the convolution path.
    """
    if d < 1:
        raise ValidationError(f"enumerated_counts requires d >= 1, got {d}")
    if nmax < 0:
        raise ValidationError(f"enumerated_counts requires nmax >= 0, got {nmax}")
    if _ball_point_estimate(d, nmax) > BOX_POINT_CAP:
        raise ResourceLimitError(
            f"projected point count for d={d}, nmax={nmax} exceeds cap {BOX_POINT_CAP}"
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


def count_range(d: int, nmax: int) -> np.ndarray:
    """r_d(0..nmax) via d-fold convolution of the square-counting sequence.

    Counts are held in int64; inputs whose counts could exceed the 64-bit
    range are rejected up front rather than silently wrapping.
    """
    if d < 1:
        raise ValidationError(f"count_range requires d >= 1, got {d}")
    if nmax < 0:
        raise ValidationError(f"count_range requires nmax >= 0, got {nmax}")
    if nmax > RANGE_NMAX_CAP:
        raise ResourceLimitError(f"count_range memory cap exceeded: nmax={nmax}")
    s = isqrt(nmax)
    if (2 * s + 1) ** d > 2**63 - 1:
        raise ResourceLimitError(
            f"counts for d={d}, nmax={nmax} may exceed the 64-bit cap"
        )
    acc = np.zeros(nmax + 1, dtype=np.int64)
    acc[0] = 1
    for _ in range(d):
        # the t = 0 term, then the shifts of the +-t terms, each adding a
        # slice of one doubled pass
        new = acc.copy()
        twice = 2 * acc
        for t in range(1, s + 1):
            tsq = t * t
            new[tsq:] += twice[: nmax + 1 - tsq]
        acc = new
    return acc


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

_kept_census: Optional[tuple[int, int, np.ndarray, np.ndarray]] = None


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


def quadric_indices(p: int, d: int, a: int) -> np.ndarray:
    """Encoded indices of X_{p,d}(a), sorted ascending."""
    require_prime(p, "quadric_indices")
    if d < 1:
        raise ValidationError(f"quadric_indices requires d >= 1, got {d}")
    mod = quadric_modulus(p)
    if not 0 <= a < mod:
        raise ValidationError(f"level a={a} out of range for modulus {mod}")
    if p**d > ENTRY_CAP:
        raise ResourceLimitError(f"p**d = {p**d} exceeds entry cap {ENTRY_CAP}")
    return np.nonzero(qmod_vector(p, d) == a)[0]


def quadric_points(p: int, d: int, a: int) -> list[tuple[int, ...]]:
    """The point set X_{p,d}(a) as residue tuples (a mod 4 when p = 2)."""
    idx = quadric_indices(p, d, a)
    return [decode_index(int(e), p, d) for e in idx]


def orbit_census(d: int, nmax: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The census on class multisets: ``(rows, rank)``, where ``rows`` is the
    (nmax+1, C(h+d-1, d)) table and ``rank[e]`` the column of residue e, so
    that ``rows[n, rank[e]]`` counts x in Z^d with Q(x,x) = n and x = e mod p
    (base-p encoded).  Both arrays are read-only.  ``rows`` is the transposed
    view of the orbit-major build table, so ``rows[:, k]`` is one contiguous
    count column of orbit k; nothing is copied.

    Negating or permuting coordinates keeps Q, so the count at e depends only
    on the multiset of sign classes c(e_i) = min(e_i, p - e_i), of which there
    are h = p//2 + 1: the multisets are the orbits of the signed coordinate
    permutations on (Z/pZ)^d.  The table is built with one row per class
    multiset, in colex order (largest class slowest), so the rows whose largest
    class is at most c form a leading slice.  Each axis pass puts the new
    axis's class c on top: the new rows with largest class c are that slice
    with c added, and each t = 0..s of class c(t mod p) adds the slice shifted
    by t^2 into their block, twice when t > 0 and -t = t mod p.  So a pass
    works on C(h+k-1, k) rows, not the h**k ordered class tuples, and every
    shifted add is a contiguous row slice.

    Each pass takes the narrowest integer type its overflow bound admits.  A
    new entry sums at most 2s + 1 non-negative entries of the previous pass,
    so no entry, and no partial sum on the way to it, exceeds the previous
    maximum times 2s + 1.  The pass is int32 when that bound is at most
    2**31 - 1, int64 when it is at most 2**63 - 1, and refused past that.
    The maximum never falls from pass to pass, so a build is int32 up to
    some pass and int64 after it, and ``rows`` has the width of the last.

    Only the most recent table is kept, as callers reuse nothing older: the
    same (d, p) with no larger nmax gets a view of it, any other request drops
    it before the new table is built, so the module never holds two.
    """
    global _kept_census
    if d < 1 or nmax < 0:
        raise ValidationError(f"orbit_census got d={d}, nmax={nmax}")
    require_prime(p, "orbit_census")
    h = p // 2 + 1
    cells = (nmax + 1) * comb(h + d - 1, d) + p**d
    if cells > CENSUS_CELL_CAP:
        raise ResourceLimitError(f"orbit census of {cells} cells exceeds cap {CENSUS_CELL_CAP}")
    if _kept_census is not None and _kept_census[:2] == (d, p) and _kept_census[2].shape[0] > nmax:
        return _kept_census[2][: nmax + 1], _kept_census[3]
    _kept_census = None  # free the old table before the new one is allocated
    s = isqrt(nmax)
    classes = np.arange(h)
    r = np.arange(p)
    cls = np.minimum(r, p - r)  # sign class c(r) of each residue
    table = np.zeros((1, nmax + 1), dtype=np.int32)
    table[0, 0] = 1
    top = np.zeros(1, dtype=np.int64)  # largest class of each row's multiset
    rank = np.zeros(1, dtype=np.int64)  # multiset row of each residue vector of the axes done
    insert = offs = None
    for _ in range(d):
        bound = int(table.max()) * (2 * s + 1)  # no entry of the new pass exceeds it
        if bound > 2**63 - 1:
            raise ResourceLimitError("census counts may exceed the 64-bit cap")
        upto = np.searchsorted(top, classes, side="right")  # rows with largest class <= c
        before, offs = offs, np.concatenate(([0], np.cumsum(upto)))  # block of largest class c
        width = np.int32 if bound <= 2**31 - 1 else np.int64
        new = np.zeros((offs[-1], nmax + 1), dtype=width)
        for t in range(s + 1):
            tsq = t * t
            c = cls[t % p]
            weight = 2 if t and 2 * t % p == 0 else 1  # -t lies in t's residue too
            for _ in range(weight):
                new[offs[c] : offs[c + 1], tsq:] += table[: upto[c], : nmax + 1 - tsq]
        # new row of (row i's multiset plus class c): row i of block c when c is
        # not below i's largest class; else that class stays on top, and c joins
        # the rest, row i - before[top[i]] of the previous pass's table
        prior, insert = insert, offs[:-1] + np.arange(len(top))[:, None]
        i, c = np.nonzero(top[:, None] > classes)
        if len(i):
            insert[i, c] = offs[top[i]] + prior[i - before[top[i]], c]
        rank = insert.T[cls][:, rank].reshape(-1)  # the new axis is the slowest digit
        table, top = new, np.repeat(classes, upto)
    table.setflags(write=False)
    rank.setflags(write=False)
    _kept_census = (d, p, table.T, rank)
    return table.T, rank


def residue_census(d: int, nmax: int, p: int) -> np.ndarray:
    """(nmax+1, p**d) table: entry [n, e] counts x in Z^d with Q(x,x) = n and
    x = e mod p (base-p encoded).  The returned array is read-only.

    It is the orbit census expanded by one gather of whole orbit count
    columns, the one of each residue's multiset, returned as the transposed
    view of the (p**d, nmax+1) gathered table; so it has the orbit table's
    width: int32 when the build's overflow bound kept every pass within 31
    bits, else int64.  The expanded table is built afresh on each call and
    never kept.
    No library path calls it: it is the per-residue oracle that the tests and
    the benchmark checks compare the orbit readers with.
    """
    if d < 1 or nmax < 0:
        raise ValidationError(f"residue_census got d={d}, nmax={nmax}")
    require_prime(p, "residue_census")
    cells = (nmax + 1) * p**d
    if cells > CENSUS_CELL_CAP:
        raise ResourceLimitError(f"census table of {cells} cells exceeds cap {CENSUS_CELL_CAP}")
    rows, rank = orbit_census(d, nmax, p)
    arr = np.take(rows.T, rank, axis=0)
    arr.setflags(write=False)
    return arr.T


def residue_histogram(d: int, n: int, p: int) -> dict[tuple[int, ...], int]:
    """Counts of X_d(n) points by residue class mod p, (pZ)^d included: the
    class of the origin holds r_d(n / p^2) points when p^2 | n and 0
    otherwise (``equidist._level_support`` is where they are excluded)."""
    require_prime(p, "residue_histogram", odd=True)
    rows, rank = orbit_census(d, n, p)
    row = rows[n][rank]
    return {decode_index(int(e), p, d): int(row[e]) for e in np.nonzero(row)[0]}
