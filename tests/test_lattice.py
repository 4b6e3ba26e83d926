"""Lattice counting tests: the three independent counting paths against each
other, quadric point sets, and residue histograms."""

import gc
import tracemalloc
import weakref
from math import comb, isqrt

import numpy as np
import pytest

from quadsum.errors import ResourceLimitError, ValidationError
from quadsum.lattice import (
    count_range,
    encode_residues,
    enumerate_sphere,
    enumerated_counts,
    orbit_census,
    quadric_indices,
    quadric_modulus,
    quadric_points,
    r4_jacobi,
    residue_census,
    residue_histogram,
)


def test_enumerate_sphere_unit_vectors():
    pts = []
    res = enumerate_sphere(3, 1, pts.append)
    assert res.count == 6
    assert set(pts) == {
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    }
    assert pts == sorted(pts)  # lexicographic visit order


def test_enumerate_sphere_examples():
    # permutations of (+-1, +-1, +-1, 0): 4 positions for the zero, 2^3 signs
    assert enumerate_sphere(4, 3).count == 32
    for d in (1, 2, 5):
        pts = []
        assert enumerate_sphere(d, 0, pts.append).count == 1
        assert pts == [(0,) * d]


def test_enumerate_sphere_counts_match_with_and_without_visitor():
    for d in (1, 2, 3, 4):
        for n in (0, 1, 2, 7, 25, 40):
            pts = []
            assert enumerate_sphere(d, n, pts.append).count == len(pts)
            assert enumerate_sphere(d, n).count == len(pts)
            assert len(set(pts)) == len(pts)


def test_enumerate_sphere_validation_and_cap():
    with pytest.raises(ValidationError):
        enumerate_sphere(0, 5)
    with pytest.raises(ValidationError):
        enumerate_sphere(3, -1)
    with pytest.raises(ResourceLimitError):
        enumerate_sphere(6, 10**6)


def test_count_range_one_dimensional_squares():
    assert count_range(1, 9).tolist() == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2]


def test_count_range_powers_of_two_d4():
    counts = count_range(4, 16)
    assert [int(counts[n]) for n in (2, 4, 8, 16)] == [24, 24, 24, 24]


def test_count_range_agrees_with_enumeration_d5():
    counts = count_range(5, 100)
    for n in range(101):
        assert int(counts[n]) == enumerate_sphere(5, n).count


def test_count_range_matches_the_weighted_shift_sum():
    # each pass adds slices of one doubled array to a copy of the last; the
    # reference forms w * acc for every shift t
    for d in range(1, 8):
        for nmax in (0, 1, 5, 100, 1351, 16383):
            s = isqrt(nmax)
            acc = np.zeros(nmax + 1, dtype=np.int64)
            acc[0] = 1
            for _ in range(d):
                new = np.zeros(nmax + 1, dtype=np.int64)
                for t in range(s + 1):
                    new[t * t:] += (1 if t == 0 else 2) * acc[: nmax + 1 - t * t]
                acc = new
            assert np.array_equal(count_range(d, nmax), acc), (d, nmax)


def _width_of(top):
    """The narrowest of int16, int32 and int64 that holds 0..top."""
    return next(w for w in (np.int16, np.int32, np.int64) if top <= np.iinfo(w).max)


def test_count_range_crosses_every_width_and_returns_int64():
    # pass k runs at the width of max r_{k-1} * (2s + 1), s = 44: passes 1-3
    # fit int16, 4-6 int32, 7-8 need int64; the counts come back as int64
    nmax, d = 2000, 8
    tops = [1] + [int(count_range(k, nmax).max()) for k in range(1, d)]
    bounds = [top * (2 * isqrt(nmax) + 1) for top in tops]
    assert {_width_of(b) for b in bounds} == {np.int16, np.int32, np.int64}
    counts = count_range(d, nmax)
    assert counts.dtype == np.int64
    for n in (1, 2, 3, 4, 17, 255, 1000, 1999, 2000):
        assert int(counts[n]) == _jacobi_r8(n)


def test_count_range_overflow_precheck():
    with pytest.raises(ResourceLimitError):
        count_range(8, 10**6)


def test_enumerated_counts_matches_convolution():
    for d in (1, 2, 3, 4, 5):
        nmax = 200 if d < 5 else 60
        assert (enumerated_counts(d, nmax) == count_range(d, nmax)).all()


def test_r4_jacobi_examples():
    assert r4_jacobi(1) == 8
    assert r4_jacobi(2) == 24
    assert r4_jacobi(3) == 32
    assert r4_jacobi(9) == 104
    with pytest.raises(ValidationError):
        r4_jacobi(0)


def test_r4_jacobi_matches_enumeration():
    counts = count_range(4, 300)
    for n in range(1, 301):
        assert r4_jacobi(n) == int(counts[n])


def test_quadric_points_examples():
    assert set(quadric_points(3, 2, 1)) == {(1, 0), (2, 0), (0, 1), (0, 2)}
    assert quadric_points(3, 2, 0) == [(0, 0)]
    # p = 2: levels live in Z/4Z, counts by popcount
    assert [len(quadric_points(2, 3, a)) for a in range(4)] == [1, 3, 3, 1]


def test_quadric_points_partition():
    for p in (2, 3, 5, 7):
        for d in range(1, 6):
            mod = 4 if p == 2 else p
            total = sum(len(quadric_points(p, d, a)) for a in range(mod))
            assert total == p**d


def test_quadric_points_lie_on_their_level():
    for p in (2, 3, 5):
        mod = quadric_modulus(p)
        for d in range(1, 5):
            for a in range(mod):
                for x in quadric_points(p, d, a):
                    assert sum(c * c for c in x) % mod == a


def test_quadric_points_rejects_bad_level():
    with pytest.raises(ValidationError):
        quadric_points(3, 2, 3)
    with pytest.raises(ValidationError):
        quadric_points(2, 3, 4)
    with pytest.raises(ValidationError):
        quadric_points(4, 2, 1)


def test_residue_census_matches_enumeration():
    for (d, nmax, p) in [(2, 60, 3), (3, 40, 5), (4, 25, 3), (5, 12, 3), (2, 30, 2)]:
        census = residue_census(d, nmax, p)
        for n in (0, 1, nmax // 2, nmax):
            hist = {}

            def visit(pt):
                e = encode_residues(pt, p)
                hist[e] = hist.get(e, 0) + 1

            enumerate_sphere(d, n, visit)
            row = census[n]
            assert {e: int(row[e]) for e in np.nonzero(row)[0]} == hist


def test_orbit_census_keeps_only_the_latest_table():
    first, rank = orbit_census(3, 40, 5)
    kept = weakref.ref(first if first.base is None else first.base)
    again, again_rank = orbit_census(3, 20, 5)
    assert np.shares_memory(again, first) and np.array_equal(again, first[:21])
    assert again_rank is rank
    del first, again
    orbit_census(2, 10, 3)
    gc.collect()
    assert kept() is None
    expanded = weakref.ref(residue_census(2, 10, 3))
    gc.collect()
    assert expanded() is None


def test_residue_histogram_example_unit_sphere():
    hist = residue_histogram(2, 1, 3)
    assert hist == {(1, 0): 1, (2, 0): 1, (0, 1): 1, (0, 2): 1}


def test_residue_histogram_origin():
    for (d, p) in [(2, 3), (4, 5)]:
        assert residue_histogram(d, 0, p) == {(0,) * d: 1}


def test_residue_histogram_exclusion_identity():
    # dropping (pZ)^d points removes exactly r_d(n/p^2) of them
    full = residue_histogram(4, 9, 3)
    assert sum(full.values()) == r4_jacobi(9)
    assert full[(0, 0, 0, 0)] == r4_jacobi(1)
    hist = {v: c for v, c in full.items() if v != (0, 0, 0, 0)}
    assert sum(hist.values()) == r4_jacobi(9) - r4_jacobi(1)


def test_residue_histogram_totals_random():
    rng = np.random.default_rng(7)
    counts_cache = {}
    for _ in range(50):
        d = int(rng.integers(2, 6))
        p = int(rng.choice([3, 5]))
        n = int(rng.integers(1, 501 if d <= 4 else 151))
        if (d, p) not in counts_cache:
            counts_cache[d, p] = count_range(d, 500)
        hist = residue_histogram(d, n, p)
        assert sum(hist.values()) == int(counts_cache[d, p][n])


def test_residue_histogram_negation_symmetry():
    for (d, n, p) in [(3, 35, 5), (4, 50, 3), (2, 25, 7)]:
        hist = residue_histogram(d, n, p)
        for v, c in hist.items():
            neg = tuple((-x) % p for x in v)
            assert hist[neg] == c


def test_residue_histogram_rejects_even_p():
    with pytest.raises(ValidationError):
        residue_histogram(3, 5, 2)


def test_residue_census_support_lies_on_quadric():
    for (d, p) in [(3, 3), (4, 5)]:
        census = residue_census(d, 50, p)
        for n in (1, 2, 30, 49):
            row = census[n]
            level = quadric_indices(p, d, n % p)
            outside = np.delete(np.arange(p**d), level)
            assert int(row[outside].sum()) == 0


def _census_by_residue(d, nmax, p):
    """The per-residue census build: 2s+1 shifted adds into all p residues
    on every axis, with no use of the sign symmetry."""
    s = isqrt(nmax)
    arr = np.zeros((nmax + 1, 1), dtype=np.int64)
    arr[0, 0] = 1
    stride = 1
    for _ in range(d):
        new = np.zeros((nmax + 1, stride * p), dtype=np.int64)
        for t in range(-s, s + 1):
            tsq = t * t
            r = t % p
            new[tsq:, r * stride : (r + 1) * stride] += arr[: nmax + 1 - tsq, :]
        arr = new
        stride *= p
    return arr


# Every (p, d, nmax) of the oracle grid whose table has at most 2**22 cells;
# under the cell cap alone one table could take gigabytes.
ORACLE_CELLS = 2**22
ORACLE_GRID = [
    (p, d, nmax)
    for p in (2, 3, 5, 7, 13)
    for d in range(1, 7)
    for nmax in sorted({0, 1, p * p, 50, 511})
    if (nmax + 1) * p**d <= ORACLE_CELLS
]
# d = 7, 8 at p = 2, 3: the table has only d + 1 class multisets, each
# standing for up to 1792 residue vectors
HIGH_DIMENSION = [(p, d, nmax) for p in (2, 3) for d in (7, 8) for nmax in (0, 9, 30)]


@pytest.mark.parametrize("p,d,nmax", ORACLE_GRID + HIGH_DIMENSION)
def test_residue_census_matches_per_residue_build(p, d, nmax):
    orbit_census(1, 0, 2)  # drop any kept table: a view of it has its width
    census = residue_census(d, nmax, p)
    assert census.shape == (nmax + 1, p**d) and census.dtype == _width_of(int(census.max()))
    assert not census.flags.writeable
    assert np.array_equal(census, _census_by_residue(d, nmax, p))


@pytest.mark.parametrize("p,d,nmax", ORACLE_GRID + HIGH_DIMENSION)
def test_orbit_census_expands_to_the_per_residue_build(p, d, nmax):
    rows, rank = orbit_census(d, nmax, p)
    assert rows.shape == (nmax + 1, comb(p // 2 + d, d)) and rank.shape == (p**d,)
    assert not rows.flags.writeable and not rank.flags.writeable
    assert np.array_equal(np.unique(rank), np.arange(rows.shape[1]))
    assert np.array_equal(rows[:, rank], _census_by_residue(d, nmax, p))
    assert np.array_equal(rows[:, rank], residue_census(d, nmax, p))


@pytest.mark.parametrize("p,d,nmax", ORACLE_GRID + HIGH_DIMENSION)
def test_residue_census_is_the_former_row_major_expansion(p, d, nmax):
    # the expansion as it was built while rows was a row-major copy of the
    # orbit table: copy, then gather columns; now whole orbit columns are
    # gathered from the build table, with the same counts and width
    rows, rank = orbit_census(d, nmax, p)
    former = np.take(np.ascontiguousarray(rows), rank, axis=1)
    census = residue_census(d, nmax, p)
    assert not census.flags.writeable
    assert census.dtype == former.dtype and np.array_equal(census, former)


def test_orbit_census_is_handed_out_in_its_build_layout():
    # rows is the transposed view of the orbit-major build table: one
    # contiguous count column per orbit, and no row-major copy.  A cold build
    # peaks at 1.73x its table and rank here; with the copy it peaked at 1.88x.
    residue_census(1, 0, 2)  # drop any kept table, so the census is built cold
    gc.collect()
    tracemalloc.start()
    try:
        rows, rank = orbit_census(6, 2 * 10**4, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.T.flags.c_contiguous and not rows.flags.writeable
    assert peak < 1.8 * (rows.nbytes + rank.nbytes)


def _jacobi_r8(n):
    """r_8(n) = 16 sum over k | n of (-1)^(n+k) k^3 (Jacobi's eight-square formula)."""
    return 16 * sum((-1) ** (n + k) * k**3 for k in range(1, n + 1) if n % k == 0)


def test_orbit_census_d8_fits_64_bits_to_nmax_65535():
    # the largest entry is about 7.3e12: the 64-bit check goes by the running
    # maximum of each axis pass, not by the (2s+1)^8 points of the box
    rows, rank = orbit_census(8, 2**16 - 1, 3)
    assert rows.dtype == np.int64
    sums = rows @ np.bincount(rank)
    for n in (1, 2, 3, 4, 1000, 4096, 12345, 65535):
        assert int(sums[n]) == _jacobi_r8(n)


# Tables whose counts fit in int32, 8 of them in int16: a seeded grid, then
# the largest of d = 6..8 at p = 2, 3, 5, whose entries reach up to a quarter
# of 2**31 - 1.
_rng = np.random.default_rng(2026)
INT32_GRID = [
    (int(_rng.integers(1, 7)), int(_rng.choice([2, 3, 5, 7])), int(_rng.integers(0, 2**14)))
    for _ in range(12)
] + [(6, 2, 2**14 - 1), (7, 2, 2047), (8, 2, 511), (7, 3, 4095), (8, 3, 2047), (7, 5, 8191), (8, 5, 4095)]


@pytest.mark.parametrize("d,p,nmax", INT32_GRID)
def test_orbit_census_in_int32_does_not_wrap(d, p, nmax):
    orbit_census(1, 0, 2)  # drop any kept table: a view of it has its width
    rows, rank = orbit_census(d, nmax, p)
    assert rows.dtype == _width_of(int(rows.max())) != np.int64
    assert np.array_equal(rows @ np.bincount(rank), count_range(d, nmax))


def test_residue_census_takes_four_bytes_a_cell():
    assert residue_census(5, 4095, 5).nbytes == 4 * 4096 * 5**5


def test_residue_census_takes_two_bytes_a_cell_below_2_15():
    # the largest count is 13440: the finished table is narrowed to int16
    orbit_census(1, 0, 2)  # drop the kept table: a view of it has its width
    assert residue_census(5, 2047, 5).nbytes == 2 * 2048 * 5**5


@pytest.mark.parametrize("nmax", [1023, 2047])
def test_orbit_census_widens_to_int64_at_its_last_pass(nmax):
    # the table after 7 passes is the d = 7 census, int32; its bound for the
    # last pass crosses 2**31 - 1, so that pass is int64.  At 1023 every
    # count still fits in 31 bits and the finished table drops back to
    # int32, at 2047 some do not.
    before = orbit_census(7, nmax, 2)[0]
    assert before.dtype == np.int32
    assert int(before.max()) * (2 * isqrt(nmax) + 1) > 2**31 - 1
    rows, rank = orbit_census(8, nmax, 2)
    assert rows.dtype == _width_of(int(rows.max())) == (np.int32 if nmax == 1023 else np.int64)
    assert np.array_equal(rows @ np.bincount(rank), count_range(8, nmax))
    assert np.array_equal(rows[:, rank], _census_by_residue(8, nmax, 2))


def test_orbit_census_refuses_counts_past_64_bits():
    with pytest.raises(ResourceLimitError, match="64-bit"):
        orbit_census(20, 10**4, 2)


def _permuted(census, p, d, perm):
    """The census with its residue columns moved by x -> perm(x)."""
    digits = np.indices((p,) * d).reshape(d, -1)[::-1]  # digits[i] = coordinate i
    moved = np.array(perm(digits))
    target = sum(moved[i] * p**i for i in range(d))
    return census[:, target]


@pytest.mark.parametrize("p,d", [(2, 3), (3, 4), (5, 3), (7, 2), (13, 2)])
def test_residue_census_is_even_and_symmetric_in_each_coordinate(p, d):
    census = np.array(residue_census(d, 200, p))

    def negate_last(x):
        return [*x[:-1], (-x[-1]) % p]

    def swap_first_two(x):
        return [x[1], x[0], *x[2:]]

    assert np.array_equal(_permuted(census, p, d, negate_last), census)
    assert np.array_equal(_permuted(census, p, d, swap_first_two), census)


@pytest.mark.parametrize("p,d", [(2, 5), (3, 4), (5, 4), (7, 3), (13, 2)])
def test_orbit_rank_is_constant_under_sign_flips_and_coordinate_swaps(p, d):
    rank = orbit_census(d, 0, p)[1][None, :]
    for i in range(d):
        def negate(x, i=i):
            return [*x[:i], (-x[i]) % p, *x[i + 1 :]]

        assert np.array_equal(_permuted(rank, p, d, negate), rank)
    for i in range(d - 1):
        def swap(x, i=i):
            return [*x[:i], x[i + 1], x[i], *x[i + 2 :]]

        assert np.array_equal(_permuted(rank, p, d, swap), rank)


def test_residue_census_peak_memory_stays_near_its_table():
    residue_census(1, 0, 2)  # drop any larger kept table first
    tracemalloc.start()
    try:
        census = residue_census(4, 2**14 - 1, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * census.nbytes


def test_residue_census_at_p2_peaks_near_its_table():
    # with h = p = 2 an ordered class table would be as large as the census
    residue_census(1, 0, 2)  # drop any larger kept table first
    tracemalloc.start()
    try:
        census = residue_census(7, 2**13 - 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * census.nbytes
