"""Lattice counting tests: the three independent counting paths against each
other, quadric point sets, and residue histograms."""

import gc
import weakref

import numpy as np
import pytest

from quadsum.errors import ResourceLimitError, ValidationError
from quadsum.lattice import (
    count_range,
    encode_residues,
    enumerate_sphere,
    enumerated_counts,
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


def test_residue_census_keeps_only_the_latest_table():
    first = residue_census(3, 40, 5)
    kept = weakref.ref(first if first.base is None else first.base)
    again = residue_census(3, 20, 5)
    assert np.shares_memory(again, first) and np.array_equal(again, first[:21])
    del first, again
    residue_census(2, 10, 3)
    gc.collect()
    assert kept() is None


def test_residue_histogram_example_unit_sphere():
    hist = residue_histogram(2, 1, 3)
    assert hist == {(1, 0): 1, (2, 0): 1, (0, 1): 1, (0, 2): 1}


def test_residue_histogram_origin():
    for (d, p) in [(2, 3), (4, 5)]:
        assert residue_histogram(d, 0, p) == {(0,) * d: 1}


def test_residue_histogram_exclusion_identity():
    # dropping (pZ)^d points removes exactly r_d(n/p^2) of them
    hist = residue_histogram(4, 9, 3, exclude_pzd=True)
    assert sum(hist.values()) == r4_jacobi(9) - r4_jacobi(1)
    assert (0, 0, 0, 0) not in hist
    full = residue_histogram(4, 9, 3)
    assert sum(full.values()) == r4_jacobi(9)
    assert full[(0, 0, 0, 0)] == r4_jacobi(1)


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
