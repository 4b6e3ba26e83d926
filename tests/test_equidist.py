"""Equidistribution-layer tests: empirical measures, discrepancies, Weyl
sums, windowed decay studies, and the coefficient-growth table."""

import tracemalloc
from statistics import median

import numpy as np
import pytest

from quadsum.equidist import (
    EmpiricalMeasure,
    coeff_growth_scan,
    decay_study,
    discrepancy_record,
    dyadic_windows,
    empirical_measure,
    sup_deviation,
    tv_to_uniform,
    weyl_sum,
)
from quadsum.errors import EmptyMeasureError, ValidationError
from quadsum.lattice import count_range, orbit_census, quadric_indices, r4_jacobi, residue_histogram
from quadsum.limits import ENTRY_CAP
from quadsum.theta import TestFunction, constant_function, random_cusp_function, random_even_function


def test_unit_sphere_measure_is_uniform():
    mu = empirical_measure(2, 1, 3)
    assert not mu.empty
    assert mu.points_counted == 4
    assert set(mu.support_points()) >= {(1, 0), (2, 0), (0, 1), (0, 2)}
    assert tv_to_uniform(mu) == pytest.approx(0.0, abs=1e-15)


def test_two_sphere_measure_is_uniform():
    # X_2(2) = (+-1, +-1), all four residue classes mod 3 hit once
    mu = empirical_measure(2, 2, 3)
    assert mu.points_counted == 4
    assert tv_to_uniform(mu) == pytest.approx(0.0, abs=1e-15)
    assert sup_deviation(mu) == pytest.approx(0.0, abs=1e-15)


def test_masses_sum_to_one_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        p = int(rng.choice([3, 5]))
        n = int(rng.integers(1, 300))
        mu = empirical_measure(d, n, p)
        if not mu.empty:
            assert mu.masses.sum() == pytest.approx(1.0, abs=1e-12)
            assert (mu.masses >= 0).all()


def test_mass_accounting():
    counts4 = count_range(4, 100)
    for n in (1, 5, 7, 12, 100):
        mu = empirical_measure(4, n, 3)
        if n % 3 != 0:
            assert mu.points_counted == int(counts4[n])
    # a = 0 with p^2 | n: the (pZ)^d points drop out
    mu = empirical_measure(4, 9, 3)
    assert mu.points_counted == r4_jacobi(9) - r4_jacobi(1)
    assert 0 not in set(int(e) for e in mu.support)
    # a = 0 without p^2 | n: nothing to drop
    mu = empirical_measure(4, 3, 3)
    assert mu.points_counted == r4_jacobi(3)


def test_support_lies_on_quadric():
    for (d, n, p) in [(3, 10, 5), (4, 18, 3), (5, 9, 3)]:
        mu = empirical_measure(d, n, p)
        level = set(quadric_indices(p, d, n % p).tolist())
        assert set(mu.support.tolist()) <= level


def test_empty_measure_flag_and_errors():
    # d = 1, n = 2 has no lattice points at all
    mu = empirical_measure(1, 2, 3)
    assert mu.empty
    with pytest.raises(EmptyMeasureError):
        tv_to_uniform(mu)
    with pytest.raises(EmptyMeasureError):
        sup_deviation(mu)


def test_tv_point_mass_formula():
    mu = EmpiricalMeasure(
        p=3, d=2, a=1, n=1,
        support=np.array([1, 2, 3, 6]),
        masses=np.array([1.0, 0.0, 0.0, 0.0]),
        points_counted=1, empty=False,
    )
    assert tv_to_uniform(mu) == pytest.approx(0.75)
    assert sup_deviation(mu) == pytest.approx(0.75)


def test_tv_bounds_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, 200))
        mu = empirical_measure(d, n, 3)
        if not mu.empty:
            assert 0.0 <= tv_to_uniform(mu) < 1.0


def test_negation_symmetry_of_masses():
    mu = empirical_measure(3, 41, 5)
    lookup = dict(zip((int(e) for e in mu.support), mu.masses))
    for e, m in list(lookup.items()):
        digits = []
        x = e
        for _ in range(3):
            digits.append(x % 5)
            x //= 5
        neg = sum(((-v) % 5) * 5**i for i, v in enumerate(digits))
        assert lookup[neg] == pytest.approx(m, abs=1e-15)


def test_discrepancy_record_fields():
    rec = discrepancy_record(4, 7, 3)
    assert (rec.d, rec.p, rec.a, rec.n) == (4, 3, 1, 7)
    assert rec.points_counted == r4_jacobi(7)
    assert rec.tv >= 0 and rec.sup_dev >= 0


def test_weyl_sum_constant_and_cusp():
    f1 = constant_function(3, 2)
    for n in (1, 2, 4, 5):
        assert weyl_sum(f1, 2, n) == pytest.approx(1.0)
    fc = random_cusp_function(3, 2, 2)
    # the orbit at n = 1 is tiny, so the average is just small, not zero;
    # exact vanishing holds for the hand-built difference indicator
    v = np.zeros(9, dtype=complex)
    v[1] = v[2] = 1.0
    v[3] = v[6] = -1.0
    assert weyl_sum(TestFunction(3, 2, v), 2, 1) == pytest.approx(0.0, abs=1e-14)
    assert abs(weyl_sum(fc, 2, 1)) <= fc.max_abs + 1e-12


def test_weyl_sum_bounded_by_sup():
    f = random_even_function(5, 3, 8)
    for n in (1, 3, 10, 25, 50):
        assert abs(weyl_sum(f, 3, n)) <= f.max_abs + 1e-12


def test_weyl_sum_zero_level_exclusion():
    # at n = 9, d = 4, p = 3 the excluded class is the origin; the weighted
    # average must match the histogram computed without (pZ)^d points
    f = random_even_function(3, 4, 1)
    from quadsum.lattice import residue_histogram

    hist = residue_histogram(4, 9, 3)
    del hist[(0,) * 4]
    total = sum(hist.values())
    expected = sum(c * f.value_at(v) for v, c in hist.items()) / total
    assert weyl_sum(f, 4, 9) == pytest.approx(expected, abs=1e-12)


def test_weyl_sum_empty():
    with pytest.raises(EmptyMeasureError):
        weyl_sum(constant_function(3, 1), 1, 7)  # 7 is not a square or sum of 1 square


def test_weyl_sum_equals_measure_average():
    # cross-module identity: for f vanishing off one level set with zero mean
    # there, the Weyl sum is the empirical-measure average of f (the uniform
    # average vanishes by construction)
    p, d, a = 3, 3, 1
    idx = quadric_indices(p, d, a)
    v = np.zeros(p**d, dtype=complex)
    rng = np.random.default_rng(17)
    v[idx] = rng.random(len(idx))
    v[idx] -= v[idx].mean()
    v = (v + v[[_neg(e, p, d) for e in range(p**d)]]) / 2  # keep it even
    f = TestFunction(p, d, v)
    for n in (1, 4, 10, 13, 25):  # all = 1 mod 3 and representable by 3 squares
        mu = empirical_measure(d, n, p)
        avg = sum(m * f.values[e] for e, m in zip(mu.support, mu.masses))
        assert weyl_sum(f, d, n) == pytest.approx(avg, abs=1e-12)


def _neg(e, p, d):
    out = 0
    for i in range(d):
        out += ((-(e % p)) % p) * p**i
        e //= p
    return out


def test_dyadic_windows():
    assert dyadic_windows(3, 5) == [(8, 16), (16, 32), (32, 64)]
    with pytest.raises(ValidationError):
        dyadic_windows(4, 3)


def test_decay_study_d4_requires_odd_parity():
    with pytest.raises(ValidationError):
        decay_study(4, 3, 1, [(16, 32)], parity="even")
    with pytest.raises(ValidationError):
        decay_study(4, 3, 1, [(16, 32)])
    rows = decay_study(4, 3, 1, [(16, 64)], parity="odd")
    assert rows[0].samples > 0


def test_decay_study_flags_and_values():
    rows = decay_study(5, 3, 1, [(8, 16), (64, 128)])
    assert rows[0].under_sampled  # 3 admissible n only
    assert rows[0].samples == len([n for n in range(8, 16) if n % 3 == 1])
    assert rows[1].median_tv <= rows[0].median_tv  # decay over a 8x jump
    assert all(r.max_tv >= r.median_tv for r in rows)


def test_decay_study_zero_level_routing():
    rows = decay_study(5, 3, 0, [(32, 64)])
    assert rows[0].samples == len([n for n in range(32, 64) if n % 3 == 0])


def test_decay_study_validation():
    with pytest.raises(ValidationError):
        decay_study(3, 3, 1, [(16, 32)])
    with pytest.raises(ValidationError):
        decay_study(5, 3, 5, [(16, 32)])
    with pytest.raises(ValidationError):
        decay_study(5, 3, 1, [])
    with pytest.raises(ValidationError):
        decay_study(5, 3, 1, [(0, 16)])
    with pytest.raises(ValidationError):  # rejected before a census of 2.4e9 cells is sized
        decay_study(5, 3, 1, [(0, 10**7)])


def test_decay_study_matches_the_per_n_measures():
    for d, p, a, parity in [(5, 3, 1, None), (5, 3, 0, None), (4, 3, 1, "odd")]:
        windows = dyadic_windows(4, 8)
        rows = decay_study(d, p, a, windows, parity=parity)
        for row, (lo, hi) in zip(rows, windows):
            tvs = []
            for n in range(lo, hi):
                if n % p == a and (parity is None or n % 2 == 1):
                    mu = empirical_measure(d, n, p)
                    if not mu.empty:
                        tvs.append(tv_to_uniform(mu))
            assert (row.lo, row.hi, row.samples) == (lo, hi, len(tvs))
            assert row.median_tv == median(tvs) and row.max_tv == max(tvs)


@pytest.mark.parametrize("d,p,a,parity", [
    (5, 3, 0, "even"), (5, 3, 2, "even"), (5, 5, 0, "odd"), (6, 5, 3, "odd"),
    (6, 3, 0, None), (5, 7, 4, None), (4, 5, 0, "odd"),
])
def test_decay_study_equals_the_per_n_reference(d, p, a, parity):
    windows = dyadic_windows(3, 9)
    rows = decay_study(d, p, a, windows, parity=parity)
    assert len(rows) == len(windows)
    for row, (lo, hi) in zip(rows, windows):
        tvs = []
        for n in range(lo, hi):
            if n % p != a or (parity == "odd" and n % 2 == 0) or (parity == "even" and n % 2 == 1):
                continue
            mu = empirical_measure(d, n, p)
            if not mu.empty:
                tvs.append(tv_to_uniform(mu))
        assert tvs, (lo, hi)
        assert (row.lo, row.hi, row.samples) == (lo, hi, len(tvs))
        assert row.under_sampled == (len(tvs) < 30)
        assert row.median_tv == median(tvs) and row.max_tv == max(tvs)


def test_decay_study_window_read_in_blocks_equals_the_per_n_reference():
    # 3277 n of a 3100-point level: more than ENTRY_CAP counts, so two reads
    (row,) = decay_study(6, 5, 1, [(16384, 32768)])
    tvs = [tv_to_uniform(empirical_measure(6, n, 5)) for n in range(16386, 32768, 5)]
    assert row.samples == len(tvs) == 3277
    assert row.median_tv == median(tvs) and row.max_tv == max(tvs)


@pytest.mark.parametrize("a,parity,window", [(0, None, (16384, 32768)), (2, "even", (32768, 65536))])
def test_decay_study_zero_level_and_parity_read_in_blocks_equal_the_per_n_reference(a, parity, window):
    # 3277 n of a level of 3224 or 3100 points: more than ENTRY_CAP expanded
    # deviations, so the window is read in two blocks
    lo, hi = window
    ns = [n for n in range(lo, hi) if n % 5 == a and (parity is None or n % 2 == 0)]
    support = quadric_indices(5, 6, a)
    assert len(ns) == 3277 > ENTRY_CAP // (len(support) - (a == 0))
    (row,) = decay_study(6, 5, a, [window], parity=parity)
    tvs = [tv_to_uniform(empirical_measure(6, n, 5)) for n in ns]
    assert row.samples == len(tvs)
    assert row.median_tv == median(tvs) and row.max_tv == max(tvs)


@pytest.mark.parametrize("d,p", [(4, 3), (5, 3), (3, 5), (4, 5), (3, 7), (6, 3)])
def test_level_supports_are_unions_of_whole_orbits(d, p):
    # decay_study reads each level on its orbit columns: every orbit is inside
    # one level, and only the origin's singleton orbit is dropped, at a = 0
    rank = orbit_census(d, 0, p)[1]
    sizes = np.bincount(rank)
    assert sizes[rank[0]] == 1
    covered = np.zeros(len(sizes), dtype=int)
    for a in range(p):
        support = quadric_indices(p, d, a)
        if a == 0:
            support = support[support != 0]
        per_orbit = np.bincount(rank[support], minlength=len(sizes))
        hit = per_orbit > 0
        assert (per_orbit[hit] == sizes[hit]).all(), (d, p, a)
        covered += hit
    assert covered[rank[0]] == 0
    covered[rank[0]] = 1
    assert (covered == 1).all()


@pytest.mark.parametrize("kmax", [13, 15])
def test_decay_study_peak_memory_stays_far_below_the_expanded_table(kmax):
    # the expanded census up to n = 16383 alone would take 2 GB; the last
    # window at kmax = 15 is read on its orbits, 28 columns at most, and its
    # deviations expanded to the support in blocks of ENTRY_CAP
    orbit_census(1, 0, 2)  # drop any larger kept table first
    tracemalloc.start()
    try:
        decay_study(6, 5, 1, dyadic_windows(6, kmax))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.15e9


def test_level_reads_answer_past_the_expanded_cell_cap():
    # (20000 + 1) * 7**6 = 2.4e9 expanded cells; the orbit census has 84 columns
    r6 = int(count_range(6, 20000)[20000])
    mu = empirical_measure(6, 20000, 7)
    assert mu.a == 1 and mu.points_counted == r6
    assert sum(residue_histogram(6, 20000, 7).values()) == r6


def test_coeff_growth_scan_requires_cusp():
    with pytest.raises(ValidationError):
        coeff_growth_scan(random_even_function(3, 2, 1), 2, 50)


def test_coeff_growth_scan_zero_function():
    rows = coeff_growth_scan(TestFunction(3, 2, np.zeros(9)), 2, 20)
    assert all(r.abs_c == 0 for r in rows)


def test_coeff_growth_scan_table():
    f = random_cusp_function(3, 5, 4)
    rows = coeff_growth_scan(f, 5, 400)
    assert len(rows) == 400
    ratios = [r.hecke_ratio for r in rows]
    # the normalized ratio peaks early and does not blow up at the far end
    peak_at = max(range(len(ratios)), key=ratios.__getitem__)
    assert peak_at < 200
    assert max(ratios[-50:]) < max(ratios)
    for r in rows[:5]:
        assert r.kloosterman_ratio == pytest.approx(r.abs_c / r.n**0.75)


def test_census_row_vanishes_off_its_level():
    # the support of row n is inside X(n mod p): the premise of reading every
    # measure and Weyl sum on the level support alone
    from quadsum.lattice import residue_census

    for d, p in ((5, 3), (4, 5), (3, 7)):
        census = residue_census(d, 120, p)
        for n in range(121):
            off = np.ones(p**d, dtype=bool)
            off[quadric_indices(p, d, n % p)] = False
            assert not census[n][off].any(), (d, p, n)


def test_coeff_growth_scan_rejects_empty_table():
    with pytest.raises(ValidationError):
        coeff_growth_scan(random_cusp_function(3, 5, 4), 5, 0)
