"""Theta-layer tests: transform and operator algebra against literal oracles,
truncated evaluations against hand sums, the transformation identities, the
cusp criterion with its exponential-sum cross-checks, and weak modularity."""

import cmath
import gc
import hashlib
import math
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest

from quadsum import theta
from quadsum.arith import j_prime_k, jacobi_symbol
from quadsum.errors import ResourceLimitError, ValidationError
from quadsum.lattice import count_range, orbit_census, qmod_vector, quadric_indices, residue_census
from quadsum.theta import (
    INF,
    TestFunction,
    constant_function,
    cusp_check,
    even_projection,
    finite_fourier,
    half_power,
    is_in_gamma,
    op_L,
    op_M,
    op_Sj,
    origin_indicator,
    random_cusp_function,
    random_even_function,
    rsum_check,
    srw_profile,
    srw_vanishing,
    theta_coeffs,
    theta_eval,
    theta_eval_full,
    theta_j_eval,
    theta_j_eval_full,
    tsum_check,
    verify_generator_actions,
    verify_poisson,
    verify_weak_modularity,
)
from quadsum.limits import DEFAULT_EPS, THETA_CUT_CAP
from quadsum.theta import _gauss_tail, _product_tail, _theta_cut


def _literal_fourier(f: TestFunction) -> np.ndarray:
    p, d = f.p, f.d
    out = np.zeros(p**d, dtype=complex)
    for xi in product(range(p), repeat=d):
        e_xi = sum(v * p**i for i, v in enumerate(xi))
        total = 0j
        for x in product(range(p), repeat=d):
            e_x = sum(v * p**i for i, v in enumerate(x))
            q = sum(a * b for a, b in zip(x, xi))
            total += f.values[e_x] * cmath.exp(-2j * cmath.pi * q / p)
        out[e_xi] = total
    return out


def _literal_srw(f: TestFunction, r: int, w: int) -> complex:
    p, d = f.p, f.d
    rt = max(r, 1)
    total = 0j
    for y in product(range(p**rt), repeat=d):
        q = sum(c * c for c in y)
        e = sum((c % p) * p**i for i, c in enumerate(y))
        total += f.values[e] * cmath.exp(2j * cmath.pi * q * w / p**r)
    return total


# --- test function container -------------------------------------------------


def test_testfunction_validation_and_immutability():
    with pytest.raises(ValidationError):
        TestFunction(4, 2, np.zeros(16))
    with pytest.raises(ValidationError):
        TestFunction(3, 2, np.zeros(8))
    f = constant_function(3, 2)
    with pytest.raises(AttributeError):
        f.p = 5
    with pytest.raises(ValueError):
        f.values[0] = 2.0  # read-only buffer


def test_even_flag():
    assert constant_function(3, 2).is_even
    assert origin_indicator(5, 2).is_even
    v = np.zeros(9, dtype=complex)
    v[1] = 1.0  # (1,0) without its negation
    assert not TestFunction(3, 2, v).is_even
    assert even_projection(TestFunction(3, 2, v)).is_even
    assert random_even_function(5, 3, 0).is_even


def test_value_at_checks_coordinate_count():
    f = TestFunction(3, 2, np.arange(9))
    assert f.value_at((1, 2)) == 7
    assert f.value_at((-1, 4)) == 5
    for coords in [(1,), (1, 1, 1), (1, 1, 0)]:
        with pytest.raises(ValidationError):
            f.value_at(coords)


# --- finite Fourier transform and operators ----------------------------------


def test_finite_fourier_origin_and_constant():
    p, d = 5, 2
    assert np.allclose(finite_fourier(origin_indicator(p, d)).values, 1.0)
    ff = finite_fourier(constant_function(p, d)).values
    expected = np.zeros(p**d, dtype=complex)
    expected[0] = p**d
    assert np.allclose(ff, expected, atol=1e-10)


def test_finite_fourier_matches_literal_dft():
    for (p, d) in [(2, 2), (3, 2), (5, 1), (3, 3)]:
        f = TestFunction(p, d, np.random.default_rng(p * d).random(p**d) + 0.5j)
        assert np.allclose(finite_fourier(f).values, _literal_fourier(f), atol=1e-9)


def test_fourier_inversion():
    for p in (2, 3, 5, 7):
        for d in (1, 2, 3):
            rng = np.random.default_rng(p + d)
            f = TestFunction(p, d, rng.random(p**d) + 1j * rng.random(p**d))
            twice = finite_fourier(finite_fourier(f)).values
            neg = f.values[[_neg_index(e, p, d) for e in range(p**d)]]
            assert np.allclose(twice, p**d * neg, atol=1e-9)


def _neg_index(e, p, d):
    out = 0
    for i in range(d):
        out += ((-(e % p)) % p) * p**i
        e //= p
    return out


def _exact_phase_dft(values, p, d, freqs):
    """sum_x values[x] e^{-2 pi i (k . x mod p)/p} at each frequency k of
    ``freqs``: each phase is cmath.exp of its reduced exponent (k . x) mod p,
    every real product is rounded once and each part is one math.fsum."""
    unit = [cmath.exp(-2j * math.pi * r / p) for r in range(p)]
    cos, sin = np.array([z.real for z in unit]), np.array([z.imag for z in unit])
    coords = (np.arange(p**d)[:, None] // p ** np.arange(d)) % p
    re, im = values.real, values.imag
    out = []
    for k in freqs:
        r = (coords @ np.array(k)) % p
        c, s = cos[r], sin[r]
        out.append(complex(math.fsum(np.concatenate((re * c, -im * s)).tolist()),
                           math.fsum(np.concatenate((re * s, im * c)).tolist())))
    return np.array(out)


def _frequencies(p, d, rng, most):
    """Every frequency of (Z/pZ)^d when there are at most ``most``, else a seeded sample."""
    if p**d <= most:
        return [tuple((e // p**i) % p for i in range(d)) for e in range(p**d)]
    return [tuple(int(c) for c in rng.integers(0, p, d)) for _ in range(max(1, most // p ** (d - 1)))]


def _dual_vector(f, tau, monkeypatch):
    """The vector a value at infinity contracts f with, and the partial sums it
    was transformed from."""
    seen, contract = [], theta._contract

    def spy(g, a, *rest):
        seen.append(a[0])
        return contract(g, a, *rest)

    monkeypatch.setattr(theta, "_contract", spy)
    radius = theta_j_eval_full(f, INF, tau).radius
    monkeypatch.undo()
    return seen[0], theta._partial_theta_rows(f.p, [tau], radius)[0]


#: the largest FFT error measured over each p's grid below, max |F - exact|
#: over the l2 norm of the input; the p x p matrix products these transforms
#: replaced came up to 12x farther from exact below p = 31 and 20x (p = 31)
#: to 440x (p = 1009) from there on
_FFT_ERROR = {3: 5.0e-16, 5: 5.1e-16, 7: 4.3e-16, 11: 6.0e-16, 13: 8.9e-16,
              31: 8.0e-16, 101: 1.3e-15, 1009: 1.6e-15}


@pytest.mark.parametrize("p", sorted(_FFT_ERROR))
def test_transforms_match_exact_phases(p, monkeypatch):
    rng = np.random.default_rng(p)
    errors = []
    for d, count in ((1, 2), (2, 1)):
        for _ in range(count):
            f = TestFunction(p, d, rng.random(p**d) - 0.5 + 1j * (rng.random(p**d) - 0.5))
            freqs = _frequencies(p, d, rng, 256)
            got = finite_fourier(f).values[[sum(c * p**i for i, c in enumerate(k)) for k in freqs]]
            errors.append(np.abs(got - _exact_phase_dft(f.values, p, d, freqs)).max() / np.linalg.norm(f.values))
    for tau in (0.3 + 0.9j, -1.2 + 0.4j):
        a, v = _dual_vector(random_even_function(p, 1, 3), tau, monkeypatch)
        freqs = _frequencies(p, 1, rng, 256)
        exact = _exact_phase_dft(v, p, 1, freqs)
        errors.append(np.abs(a[[k for k, in freqs]] - exact).max() / np.linalg.norm(v))
    assert max(errors) <= 2 * _FFT_ERROR[p]


def test_transforms_at_p1009_take_no_p_by_p_workspace():
    # a p x p transform matrix alone is 16 MB here
    f = random_even_function(1009, 1, 3)
    assert f.is_even and f.max_abs > 0  # f's own flags, outside the measurement
    gc.collect()
    for run in (lambda: theta_j_eval_full(f, INF, 0.3 + 0.9j), lambda: finite_fourier(f)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


def test_operators_hand_over_their_fresh_arrays():
    # f holds 16.3 MB at p = 1009, d = 2.  The transform takes its later axes
    # in place, and no operator copies the array it has just built: a copy on
    # the way into the new function would add 1.0x to each peak
    f = random_even_function(1009, 2, 1)
    assert f.is_even and f.max_abs > 0  # f's own flags, outside the measurement
    for op, bound in ((finite_fourier, 1.1), (op_L, 2.1)):
        gc.collect()
        tracemalloc.start()
        try:
            g = op(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * f.values.nbytes, op.__name__
        del g


def test_random_cusp_function_drops_its_draw_before_the_level_sets():
    # the even draw is dropped once its values are copied: a warm call peaks
    # at the 3.0x of random_even_function, with the draw kept at 3.32x
    random_cusp_function(101, 2, 1)
    gc.collect()
    tracemalloc.start()
    try:
        g = random_cusp_function(101, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.1 * g.values.nbytes


def test_operator_results_are_read_only_and_caller_arrays_are_copied():
    v = np.arange(9, dtype=np.complex128)
    f = TestFunction(3, 2, v)
    assert not np.shares_memory(f.values, v) and v.flags.writeable
    v[0] = 7.0
    assert f.values[0] == 0.0
    made = [constant_function(3, 2), origin_indicator(3, 2), even_projection(f), finite_fourier(f),
            op_L(f, 2), op_Sj(f, 2), random_even_function(3, 2, 1), random_cusp_function(3, 2, 1),
            op_M(TestFunction(2, 3, np.ones(8)))]
    for g in made:
        assert g.values.dtype == np.complex128 and not g.values.flags.writeable
        with pytest.raises(ValueError):
            g.values[0] = 1.0


def test_transforms_reach_p10007():
    # p^d is far inside ENTRY_CAP; a p x p matrix would need 1.6 GB
    p = 10007
    f = random_even_function(p, 1, 5)
    twice = finite_fourier(finite_fourier(f)).values
    neg = f.values[(-np.arange(p)) % p]
    assert np.abs(twice - p * neg).max() <= 1e-14 * p * f.max_abs
    value = theta_j_eval_full(f, INF, 0.3 + 0.9j)
    assert value.tail <= 1e-12 and math.isfinite(abs(value.value))


def test_operator_algebra():
    p, d = 5, 2
    rng = np.random.default_rng(0)
    f = TestFunction(p, d, rng.random(p**d) + 1j * rng.random(p**d))
    # L^p = identity
    g = f
    for _ in range(p):
        g = op_L(g)
    assert np.allclose(g.values, f.values, atol=1e-12)
    # S_1 = identity
    assert np.allclose(op_Sj(f, 1).values, f.values)
    # S_{j1} S_{j2} = S_{j1 j2 mod p}
    assert np.allclose(op_Sj(op_Sj(f, 2), 3).values, op_Sj(f, 6 % p).values)
    # S_j L S_j^{-1} = L^{j^2}
    j = 2
    j_inv = pow(j, -1, p)
    lhs = op_Sj(op_L(op_Sj(f, j_inv)), j)
    rhs = op_L(f, k=j * j % p)
    assert np.allclose(lhs.values, rhs.values, atol=1e-12)


def test_op_sj_rescales_every_coordinate():
    for p, d in [(5, 3), (3, 4)]:
        rng = np.random.default_rng(p * d)
        f = TestFunction(p, d, rng.random(p**d) + 1j * rng.random(p**d))
        for j in range(1, p):
            g = op_Sj(f, j)
            for x in product(range(p), repeat=d):
                assert g.value_at(x) == f.value_at(tuple(j * c for c in x))


def test_op_l_multiplies_by_the_quadratic_phase():
    for p, d in [(5, 3), (3, 4)]:
        rng = np.random.default_rng(p + d)
        f = TestFunction(p, d, rng.random(p**d) + 1j * rng.random(p**d))
        for k in range(p):
            g = op_L(f, k)
            for x in product(range(p), repeat=d):
                want = cmath.exp(-2j * cmath.pi * k * sum(c * c for c in x) / p) * f.value_at(x)
                assert abs(g.value_at(x) - want) <= 1e-12  # the oracle's exponent is unreduced


def test_op_l_is_the_per_entry_phase_product_bit_for_bit():
    # the gathered phases give the doubles of one exponential per entry, also
    # at p = 7, d = 5, where a phase array reaches 256 KiB
    for p, d in [(2, 5), (3, 4), (5, 3), (7, 5), (11, 2)]:
        rng = np.random.default_rng(p * d)
        f = TestFunction(p, d, rng.random(p**d) + 1j * rng.random(p**d))
        q = qmod_vector(p, d)
        for k in range(-2, p + 2):
            phase = np.exp(-2j * np.pi * ((k * q) % p) / p)
            assert np.array_equal(op_L(f, k).values, f.values * phase), (p, d, k)


def test_op_m_multiplies_by_the_bit_count_phase():
    rng = np.random.default_rng(11)
    f = TestFunction(2, 3, rng.random(8) + 1j * rng.random(8))
    g = op_M(f)
    for x in product(range(2), repeat=3):
        assert abs(g.value_at(x) - cmath.exp(-0.5j * cmath.pi * sum(x)) * f.value_at(x)) <= 1e-14


def test_operators_carry_the_evenness_flag():
    for p, d in [(5, 3), (3, 4), (2, 3)]:
        rng = np.random.default_rng(p * d)
        raw = TestFunction(p, d, rng.random(p**d) + 1j * rng.random(p**d))
        even = even_projection(raw)
        assert even.is_even and raw.is_even == (p == 2)  # every function is even at p = 2
        for f in (raw, even):
            images = [op_L(f, 2), op_Sj(f, p - 1)] + ([op_M(f)] if p == 2 else [op_L(op_Sj(f, 2), 3)])
            for g in images:
                assert g.is_even == TestFunction(p, d, g.values).is_even == f.is_even


def test_op_m_p2_only():
    f = constant_function(2, 3)
    g = op_M(f)
    # phase at the all-ones corner is e^{-2 pi i * 3/4}
    assert g.value_at((1, 1, 1)) == pytest.approx(cmath.exp(-1.5j * cmath.pi))
    m4 = op_M(op_M(op_M(op_M(f))))
    assert np.allclose(m4.values, f.values, atol=1e-12)
    with pytest.raises(ValidationError):
        op_M(constant_function(3, 2))


# --- coefficients and evaluation ---------------------------------------------


def test_theta_coeffs_counting_collapse():
    for (p, d, nmax) in [(3, 2, 50), (5, 3, 30), (2, 4, 40)]:
        c = theta_coeffs(constant_function(p, d), nmax).c
        assert np.allclose(c, count_range(d, nmax), atol=1e-9)


def _difference_indicator() -> TestFunction:
    # even, +1 on (+-1, 0), -1 on (0, +-1); level sums vanish
    v = np.zeros(9, dtype=complex)
    v[1] = v[2] = 1.0
    v[3] = v[6] = -1.0
    return TestFunction(3, 2, v)


def test_theta_coeffs_difference_indicator():
    f = _difference_indicator()
    c = theta_coeffs(f, 10).c
    assert abs(c[1]) < 1e-14
    # c_0 is the value at the origin
    rng = np.random.default_rng(5)
    g = TestFunction(3, 2, rng.random(9) + 1j * rng.random(9))
    assert theta_coeffs(g, 4).c[0] == pytest.approx(g.values[0])


def test_theta_coeffs_odd_function_vanishes():
    for (p, d) in [(3, 2), (5, 2)]:
        rng = np.random.default_rng(p)
        raw = rng.random(p**d) + 1j * rng.random(p**d)
        odd = raw - raw[[_neg_index(e, p, d) for e in range(p**d)]]
        c = theta_coeffs(TestFunction(p, d, odd), 60).c
        assert np.abs(c).max() < 1e-12


def _exact_coeffs(f: TestFunction, nmax: int) -> np.ndarray:
    """c_n = sum_e Fraction(census[n, e]) Fraction(f_e) over the expanded
    census, rounded once.  The doubles of one part share the denominator 2^k
    of the finest among them, so each exact sum is one Python int over it."""
    census = residue_census(f.d, nmax, f.p).astype(object)
    parts = []
    for part in (f.values.real, f.values.imag):
        ratios = [Fraction(x) for x in part.tolist()]
        den = max(r.denominator for r in ratios)
        nums = np.array([r.numerator * (den // r.denominator) for r in ratios], dtype=object)
        parts.append(np.array([float(Fraction(s, den)) for s in census @ nums]))
    return parts[0] + 1j * parts[1]


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), u = 2^-53: the error of a k-term float sum."""
    u = 2.0**-53
    return k * u / (1 - k * u)


@pytest.mark.parametrize("p,d,nmax", [(2, 4, 400), (3, 4, 300), (3, 5, 300), (5, 3, 400), (5, 4, 200), (7, 3, 300)])
@pytest.mark.parametrize("kind", [random_even_function, random_cusp_function])
def test_theta_coeffs_within_a_priori_bound_of_exact_sum(p, d, nmax, kind):
    # Each orbit sum F_k is correctly rounded in its real and imaginary part
    # (math.fsum), the contraction with the K orbit counts of row n adds at
    # most gamma_K sum_k rows[n, k] |F_k| <= gamma_K r_d(n) max|f| per part,
    # and the reference is rounded once: gamma_{K+2} sqrt(2) r_d(n) max|f|
    # bounds the error.  The expanded product census @ f adds at most
    # gamma_{p^d} per part, so the two paths agree within the sum of bounds.
    f = kind(p, d, p + d)
    scale = math.sqrt(2) * np.maximum(count_range(d, nmax), 1) * f.max_abs
    orbit_bound = _gamma(comb(p // 2 + d, d) + 2) * scale
    expanded_bound = _gamma(p**d + 2) * scale
    c = theta_coeffs(f, nmax).c
    exact = _exact_coeffs(f, nmax)
    assert np.all(np.abs(c - exact) <= orbit_bound)
    expanded = residue_census(d, nmax, p) @ f.values
    assert np.all(np.abs(expanded - exact) <= expanded_bound)
    assert np.all(np.abs(c - expanded) <= orbit_bound + expanded_bound)


def test_theta_coeffs_peak_memory_is_the_orbit_table():
    # the expanded product census @ f of 2001 x 5^5 cells peaks at 150 MB;
    # the orbit table has 2001 x 21 cells, contracted one orbit column at a time
    f = random_even_function(5, 5, 1)
    residue_census(1, 0, 2)  # drop any kept table, so the census is built cold
    gc.collect()
    tracemalloc.start()
    try:
        theta_coeffs(f, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_theta_coeffs_makes_no_complex_copy_of_the_orbit_table():
    # with the table kept, the call holds its fold (the orbit order and the
    # real and imaginary parts of f, 24 bytes a residue, and one orbit's
    # values as Python floats) and a few coefficient vectors of 16 bytes a
    # coefficient; a complex copy of the 84 orbit columns would take 16 * 84
    # bytes a coefficient
    f = random_cusp_function(7, 6, 1)
    nmax = 20000
    orbit_census(6, nmax, 7)
    gc.collect()
    tracemalloc.start()
    try:
        theta_coeffs(f, nmax)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 + 32 * 7**6 + 4 * 16 * (nmax + 1)


def _exact_orbit_contraction(f: TestFunction, rows: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exact, scale): c_n = sum_k rows[n, k] S_k with S_k the exact sum of f
    over orbit k, each part rounded once, and sum_k rows[n, k] |S_k|.  The
    doubles of one part share the denominator of the finest among them, so
    every sum is one Python int over it."""
    parts, sums = [], []
    for part in (f.values.real, f.values.imag):
        ratios = [x.as_integer_ratio() for x in part.tolist()]
        den = max(b for _, b in ratios)
        num = [0] * rows.shape[1]
        for k, (a, b) in zip(rank.tolist(), ratios):
            num[k] += a * (den // b)
        parts.append(np.array([float(Fraction(s, den)) for s in rows.astype(object) @ np.array(num, dtype=object)]))
        sums.append(np.array([float(Fraction(s, den)) for s in num]))
    return parts[0] + 1j * parts[1], rows @ np.hypot(sums[0], sums[1])


@pytest.mark.parametrize("p,d,nmax", [(7, 6, 2000), (3, 10, 2000), (5, 8, 1000)])
def test_theta_coeffs_orbit_columns_within_a_priori_bound(p, d, nmax):
    # K orbit columns, each count times its orbit sum rounded and added in
    # orbit order: gamma_K <= 2 K u of sum_k rows[n, k] |F_k| per part.  The
    # fold puts each F_k within u |F_k| of the exact orbit sum, and the
    # reference is rounded once, within u of the same scale.
    u = 2.0**-53
    f = random_cusp_function(p, d, 1)
    c = theta_coeffs(f, nmax).c
    rows, rank = orbit_census(d, nmax, p)
    exact, scale = _exact_orbit_contraction(f, rows, rank)
    bound = (2 * rows.shape[1] * u + 2 * u) * scale
    assert np.all(np.abs(c.real - exact.real) <= bound)
    assert np.all(np.abs(c.imag - exact.imag) <= bound)


def test_theta_eval_hand_sum():
    # f identically 1, p = 3, d = 1, tau = i: 1 + 2 e^{-2 pi} + 2 e^{-8 pi} + ...
    val = theta_eval(constant_function(3, 1), 1j, eps=1e-12)
    expected = 1 + 2 * math.exp(-2 * math.pi) + 2 * math.exp(-8 * math.pi) + 2 * math.exp(-18 * math.pi)
    assert val == pytest.approx(expected, abs=1e-9)
    assert abs(val - 1.0037349) < 1e-6


def test_theta_eval_zero_linearity_and_tail():
    p, d = 3, 2
    z = TestFunction(p, d, np.zeros(p**d))
    assert theta_eval(z, 0.5j) == 0
    rng = np.random.default_rng(3)
    f = TestFunction(p, d, rng.random(p**d) + 1j * rng.random(p**d))
    g = TestFunction(p, d, rng.random(p**d) - 0.3j * rng.random(p**d))
    s = TestFunction(p, d, f.values + g.values)
    eps = 1e-10
    tau = 0.2 + 0.9j
    lhs = theta_eval(s, tau, eps)
    rhs = theta_eval(f, tau, eps) + theta_eval(g, tau, eps)
    assert abs(lhs - rhs) <= 2 * eps * (abs(lhs) + 1)
    full = theta_eval_full(f, tau, eps)
    assert full.tail <= eps * (abs(full.value) + 1)
    assert full.radius > 0


def test_theta_tail_bound_at_small_imaginary_part():
    # the image of tau = i under the c = 4p^2 generator at p = 3 (Im ~ 7.7e-4):
    # the product tail bound must stay positive there, not round to 0
    f = random_even_function(3, 4, 1)
    tau = 1j / (36j + 1)
    full = theta_eval_full(f, tau)
    assert 0 < full.tail <= 1e-12 * (abs(full.value) + 1)
    # the same series cut at twice the radius: the 1-d partial sums contracted
    # along each of the 4 axes
    row = theta._partial_theta_rows(3, [tau], 2 * full.radius)[0]
    doubled = f.values.reshape((3,) * 4)
    for _ in range(4):
        doubled = doubled @ row
    assert abs(doubled - full.value) <= full.tail


@pytest.mark.parametrize("eps", [1e-12, 1e-8])
@pytest.mark.parametrize("tau", [1j, 0.3 + 0.05j, 2.5j])
@pytest.mark.parametrize("p,d", [(3, 2), (3, 4), (5, 2), (5, 4)])
def test_theta_tail_never_exceeds_eps(p, d, tau, eps):
    # the cut is the smallest whose a priori bound is <= eps, and the reported
    # tail never exceeds that bound, for the full series and every component
    f = random_even_function(p, d, 7)
    values = [theta_eval_full(f, tau, eps)]
    values += [theta_j_eval_full(f, j, tau, eps) for j in [*range(p), INF]]
    for v in values:
        assert 0 < v.tail <= eps
        assert v.radius > 0


def _bisected_cut(m, d, spread, y, eps):
    """The smallest cut whose a priori bound is <= eps, by bisection over
    [0, THETA_CUT_CAP]; the reference of the closed-form start."""
    a_bound = spread * (1.0 + 1.0 / math.sqrt(2.0 * y))
    lo, cut = -1, THETA_CUT_CAP
    while cut - lo > 1:
        mid = (lo + cut) // 2
        if _product_tail(m, d, spread * _gauss_tail(y, mid), a_bound) <= eps:
            cut = mid
        else:
            lo = mid
    return cut


def test_theta_cut_matches_bisection_on_a_seeded_grid():
    rng = random.Random(20261018)
    refused = 0
    for _ in range(3000):
        m = 10 ** rng.uniform(-8, 8)
        d = rng.randint(1, 12)
        spread = rng.choice((1, 3, 5, 7, 11, 13))
        y = 10 ** rng.uniform(-13, 1.5)
        eps = 10 ** rng.uniform(-16, 0)
        a_bound = spread * (1.0 + 1.0 / math.sqrt(2.0 * y))
        at_cap = _product_tail(m, d, spread * _gauss_tail(y, THETA_CUT_CAP), a_bound)
        if not (_gauss_tail(y, THETA_CUT_CAP) < 1.0 and at_cap <= eps):
            refused += 1
            with pytest.raises(ResourceLimitError):
                _theta_cut(m, d, spread, y, eps)
            continue
        cut = _theta_cut(m, d, spread, y, eps)
        assert cut == _bisected_cut(m, d, spread, y, eps), (m, d, spread, y, eps)
        # the cut where the leading Gaussian term meets eps bounds it below,
        # so the search never has to step down from there
        log_ratio = math.log(2.0 * d * spread) + math.log(m) - math.log(eps) + (d - 1) * math.log(a_bound)
        start = max(0, math.ceil(min(math.sqrt(max(log_ratio, 0.0) / (2 * math.pi * y)), THETA_CUT_CAP)) - 1)
        assert cut >= start, (m, d, spread, y, eps)
    assert 0 < refused < 1000  # the grid reaches past the cap, but mostly not


def test_theta_cut_cap_fails_fast():
    with pytest.raises(ResourceLimitError):
        theta_eval(constant_function(3, 1), 1e-15j)


def test_theta_eval_rejects_lower_half_plane():
    f = constant_function(3, 1)
    with pytest.raises(ValidationError):
        theta_eval(f, 1.0 - 0.2j)
    with pytest.raises(ValidationError):
        theta_eval(f, 1j, eps=-1.0)


def test_underflowing_image_points_are_resource_limits():
    # each tau below is valid; the point the identity evaluates at is not a
    # double of the upper half plane
    f = random_even_function(3, 2, 1)
    with pytest.raises(ResourceLimitError, match=r"-1/\(4 tau\)"):
        verify_poisson(f, 1e300 + 1j)
    with pytest.raises(ResourceLimitError, match="g tau"):
        verify_weak_modularity(f, ((1, 0), (36, 1)), 1e306 + 1j)
    with pytest.raises(ResourceLimitError, match=r"\(tau - 0\)/3\^2"):
        theta_j_eval(f, 0, 1e-323j)
    # a tau off the upper half plane is still refused as given
    for tau in (1e300 - 1j, -1j):
        with pytest.raises(ValidationError):
            verify_poisson(f, tau)
        with pytest.raises(ValidationError):
            theta_j_eval(f, 0, tau)


def test_overflowing_phases_are_resource_limits():
    # 2 pi tau overflows once |Re tau| or Im tau passes about 2.86e307, and a
    # partial sum's phase 2 pi i t^2 tau at its cut sooner: each tau below is
    # valid, but the phases are no doubles
    f = random_even_function(3, 2, 1)
    for tau in (1e308j, 1e308 + 1j, 1e307 + 1j):
        with pytest.raises(ResourceLimitError, match="overflow"):
            theta_eval_full(f, tau)


def test_theta_answers_just_below_the_phase_overflow():
    # at cut 0 only the t = 0 term is summed: theta_f is f(0)
    f = random_even_function(3, 2, 1)
    assert theta_eval_full(f, 2.8e307j) == theta.ThetaValue(f.values[0], 0.0, 0)


def test_non_finite_tau_is_a_usage_error():
    f = random_even_function(3, 2, 1)
    for tau in (complex(math.inf, 1), complex(math.nan, 1), complex(0, math.inf)):
        with pytest.raises(ValidationError, match="finite"):
            theta_eval_full(f, tau)
        with pytest.raises(ValidationError, match="finite"):
            verify_generator_actions(f, tau)


def test_theta_j_change_of_variable():
    f = random_even_function(3, 2, 4)
    tau = 0.7 + 1.3j
    assert theta_j_eval(f, 0, tau) == pytest.approx(theta_eval(f, tau / 9), abs=1e-9)


def test_theta_j_origin_indicator_at_infinity():
    # transform of the origin indicator is identically 1, so the component at
    # infinity is the plain full theta sum (normalizations cancel exactly)
    p, d = 3, 2
    tau = 1j
    lhs = theta_j_eval(origin_indicator(p, d), INF, tau)
    rhs = theta_eval(constant_function(p, d), tau)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_theta_j_periodicity():
    f = random_even_function(3, 2, 9)
    tau = 0.3 + 1.1j
    for j in (0, 2):
        a = theta_j_eval(f, j, tau + 9, eps=1e-12)
        b = theta_j_eval(f, j, tau, eps=1e-12)
        assert abs(a - b) / max(1, abs(b)) < 1e-10


def test_theta_j_requires_even_and_odd_p():
    v = np.zeros(9, dtype=complex)
    v[1] = 1.0
    with pytest.raises(ValidationError):
        theta_j_eval(TestFunction(3, 2, v), 0, 1j)
    with pytest.raises(ValidationError):
        theta_j_eval(constant_function(2, 2), 0, 1j)
    with pytest.raises(ValidationError):
        theta_j_eval(random_even_function(3, 2, 0), 5, 1j)


@pytest.mark.parametrize("p,d", [(3, 4), (5, 4), (5, 5), (7, 4), (3, 8), (11, 3)])
def test_theta_components_match_census_series(p, d):
    # the census series sum_n c_n(g) e^{2 pi i n tau_eff} is the independent
    # oracle; cutting it where e^{-2 pi n Im tau_eff} = e^{-60} leaves a
    # remainder far below the tolerance
    f = random_even_function(p, d, p + d)
    tau = 0.3 + 0.8j
    for j in (0, 1, INF):
        g, tau_eff = (finite_fourier(f), tau) if j == INF else (f, (tau - j) / p**2)
        n = math.ceil(60 / (2 * math.pi * tau_eff.imag))
        census = complex(theta_coeffs(g, n).c @ np.exp(2j * np.pi * tau_eff * np.arange(n + 1)))
        got = theta_j_eval_full(f, j, tau)
        assert abs(got.value - census) <= got.tail + 1e-12 * (abs(got.value) + 1), (j, got, census)


def test_verify_poisson_small_grid():
    assert verify_poisson(random_even_function(3, 2, 1), 1j, eps=1e-12).residual < 1e-8
    assert verify_poisson(random_even_function(5, 3, 2), 0.3 + 0.7j, eps=1e-12).residual < 1e-8
    z = TestFunction(3, 2, np.zeros(9))
    assert verify_poisson(z, 1j).residual == 0.0


def test_generator_actions_structure_and_residuals():
    f = random_even_function(3, 2, 7)
    rows = verify_generator_actions(f, 1j, eps=1e-12)
    assert len(rows) == 2 * 3 + 2
    labels = [r.label for r in rows]
    assert "alpha j=p-1" in labels and "gamma j=0" in labels and "gamma j=inf" in labels
    assert max(r.residual for r in rows) < 1e-8
    zrows = verify_generator_actions(TestFunction(3, 2, np.zeros(9)), 1j)
    assert all(r.residual == 0 for r in zrows)
    # constant weight: the wrap row genuinely changes the function (Lf != f)
    # yet the two sides still agree
    crows = verify_generator_actions(constant_function(3, 2), 1j, eps=1e-12)
    assert max(r.residual for r in crows) < 1e-8


# --- cusp criterion and S(r, w) ----------------------------------------------


def test_cusp_check_examples():
    assert cusp_check(TestFunction(3, 2, np.zeros(9))).is_cusp
    assert cusp_check(_difference_indicator()).is_cusp
    chk = cusp_check(constant_function(3, 2))
    assert not chk.is_cusp and chk.failing_condition == "level-sum a=0"


def test_cusp_check_p2_corner_conditions():
    v = np.zeros(8, dtype=complex)
    v[7] = 1.0  # all-ones corner only: its level sum (a=3) breaks first
    chk = cusp_check(TestFunction(2, 3, v))
    assert not chk.is_cusp and chk.failing_condition == "level-sum a=3"
    # kill the level sum but keep the corner: origin in level 0 compensates?
    # level 3 contains only (1,1,1) for d=3, so the corner condition is
    # reachable only through the level sum; check d=4 instead, where level 0
    # holds the origin and (1,1,1,1).
    v = np.zeros(16, dtype=complex)
    v[15] = 1.0
    v[0] = -1.0  # level-0 sum vanishes, corners do not
    chk = cusp_check(TestFunction(2, 4, v))
    assert not chk.is_cusp and chk.failing_condition == "corner (1,...,1)"


def test_srw_sum_matches_literal():
    # w outside [0, p^r) reads the profile at w mod p^r
    for (p, d) in [(3, 2), (2, 2), (5, 1), (3, 3)]:
        f = random_even_function(p, d, p + d)
        for r in (0, 1, 2, 3):
            if p ** max(r, 1) ** 1 > 200:
                continue
            prof = srw_profile(f, r)
            for w in (0, 1, 2, p):
                assert prof[w % p**r] == pytest.approx(_literal_srw(f, r, w), abs=1e-8)


def test_srw_profile_matches_pointwise():
    f = random_cusp_function(3, 3, 1)
    for r in (0, 1, 2, 3):
        prof = srw_profile(f, r)
        for w in range(len(prof)):
            assert prof[w] == pytest.approx(_literal_srw(f, r, w), abs=1e-8)


def test_srw_level_sum_identity():
    # S(1, w) = sum_a (level sum at a) e^{2 pi i a w / p}
    p, d = 5, 2
    f = random_even_function(p, d, 3)
    level = [complex(f.values[quadric_indices(p, d, a)].sum()) for a in range(p)]
    prof = srw_profile(f, 1)
    for w in range(p):
        expected = sum(level[a] * cmath.exp(2j * cmath.pi * a * w / p) for a in range(p))
        assert prof[w] == pytest.approx(expected, abs=1e-10)


def test_srw_constant_example():
    assert srw_profile(constant_function(3, 1), 1)[0] == pytest.approx(3.0)


def test_srw_cusp_vanishing():
    f = random_cusp_function(3, 2, 11)
    for r in range(4):
        assert np.abs(srw_profile(f, r)).max() < 1e-9
    assert srw_vanishing(f, 3)
    assert not srw_vanishing(constant_function(3, 2), 3)


def test_cusp_equivalence_sample():
    for (p, d, rmax) in [(3, 2, 3), (5, 3, 3), (2, 4, 4)]:
        for seed in range(10):
            f = random_cusp_function(p, d, seed)
            assert cusp_check(f).is_cusp and srw_vanishing(f, rmax)
            v = f.values.copy()
            v[1] += 0.05
            g = TestFunction(p, d, v)
            assert not cusp_check(g).is_cusp and not srw_vanishing(g, rmax)


# --- auxiliary exponential sums ----------------------------------------------


def test_rsum_examples():
    # all-ones bit vector at r = 3 gives 2^d for every w
    for d in (1, 2, 3):
        for w in (0, 1, 2, 5):
            chk = rsum_check(3, (1,) * d, w)
            assert chk.passed
            if w % 2 == 1:
                assert chk.value == pytest.approx(2**d)
    # r >= 4 kills every nonzero bit vector at odd w
    for k in [(1,), (1, 0), (0, 1), (1, 1), (1, 0, 1)]:
        for w in (1, 3, 5):
            chk = rsum_check(4, k, w)
            assert chk.passed and abs(chk.value) < 1e-8


def test_rsum_grid_brute_vs_predicted():
    for r in (3, 4, 5):
        for d in (1, 2, 3):
            for k in product((0, 1), repeat=d):
                for w in (0, 1, 2, 3, 4, 6, 8):
                    assert rsum_check(r, k, w).passed, (r, k, w)


def test_rsum_validation():
    with pytest.raises(ValidationError):
        rsum_check(2, (1,), 1)
    with pytest.raises(ValidationError):
        rsum_check(3, (2, 0), 1)


def test_tsum_examples():
    # nonzero k mod p dies at w coprime to p
    for k in [(1, 0), (2, 2), (1, 1)]:
        chk = tsum_check(3, 2, k, 1)
        assert chk.passed and abs(chk.value) < 1e-8
    # k in (pZ)^d: p^d times the square sum one level down
    chk = tsum_check(3, 2, (0, 0), 1)
    assert chk.passed and chk.value == pytest.approx(9.0)


def test_tsum_grid_brute_vs_predicted():
    for p in (3, 5):
        for r in (2, 3):
            for d in (1, 2):
                ks = [(0,) * d, (p,) * d, (1,) + (0,) * (d - 1), (p + 1,) * d]
                for k in ks:
                    for w in (0, 1, 2, p, p * p, 3 * p):
                        assert tsum_check(p, r, k, w).passed, (p, r, k, w)
    # one deeper tower for p = 3
    for k in [(0,), (3,), (1,), (9,)]:
        for w in (0, 1, 3, 9, 27, 2):
            assert tsum_check(3, 4, k, w).passed, (k, w)


def test_tsum_answers_while_its_squares_fit_int64():
    # (max k_i mod p^r + p^r)^2 <= 2**63 - 1: computed exactly
    for p, r, k, w in [(1129, 3, (1129**3 - 1,), 7), (1009, 3, (1,), 1), (40009, 2, (1,), 3)]:
        assert tsum_check(p, r, k, w).passed, (p, r, k, w)
    # past it the int64 squares would wrap into a false failure: refused instead
    for p, r, k, w in [(2003, 3, (1,), 5), (3001, 3, (0,), 1), (1151, 3, (1151**3 - 1,), 7)]:
        with pytest.raises(ResourceLimitError, match="int64"):
            tsum_check(p, r, k, w)


def test_tsum_validation():
    with pytest.raises(ValidationError):
        tsum_check(2, 2, (0,), 1)
    with pytest.raises(ValidationError):
        tsum_check(3, 1, (0,), 1)


# --- congruence group and weak modularity ------------------------------------


def test_is_in_gamma():
    for p in (2, 3, 5):
        assert is_in_gamma(((1, 1), (0, 1)), p)
    assert is_in_gamma(((1, 0), (36, 1)), 3)
    assert is_in_gamma(((1, 0), (100, 1)), 5)
    assert not is_in_gamma(((1, 0), (12, 1)), 3)
    assert is_in_gamma(((1, 0), (16, 1)), 2)
    assert not is_in_gamma(((1, 0), (8, 1)), 2)
    with pytest.raises(ValidationError):
        is_in_gamma(((1, 1), (1, 1)), 3)


def test_weak_modularity_translation_exact():
    f = random_even_function(3, 2, 6)
    res = verify_weak_modularity(f, ((1, 1), (0, 1)), 1j, eps=1e-12)
    assert res.residual < 1e-10


def test_weak_modularity_inversion_type_even_d():
    f = random_even_function(3, 2, 8)
    res = verify_weak_modularity(f, ((1, 0), (36, 1)), 1j, eps=1e-10)
    assert res.residual < 1e-6


def test_weak_modularity_full_law_odd_d():
    f = random_even_function(3, 3, 12)
    res = verify_weak_modularity(f, ((1, 0), (36, 1)), 1j, eps=1e-10)
    assert res.label == "weak-modularity c=36"
    assert res.rhs == jacobi_symbol(36, 1) * half_power(36j + 1, 3) * theta_eval(f, 1j, eps=1e-10)
    assert res.residual < 1e-6


def _symbol_minus_one_elements(p: int) -> list:
    """Members of the level-p group, both signs of c and d, with (c/d) = -1."""
    level, step = (16, 4) if p == 2 else (4 * p * p, 4 * p)
    out = []
    for c in (level, -level, 2 * level, -2 * level, -3 * level):
        for d in (1 + step, 1 + 2 * step, 1 + 3 * step, 1 - 5 * step, 1 - 7 * step):
            if math.gcd(c, d) == 1 and jacobi_symbol(c, d) == -1:
                a = pow(d, -1, abs(c))
                out.append(((a, (a * d - 1) // c), (c, d)))
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_weak_modularity_quadratic_symbol(p, d):
    # the (c/d) factor flips the sign at odd d; a modulus check cannot see it
    f = random_even_function(p, d, 1)
    elements = _symbol_minus_one_elements(p)
    assert len(elements) >= 3
    for g in elements:
        assert is_in_gamma(g, p)
        c, dd = g[1]
        for tau in (1j, complex(-dd / c, 1 / abs(c)), 0.3 + 0.5j):
            res = verify_weak_modularity(f, g, tau, eps=1e-12)
            assert res.residual < 1e-9
            unsigned = abs(res.lhs + res.rhs) / max(1.0, abs(res.rhs))
            assert unsigned > 1e-3


def test_weak_modularity_p2():
    f = random_even_function(2, 2, 5)
    assert verify_weak_modularity(f, ((1, 1), (0, 1)), 1j, eps=1e-12).residual < 1e-10
    assert verify_weak_modularity(f, ((1, 0), (16, 1)), 1j, eps=1e-10).residual < 1e-6


def test_weak_modularity_residuals_share_one_base_value(monkeypatch):
    # theta-verify asks for both of its elements at once: the same residuals
    # as one verify_weak_modularity call per element, with theta_f(tau)
    # evaluated once between them instead of twice
    f = random_even_function(3, 3, 4)
    tau, eps = 0.2 + 0.7j, 1e-10
    gs = [((1, 1), (0, 1)), ((1, 0), (36, 1))]
    want = [verify_weak_modularity(f, g, tau, eps) for g in gs]
    points = []
    real_values = theta._theta_values

    def counting_values(f, asks, eps):
        points.extend(ask[0] for ask in asks)
        return real_values(f, asks, eps)

    monkeypatch.setattr(theta, "_theta_values", counting_values)
    assert theta._weak_modularity_residuals(f, gs, tau, eps) == want
    assert len(points) == 3 and points.count(tau) == 1


def test_each_identity_check_makes_one_evaluator_call(monkeypatch):
    # every finite value of a generator table, and every value of a weak
    # modularity check, comes from one _theta_values call; the table's three
    # values at infinity are one-ask calls through theta_j_eval_full
    p, tau = 5, 0.3 + 0.7j
    f = random_even_function(p, 3, 2)
    calls, inside = [], []
    real_values, real_at_inf = theta._theta_values, theta.theta_j_eval_full

    def counting_values(f, asks, eps):
        calls.append((tuple(inside), [dual for _, dual, _, _ in asks]))
        return real_values(f, asks, eps)

    def at_inf(g, j, *args, **kwargs):
        inside.append(j)
        try:
            return real_at_inf(g, j, *args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(theta, "_theta_values", counting_values)
    monkeypatch.setattr(theta, "theta_j_eval_full", at_inf)
    verify_generator_actions(f, tau)
    # -1/(4 tau) once plain and p - 1 times twisted, tau - 1 and tau, and L f at tau
    assert [duals for seen, duals in calls if not seen] == [[False] * (3 * p + 1)]
    assert [(seen, duals) for seen, duals in calls if seen] == [((INF,), [True])] * 3
    calls.clear()
    theta._weak_modularity_residuals(f, [((1, 1), (0, 1)), ((1, 0), (4 * p * p, 1))], tau)
    assert calls == [((), [False] * 3)]


def test_weak_modularity_rejects_non_member():
    f = random_even_function(3, 2, 1)
    with pytest.raises(ValidationError):
        verify_weak_modularity(f, ((1, 0), (12, 1)), 1j)


def test_half_power_principal_branch():
    # arg of the square root stays in (-pi/2, pi/2]
    for z in (1j, -1.0 + 0j, 2.0 - 3.0j, -0.5 + 0.1j):
        root = half_power(z, 1)
        assert -math.pi / 2 < cmath.phase(root) <= math.pi / 2
        assert half_power(z, 2) == pytest.approx(z)
    assert half_power(4.0, 3) == pytest.approx(8.0)


# sha256 of the value bytes of random_cusp_function over d = 1..4 and seeds
# 0, 1, 2, captured before the cusp conditions got their one home
RANDOM_CUSP_GOLDEN = {
    2: "9e4d72f79e9dfe3ec2c3d86d6947fd286eed2628319764515785e68a19321c71",
    3: "5f4af855192bc2633e39961a7fad95003e9ec193a9cbd4c2f521a0e0ced82a4a",
    5: "74b116c4718d81b81511b256ee30e6a0ec5981392006617cc9dcc12195823397",
    7: "5f469fd937a01d5be9ffef73ab1ff5e8b8fb56b7c805ad00bc0ee4a4e8f279dd",
}


@pytest.mark.parametrize("p", RANDOM_CUSP_GOLDEN)
def test_random_cusp_function_values_are_bit_identical(p):
    h = hashlib.sha256()
    for d in range(1, 5):
        for seed in (0, 1, 2):
            h.update(random_cusp_function(p, d, seed).values.tobytes())
    assert h.hexdigest() == RANDOM_CUSP_GOLDEN[p]


def test_cusp_check_reports_each_pinned_point_by_label():
    # a unit at a pinned point, taken back out of its level sum at another
    # point of that level, fails only the pinned condition
    for p, d in ((2, 5), (3, 3), (5, 2)):
        f = random_cusp_function(p, d, 1)
        pinned = {0: "origin", 2**d - 1: "corner (1,...,1)"} if p == 2 else {0: "origin"}
        levels = [quadric_indices(p, d, a) for a in range(4 if p == 2 else p)]
        for e, label in pinned.items():
            level = next(idx for idx in levels if e in idx)
            other = next(int(i) for i in level if int(i) not in pinned)
            v = f.values.copy()
            v[e] += 1.0
            v[other] -= 1.0
            assert cusp_check(TestFunction(p, d, v)).failing_condition == label


def test_gamma_zero_row_is_the_poisson_residual():
    for p, d, tau in ((3, 2, 1j), (5, 3, 0.3 + 0.2j), (7, 4, 0.1 + 0.9j)):
        f = random_even_function(p, d, 2)
        rows = {row.label: row for row in verify_generator_actions(f, tau)}
        assert rows["gamma j=0"] == replace(verify_poisson(f, tau), label="gamma j=0")


def test_srw_vanishing_rejects_negative_rmax():
    with pytest.raises(ValidationError):
        srw_vanishing(constant_function(3, 2), -1)
    with pytest.raises(ValidationError):
        srw_vanishing(random_cusp_function(3, 2, 1), -1)


# --- shared partial sums of one verification call ------------------------------


def _single_row(p, tau, cut):
    """The partial sums of one tau, computed alone: the reference the batched
    rows must match bit for bit."""
    s = np.arange(1, cut + 1, dtype=np.int64)
    t = np.concatenate(([0], np.stack([s, -s], axis=1).ravel()))
    terms = np.exp(2j * np.pi * tau * (t * t))
    res = t % p
    return np.bincount(res, terms.real, minlength=p) + 1j * np.bincount(res, terms.imag, minlength=p)


def test_batched_partial_sum_rows_equal_single_rows():
    # one exponential pass per call: the row counts keep it near 2^17 terms
    rng = random.Random(15015)
    for _ in range(60):
        p = rng.choice((3, 5, 7, 11, 13))
        cut = rng.choice((0, 1, rng.randint(2, 80), rng.randint(2000, 5000), 40000))
        most = max(1, min(25, 2**17 // (2 * cut + 1)))
        taus = [complex(rng.choice((0.0, rng.uniform(-5, 5), 10 ** rng.uniform(0, 12))), 10 ** rng.uniform(-6, 1))
                for _ in range(rng.randint(1, most))]
        rows = theta._partial_theta_rows(p, taus, cut)
        assert rows.shape == (len(taus), p)
        for tau, row in zip(taus, rows):
            assert np.array_equal(row.view(np.int64), _single_row(p, tau, cut).view(np.int64)), (p, tau, cut)


def _row_bits(rows):
    values = [[r.lhs.real, r.lhs.imag, r.rhs.real, r.rhs.imag, r.residual] for r in rows]
    return np.array(values).tobytes() + "|".join(r.label for r in rows).encode()


#: the rows that read a value at infinity
_AT_INF = ("poisson", "alpha j=inf", "gamma j=0", "gamma j=inf")


def test_verification_rows_are_bit_identical_on_a_seeded_grid():
    # the sha256 of every double of these rows, in two parts: the rows with
    # no value at infinity, recorded when the table read the components of
    # L f and L^k S_a f off f itself, and the rows that read one, recorded
    # when the component at infinity took its transform from the FFT
    finite, at_inf = hashlib.sha256(), hashlib.sha256()
    rng = random.Random(15001)
    for p, d in ((3, 1), (3, 2), (3, 3), (3, 5), (5, 2), (5, 3), (7, 2), (7, 3), (11, 2), (13, 2)):
        for _ in range(2):
            f = random_even_function(p, d, rng.randrange(2**31))
            tau = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
            rows = [verify_poisson(f, tau), *verify_generator_actions(f, tau)]
            rows += [verify_weak_modularity(f, g, tau) for g in (((1, 1), (0, 1)), ((1, 0), (4 * p * p, 1)))]
            finite.update(_row_bits([r for r in rows if r.label not in _AT_INF]))
            at_inf.update(_row_bits([r for r in rows if r.label in _AT_INF]))
    assert finite.hexdigest() == "35eef753a353dd580fdcc313c536ac5312f12d1b46489c7d3e5a8812538561ea"
    assert at_inf.hexdigest() == "ce55c1247a5e7cbc8df73c6f3433256a94478888a4db6b41cd80169b0b294eca"


def _table_evaluations(f, tau):
    """Every (function, component, point) the generator table and the
    summation formula evaluate, one entry per evaluation."""
    p = f.p
    tau_inv = -1 / (4 * tau)
    evals = [(f, INF, tau), (f, 0, tau_inv)]
    for j in range(p - 1):
        evals += [(f, j, tau - 1), (f, j + 1, tau)]
    evals += [(f, p - 1, tau - 1), (op_L(f), 0, tau), (f, INF, tau - 1), (f, INF, tau)]
    for j in range(1, p):
        jp, kj = j_prime_k(j, p)
        evals += [(f, j, tau), (op_L(op_Sj(f, (2 * jp) % p), k=(kj * jp) % p), jp, tau_inv)]
    return evals + [(f, INF, tau_inv), (f, 0, tau)]


@pytest.mark.parametrize("p,d,tau", [(3, 4, 0.3 + 0.9j), (5, 3, -1.2 + 0.4j), (11, 2, 1j)])
def test_generator_table_builds_each_partial_sum_once(p, d, tau, monkeypatch):
    f = random_even_function(p, d, 4)
    evals = _table_evaluations(f, tau)
    needed = {(point if j == INF else (point - j) / p**2, theta_j_eval_full(g, j, point).radius)
              for g, j, point in evals}
    built, passes, cuts = [], [], []
    rows_of, cut_of = theta._partial_theta_rows, theta._theta_cut

    def rows(p_, taus, cut):
        passes.append(cut)
        built.extend((tau_eff, cut) for tau_eff in taus)
        return rows_of(p_, taus, cut)

    def search(*key):
        cuts.append(key)
        return cut_of(*key)

    monkeypatch.setattr(theta, "_partial_theta_rows", rows)
    monkeypatch.setattr(theta, "_theta_cut", search)
    verify_generator_actions(f, tau)
    assert len(built) == len(set(built)) and set(built) == needed
    # the finite components search each cut once; each of the three values
    # at infinity is one theta_j_eval_full call with its own search
    finite = [key for key in cuts if key[2] == 1]
    assert len(finite) == len(set(finite))
    assert len(cuts) - len(finite) == 3
    # the 4p + 4 evaluations need about half as many vectors, built in a few
    # passes beside the three at infinity: one for tau - 1 and tau, whose
    # finite components share their cut, and one for -1/(4 tau)
    assert len(built) < len(evals) and len(passes) - 3 <= 2


@pytest.mark.parametrize("p,d", [(3, 4), (5, 3), (11, 2)])
def test_generator_table_forms_no_function_but_f(p, d, monkeypatch):
    # every component of L f and L^k S_a f is read off f itself: the table
    # constructs no TestFunction and reads no levels of Q
    f = random_even_function(p, d, 4)
    assert f.is_even and f.max_abs > 0  # f's own flags, outside the count
    made, levels = [], []
    init, qmod = TestFunction.__init__, theta.qmod_vector

    def counted_init(self, *args):
        made.append(args[:2])
        init(self, *args)

    def counted_qmod(*args):
        levels.append(args)
        return qmod(*args)

    monkeypatch.setattr(TestFunction, "__init__", counted_init)
    monkeypatch.setattr(theta, "qmod_vector", counted_qmod)
    verify_generator_actions(f, 0.3 + 0.9j)
    assert made == [] and levels == []


def test_generator_table_peak_memory_holds_no_derived_function():
    # f holds 14.8 MB at p = 31, d = 4; p - 1 functions of that size, even
    # made a few at a time, would take several times this bound
    f = random_even_function(31, 4, 2)
    assert f.is_even and f.max_abs > 0  # f's own flags, outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        verify_generator_actions(f, 0.2 + 0.8j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_twisted_asks_match_the_operator_path():
    # the component j of L^k S_a f, read off f by one twisted ask, against the
    # same component of the function the public operators form
    rng = random.Random(28001)
    for p in (3, 5, 7, 11, 31):
        for d in (1, 2, 3):
            f = random_even_function(p, d, rng.randrange(2**31))
            tau = complex(rng.uniform(-2, 2), rng.uniform(0.1, 1.5))
            for point in (tau, tau - 1, -1 / (4 * tau)):
                for _ in range(3):
                    a, k, j = rng.randrange(1, p), rng.randrange(p), rng.randrange(p)
                    ask = theta._component(f, j, point)[:2] + (a, k)
                    got = theta._theta_values(f, [ask], DEFAULT_EPS)[0].value
                    want = theta_j_eval_full(op_L(op_Sj(f, a), k), j, point).value
                    assert abs(got - want) <= 1e-13 * abs(want), (p, d, a, k, j, point)


@pytest.mark.parametrize("p,d", [(3, 9), (31, 4), (5, 3), (11, 2), (7, 1)])
def test_batched_values_equal_each_ask_alone(p, d, monkeypatch):
    # one call contracts f with the vectors of a whole pass, in groups of at
    # most _PASS_TERMS // p^(d-1) (2 at (3, 9); 1 at (31, 4), where
    # p^(d-1) > 2^14); every value, tail and radius is bit for bit the ask's
    # own one-ask call, for plain, twisted, scaled and dual asks
    rng = random.Random(30001 + p * d)
    f = random_even_function(p, d, rng.randrange(2**31))
    tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 1.2))
    asks = []
    for point in (tau, tau - 1, -1 / (4 * tau)):
        for j in range(min(p, 4)):
            asks.append(theta._component(f, j, point))
        for _ in range(3):
            ask = theta._component(f, rng.randrange(p), point)
            asks.append(ask[:2] + (rng.randrange(1, p), rng.randrange(p)))
        asks.append(theta._component(f, INF, point))
        asks.append(theta._component(f, INF, point)[:2] + (rng.randrange(1, p), rng.randrange(1, p)))
    widths, contract = [], theta._contract

    def spy(g, w):
        widths.append(len(w))
        return contract(g, w)

    monkeypatch.setattr(theta, "_contract", spy)
    batched = theta._theta_values(f, asks, DEFAULT_EPS)
    group = max(1, theta._PASS_TERMS // p ** (d - 1))
    assert max(widths) <= group and sum(widths) == len(asks)
    if group < 8:  # some pass holds more asks than a group: it is split
        assert widths.count(group) >= 4
    alone = [theta._theta_values(f, [ask], DEFAULT_EPS)[0] for ask in asks]
    assert _value_bits(batched) == _value_bits(alone)


def test_generator_table_keeps_nothing_past_the_call():
    f = random_even_function(5, 3, 11)
    verify_generator_actions(f, 0.2 + 0.8j)  # f's own flags, numpy's lazy set-up
    module_state = dict(vars(theta))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for k in range(6):
            rows = verify_generator_actions(f, complex(0.1 * k, 0.8))
            assert len(rows) == 2 * 5 + 2
        del rows
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert vars(theta).keys() == module_state.keys()
    assert all(vars(theta)[name] is obj for name, obj in module_state.items())
    # one kept partial-sum vector alone would take more than this
    assert left < 512


def test_generator_table_peak_memory_is_one_evaluation_at_infinity():
    # at p = 1009, d = 1 each of the 3p finite components has a cut near
    # 2200.  A value at infinity peaks at about 0.2 MB and the whole table at
    # 1.4 MiB, in passes of at most 2^14 terms.  Keeping every finite
    # component's partial sums for the whole call would take 16 KB a
    # component, 48 MB here.
    f = random_even_function(1009, 1, 3)
    tau = 0.3 + 0.9j
    assert f.is_even and f.max_abs > 0  # f's own flags, outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        verify_generator_actions(f, tau)
        table = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table < 2 * 2**20


def test_max_abs_is_computed_once():
    f = random_even_function(3, 2, 1)
    assert f.max_abs is f.max_abs
    assert f.max_abs == float(np.abs(f.values).max())


def _value_bits(values):
    return np.array([[v.value.real, v.value.imag, v.tail, v.radius] for v in values]).tobytes()


def test_public_evaluators_are_bit_identical_on_a_seeded_grid():
    # the sha256 of value, tail and radius of theta_eval_full and of every
    # theta_j_eval_full component, in two parts: the finite ones, recorded
    # before the single evaluations and the generator tables shared one
    # evaluator, and the components at infinity, recorded when they took
    # their transform from the FFT
    finite, at_inf = hashlib.sha256(), hashlib.sha256()
    rng = random.Random(16001)
    for p, d in ((3, 1), (3, 2), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2), (13, 1)):
        for _ in range(3):
            f = random_even_function(p, d, rng.randrange(2**31))
            tau = complex(rng.uniform(-2, 2), 10 ** rng.uniform(-2.5, 0.5))
            eps = rng.choice((1e-12, 1e-8))
            finite.update(_value_bits([theta_eval_full(f, tau, eps)] + [theta_j_eval_full(f, j, tau, eps) for j in range(p)]))
            at_inf.update(_value_bits([theta_j_eval_full(f, INF, tau, eps)]))
    assert finite.hexdigest() == "c3d7a2b4a318e68c6239d5ff28227937a92f32fe859ccfa45209786a884f0292"
    assert at_inf.hexdigest() == "0ae47fa554a6e1e368bcfd3d3884c6b48b7cc852195f709275aaf908e3e6bfa5"


def test_generator_table_reads_infinity_through_the_public_evaluator(monkeypatch):
    # the bench self-test corrupts theta_j_eval_full at infinity and needs every
    # table to notice: the rows that read a value at infinity must move, and
    # only they
    f = random_even_function(5, 3, 2)
    tau = 0.3 + 0.7j
    clean = verify_generator_actions(f, tau)
    public = theta.theta_j_eval_full

    def scaled(g, j, *args, **kwargs):
        val = public(g, j, *args, **kwargs)
        return replace(val, value=val.value * (1 + 1e-6)) if j == INF else val

    monkeypatch.setattr(theta, "theta_j_eval_full", scaled)
    moved = verify_generator_actions(f, tau)
    assert [r.label for r in moved] == [r.label for r in clean]
    # (lhs, rhs) read a value at infinity
    at_inf = {"alpha j=inf": (True, True), "gamma j=0": (True, False), "gamma j=inf": (True, False)}
    for old, new in zip(clean, moved):
        sides = (np.array([old.lhs, old.rhs]) != np.array([new.lhs, new.rhs])).tolist()
        assert tuple(sides) == at_inf.get(old.label, (False, False)), old.label
        if old.label not in at_inf:
            assert _row_bits([old]) == _row_bits([new]), old.label
