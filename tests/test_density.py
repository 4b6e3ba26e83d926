"""Density-layer tests: Gauss sums and circle-method coefficients against
literal direct summation, closed forms of the local densities, the singular
series, and the growth/gap checks."""

import cmath
import hashlib
import math
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest

import quadsum
from quadsum import theta
from quadsum.density import (
    _gauss_table,
    _two_adic_delta,
    _unit_phases,
    a_coeff_closed,
    a_coeff_direct,
    density_gap_check,
    difference_check,
    gamma_half_integer,
    gauss_sum,
    gauss_sum_prime_power,
    local_density,
    main_term,
    singular_series,
    twisted_unit_phase_sum_check,
    unit_phase_sum_check,
)
from quadsum.errors import ResourceLimitError, ValidationError
from quadsum.lattice import count_range

SQ3 = math.sqrt(3.0)
SQ5 = math.sqrt(5.0)


# --- literal oracles (no vectorization, no tables) ---------------------------


def _gauss_oracle(q, a):
    return sum(cmath.exp(2j * cmath.pi * a * t * t / q) for t in range(1, q + 1))


def _a_coeff_oracle(d, q, n):
    total = 0j
    for a in range(1, q + 1):
        if gcd(a, q) == 1:
            total += (_gauss_oracle(q, a) / q) ** d * cmath.exp(-2j * cmath.pi * n * a / q)
    return total


def _two_adic_density_exact(d, n):
    """delta_{2,d}(n) as an exact fraction.  A primitive solution of
    Q(x) = n mod 8 (some coordinate odd) lifts to 2^{d-1} solutions at every
    higher power of 2, and the imprimitive ones x = 2y give
    delta(4m) = 2^{2-d} delta(m) + prim(4m), while prim(n) alone when 4 does
    not divide n."""

    def by_class(coords):
        counts = [1] + [0] * 7
        for _ in range(d):
            nxt = [0] * 8
            for s, c in enumerate(counts):
                for t in coords:
                    nxt[(s + t * t) % 8] += c
            counts = nxt
        return counts

    every, even = by_class(range(8)), by_class(range(0, 8, 2))
    total, scale = Fraction(0), Fraction(1)
    while True:
        total += scale * Fraction(every[n % 8] - even[n % 8], 8 ** (d - 1))
        if n % 4:
            return total
        n //= 4
        scale *= Fraction(4, 2**d)


def test_gauss_sum_examples():
    assert gauss_sum(3, 1) == pytest.approx(1j * SQ3, abs=1e-12)
    assert gauss_sum(5, 1) == pytest.approx(SQ5, abs=1e-12)
    for a in (0, 1, 7, -3):
        assert gauss_sum(1, a) == pytest.approx(1.0)


def test_gauss_sum_against_literal_oracle():
    for q in list(range(1, 30)) + [49, 64, 125]:
        for a in (1, 2, 5, q - 1 if q > 1 else 1):
            assert gauss_sum(q, a) == pytest.approx(_gauss_oracle(q, a), abs=1e-9)


def test_gauss_sum_reduces_a_before_the_int64_product():
    q, a = 1000003, 2**45 + 1
    assert gauss_sum(q, a) == gauss_sum(q, a % q)
    assert gauss_sum(q, a) == pytest.approx(gauss_sum_prime_power(q, 1, a), abs=1e-6)


def test_gauss_sum_prime_power_examples():
    assert gauss_sum_prime_power(3, 1, 1) == pytest.approx(1j * SQ3, abs=1e-12)
    assert gauss_sum_prime_power(3, 2, 1) == pytest.approx(3.0, abs=1e-12)
    # (2/5) = -1, epsilon_5 = 1
    assert gauss_sum_prime_power(5, 3, 2) == pytest.approx(-5 * SQ5, abs=1e-12)
    assert gauss_sum_prime_power(5, 3, 2) == pytest.approx(gauss_sum(125, 2), abs=1e-9)


def test_gauss_sum_prime_power_matches_direct_grid():
    for p in (3, 5, 7):
        for h in range(1, 5):
            for a in (1, 2, p + 1, 2 * p - 1):
                if gcd(a, p) != 1:
                    continue
                assert gauss_sum_prime_power(p, h, a) == pytest.approx(
                    gauss_sum(p**h, a), abs=1e-9
                )


def test_gauss_sum_odd_modulus_closed_form():
    # S(q, a) = (a/q) epsilon_q sqrt(q) for any odd q and gcd(a, q) = 1
    from quadsum.arith import epsilon, jacobi_symbol

    for q in (15, 21, 45, 105):
        for a in (1, 2, 4, 8, 11):
            if gcd(a, q) != 1:
                continue
            closed = jacobi_symbol(a, q) * epsilon(q) * math.sqrt(q)
            assert gauss_sum(q, a) == pytest.approx(closed, abs=1e-9), (q, a)


def test_gauss_sum_prime_power_rejects():
    with pytest.raises(ValidationError):
        gauss_sum_prime_power(2, 2, 1)
    with pytest.raises(ValidationError):
        gauss_sum_prime_power(3, 1, 6)
    with pytest.raises(ValidationError):
        gauss_sum_prime_power(3, 0, 1)


def test_a_coeff_direct_is_the_defining_sum():
    for (d, q, n) in [
        (3, 4, 1), (4, 3, 1), (4, 9, 1), (5, 8, 3), (4, 12, 7), (6, 25, 10),
        (4, 1, 5), (3, 27, 9), (5, 16, 4), (4, 45, 6),
    ]:
        assert a_coeff_direct(d, q, n) == pytest.approx(_a_coeff_oracle(d, q, n), abs=1e-10)


def _direct_layer_grid():
    """A seeded grid over the direct layer: a_coeff_direct at prime powers up
    to 2^18 and a few composite moduli, local_density at p in {2, 3, 5, 7, 13},
    and both unit phase-sum checks."""
    rng = random.Random(19)
    moduli = (
        [2**k for k in range(1, 19)] + [3**k for k in range(1, 10)]
        + [5**k for k in range(1, 7)] + [7**k for k in range(1, 6)]
        + [13**k for k in range(1, 5)] + [12, 30, 360, 1001]
    )
    for q in moduli:
        odd_2v = (2 * rng.randrange(500) + 1) << rng.randrange(19)
        for n in (0, 1, q, 2 * q, q // 2, q - 1, rng.randrange(1, 10**9), odd_2v):
            for d in (1, 3, 4, 5, 8):
                yield "a", (d, q, n)
    densities = {2: (1, 6, 96, 7 * 2**9, 3 * 2**13), 3: (1, 6, 81, 2 * 3**7),
                 5: (1, 10, 5**4), 7: (3, 98), 13: (1, 169)}
    for p, ns in densities.items():
        for d in (3, 4, 5, 8):
            for n in ns:
                yield "density", (p, d, n)
    for p in (3, 5, 7, 13):
        for n in (1, 2, p, 3 * p**2, p**3):
            yield "phase", (p, n)
            for h in range(1, 5):
                yield "twisted", (p, h, n)


def _direct_layer_digest() -> str:
    """sha256 over the doubles of every grid value, in grid order."""
    digest = hashlib.sha256()
    for kind, args in _direct_layer_grid():
        if kind == "a":
            z = a_coeff_direct(*args)
            digest.update(struct.pack("<2d", z.real, z.imag))
        elif kind == "density":
            rep = local_density(*args)
            for z in rep.terms:
                digest.update(struct.pack("<2d", z.real, z.imag))
            digest.update(struct.pack("<d", rep.delta))
        else:
            check = unit_phase_sum_check if kind == "phase" else twisted_unit_phase_sum_check
            chk = check(*args)
            digest.update(struct.pack("<4d?", chk.value.real, chk.value.imag,
                                      chk.expected.real, chk.expected.imag, chk.passed))
    return digest.hexdigest()


# recorded before the direct layer gathered its phases and kept unit-only
# Gauss tables, with each p = 2 term list cut by its last term, the
# h = ord_2(n) + 4 term the 2-adic density no longer sums; it must not change
# by one bit
DIRECT_LAYER_DIGEST = "82628298fa1bfde3958a84904d03ee74f8901fff7a9036bf46ba744fd8d26f57"


def test_direct_layer_is_bit_identical():
    # a child process with one BLAS thread: past 10^4 units a threaded
    # complex dot product sums in another order, so the digest would depend
    # on the core count
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == DIRECT_LAYER_DIGEST


def test_gauss_table_cache_is_bounded_and_shared_read_only():
    assert _gauss_table.cache_info().maxsize == 64
    coprime, svals = _gauss_table(27)
    assert _gauss_table(27)[0] is coprime  # every caller gets the same arrays,
    assert not coprime.flags.writeable and not svals.flags.writeable  # so none may write


def test_a_coeff_examples():
    for d in (3, 4, 7):
        for n in (1, 2, 9):
            assert a_coeff_direct(d, 1, n) == 1
    assert a_coeff_direct(4, 3, 1) == pytest.approx(-1 / 9, abs=1e-12)
    assert a_coeff_direct(4, 9, 1) == pytest.approx(0.0, abs=1e-12)


def test_a_coeff_closed_examples():
    assert a_coeff_closed(4, 3, 1, 1) == pytest.approx(-1 / 9, abs=1e-15)
    assert a_coeff_closed(4, 3, 1, 3) == pytest.approx(2 / 9, abs=1e-15)
    assert a_coeff_closed(5, 3, 1, 1) == pytest.approx(a_coeff_direct(5, 3, 1), abs=1e-10)
    assert a_coeff_closed(4, 3, 2, 1) == 0


def test_a_coeff_closed_vs_direct_spot_grid():
    for p in (3, 5):
        for d in (3, 4, 5, 6):
            for h in (1, 2, 3):
                for n in (1, 2, p, p**2, 3 * p, 4 * p**2, 60):
                    assert a_coeff_closed(d, p, h, n) == pytest.approx(
                        a_coeff_direct(d, p**h, n), abs=1e-8
                    ), (d, p, h, n)


def test_a_coeff_multiplicative_in_modulus():
    for d in (4, 5):
        for q1 in (3, 4, 5, 9):
            for q2 in (7, 8, 11, 25, 45):
                if gcd(q1, q2) != 1 or q2 > 45:
                    continue
                for n in (1, 5, 12):
                    lhs = a_coeff_direct(d, q1 * q2, n)
                    rhs = a_coeff_direct(d, q1, n) * a_coeff_direct(d, q2, n)
                    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_a_coeff_closed_rejects_p2():
    with pytest.raises(ValidationError):
        a_coeff_closed(4, 2, 1, 1)


def test_local_density_example_d4():
    rep = local_density(3, 4, 1)
    assert rep.method == "closed-form"
    assert rep.delta == pytest.approx(8 / 9, abs=1e-15)
    # delta agrees with the term sum 1 + A_4(3,1)
    assert sum(rep.terms).real == pytest.approx(8 / 9, abs=1e-12)


def test_local_density_square_unit_invariance_exact():
    for u in (2, 5, 7):
        assert local_density(3, 4, u * u).delta == local_density(3, 4, 1).delta
    for p in (3, 5, 7):
        for d in (3, 4, 5, 6):
            for n in (1, 2, 6, p, p**2 * 3):
                for u in (2, 3, 4, 5, 6):
                    if gcd(u, p) != 1:
                        continue
                    assert local_density(p, d, u * u * n).delta == local_density(p, d, n).delta


def test_local_density_invariance_fails_when_u_shares_p():
    # u = 6 is not coprime to p = 3: the valuation shifts and the density moves
    assert local_density(3, 4, 36).delta != local_density(3, 4, 1).delta


def test_local_density_odd_d_explicit_constants():
    # d = 5, p = 3, n = 3: odd valuation branch.  The n-free coefficient of
    # p^{(1-d/2) ord} is -p^{1-d/2} F, the unique value consistent with the
    # finite term sum; here the branch collapses to F (1 - 3^{-3}) = 80/81.
    f_const = (1 - 3**-4) / (1 - 3**-3)
    e_const = -(3**-1.5) * f_const
    expected = 3**-1.5 * e_const + f_const
    rep = local_density(3, 5, 3)
    assert rep.delta == pytest.approx(expected, abs=1e-15)
    assert rep.delta == pytest.approx(80 / 81, abs=1e-14)
    brute = sum(a_coeff_direct(5, 3**h, 3) for h in range(8))
    assert rep.delta == pytest.approx(brute.real, abs=1e-10)


def test_local_density_closed_matches_partial_sums():
    for p in (3, 5):
        for d in (3, 4, 5, 6):
            for n in (1, 2, p, 2 * p**2, p**3):
                ord_n = 0
                m = n
                while m % p == 0:
                    m //= p
                    ord_n += 1
                # terms vanish beyond ord + 1; two extra moduli confirm it
                brute = sum(a_coeff_direct(d, p**h, n) for h in range(ord_n + 4))
                assert local_density(p, d, n).delta == pytest.approx(brute.real, abs=1e-9)


def test_local_density_p2_bruteforce_path():
    rep = local_density(2, 5, 12)
    assert rep.method == "brute-force"
    # terms cover h = 0..ord+3, and the sum is real
    assert len(rep.terms) == 6
    assert abs(sum(rep.terms).imag) < 1e-12
    assert rep.delta == pytest.approx(sum(rep.terms).real, abs=1e-12)
    # The next term, h = ord + 4, is exactly 0.  Computed, it is a sum of q/2
    # unit terms (q = 2^h) of modulus (2/q)^{d/2} each, so of absolute sum
    # (2/q)^{d/2 - 1}; the floating-point sum of q/2 terms, each a d-th power
    # of a table entry, stays within q d eps times that.
    rng = random.Random(20)
    for d in range(3, 13):
        for v in range(15):
            n = (2 * rng.randrange(512) + 1) << v
            terms = local_density(2, d, n).terms
            assert len(terms) == v + 4, (d, n)
            q = 2 ** len(terms)
            bound = q * d * sys.float_info.epsilon * (2 / q) ** (d / 2 - 1)
            assert abs(a_coeff_direct(d, q, n)) <= bound, (d, n)


def test_local_density_p2_matches_exact_reference():
    cases = [(d, n) for d in range(3, 9) for n in range(1, 41)]
    cases += [(d, 2**16) for d in (3, 5, 8)] + [(5, 3 * 2**15), (6, 2**13 * 7)]
    for d, n in cases:
        rep = local_density(2, d, n)
        assert len(rep.terms) == (n & -n).bit_length() + 3  # h = 0..ord_2(n) + 3
        assert rep.delta == pytest.approx(float(_two_adic_density_exact(d, n)), abs=1e-12)


# n <= 2000 and, for each v <= 20, two seeded n = odd * 2^v
_rng = random.Random(12)
TWO_ADIC_GRID = list(range(1, 2001)) + [
    (2 * _rng.randrange(2048) + 1) << v for v in range(21) for _ in range(2)
]


@pytest.mark.parametrize("d", range(5, 13))
def test_two_adic_delta_is_the_exact_density_rounded_once(d):
    for n in TWO_ADIC_GRID:
        assert _two_adic_delta(d, n) == float(_two_adic_density_exact(d, n)), (d, n)


@pytest.mark.parametrize("d", range(5, 9))
def test_two_adic_delta_is_the_direct_sum_bit_for_bit(d):
    # local_density(2, ...) is the direct sum of A_d(2^h, n), h <= ord_2(n) + 3,
    # so it answers only while 2^{ord_2(n) + 3} <= Q_CAP
    for n in TWO_ADIC_GRID:
        try:
            direct = local_density(2, d, n).delta
        except ResourceLimitError:
            assert (n & -n).bit_length() - 1 > 17, n
            continue
        assert _two_adic_delta(d, n) == direct, (d, n)


def test_singular_series_builds_no_gauss_table():
    _gauss_table.cache_clear()
    singular_series(5, 3 * 2**20)
    assert _gauss_table.cache_info().currsize == 0


def test_singular_series_at_high_power_of_two():
    series = singular_series(6, 2**40)
    assert series.factors[2] == float(_two_adic_density_exact(6, 2**40))
    assert math.isfinite(series.value) and series.value > 0


def test_gauss_table_units_are_the_coprime_residues():
    moduli = [1] + [2**k for k in range(1, 19)] + [3**11, 5**8, 7**7, 2**10 * 3**5]
    for q in moduli:
        want = np.nonzero(np.gcd(np.arange(q), q) == 1)[0]
        got = _gauss_table(q)[0]
        assert got.dtype == want.dtype and np.array_equal(got, want), q
    _gauss_table.cache_clear()  # drop the large tables built here


def test_gauss_table_keeps_only_the_units():
    # 2^17 units of 8 + 16 bytes each (a view counts its whole base); all
    # 2^18 Gauss sums would add 2 MiB
    _gauss_table.cache_clear()
    table = _gauss_table(2**18)
    held = sum((a if a.base is None else a.base).nbytes for a in table)
    assert held <= 2**17 * 24 + 4096
    _gauss_table.cache_clear()


def test_unit_phases_match_one_exponential_per_unit():
    # the q/g multiples of g = gcd(n, q), exponentiated once and gathered,
    # are the doubles a per-unit exponential gives, at g = 1 too
    moduli = ([2**k for k in range(1, 15)] + [3**k for k in range(1, 9)]
              + [5**k for k in range(1, 6)] + [7**4, 12, 15, 360, 1001])
    _gauss_table.cache_clear()
    try:
        for q in moduli:
            coprime = _gauss_table(q)[0]
            for n in [*range(40), q, 2 * q + 1, 12345, 10**6 + 3, 3**7 * 5]:
                want = np.exp(-2j * np.pi * ((n % q * coprime) % q) / q)
                assert np.array_equal(_unit_phases(q, n).view(np.uint64), want.view(np.uint64)), (q, n)
    finally:
        _gauss_table.cache_clear()


def test_gauss_table_bits_match_the_float_transform():
    # the in-place complex transform, the units taken after it, gives the
    # same doubles as the conjugated FFT of the float counts, gathered at
    # the units
    moduli = [2**k for k in range(1, 18)] + [3**k for k in range(1, 12)] + [15, 360, 1001]
    _gauss_table.cache_clear()
    try:
        for q in moduli:
            counts = np.bincount(np.arange(1, q + 1, dtype=np.int64) ** 2 % q, minlength=q)
            coprime = np.nonzero(np.gcd(np.arange(q), q) == 1)[0]
            want = np.conjugate(np.fft.fft(counts.astype(np.float64)))[coprime] / q
            got = _gauss_table(q)[1]
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), q
    finally:
        _gauss_table.cache_clear()


def test_gauss_table_peak_memory():
    # cold build of 2^17: the peak is the squares, their int64 counts and the
    # complex counts, 32 bytes per residue; the in-place transform and the
    # units after it stay below that
    q = 2**17
    _gauss_table.cache_clear()
    tracemalloc.start()
    try:
        _gauss_table(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _gauss_table.cache_clear()
    assert peak <= 32 * q + 64 * 1024


def test_two_adic_density_builds_no_table_past_its_last_term():
    # ord_2(n) = 14: the terms h = 1..17 read the tables 2^1..2^17, and the
    # vanishing h = 18 term is not summed, so 2^18 is never built
    _gauss_table.cache_clear()
    try:
        local_density(2, 5, 3 * 2**14)
        assert _gauss_table.cache_info().currsize == 17
        hits = _gauss_table.cache_info().hits
        _gauss_table(2**17)
        assert _gauss_table.cache_info().hits == hits + 1
    finally:
        _gauss_table.cache_clear()


def test_two_adic_density_peak_memory():
    # cold cache, moduli up to 2^17: 5.9 MB peak (7.5 MB with a float transform
    # and the units alive during it); moduli up to 2^18 took 17.8 MB with all
    # Gauss sums kept and 14.7 MB with the unit sums only
    _gauss_table.cache_clear()
    tracemalloc.start()
    try:
        local_density(2, 5, 3 * 2**14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        _gauss_table.cache_clear()
    assert peak < 16_000_000


def test_local_density_validation():
    with pytest.raises(ValidationError):
        local_density(3, 2, 1)
    with pytest.raises(ValidationError):
        local_density(3, 4, 0)
    with pytest.raises(ValidationError):
        local_density(9, 4, 1)


def test_unit_phase_sum_examples():
    for p in (3, 5, 7):
        for n in (1, p, 3 * p**2, 4):
            chk = unit_phase_sum_check(p, n)
            assert chk.passed, (p, n, chk)


def test_twisted_unit_phase_sum_cases():
    for p in (3, 5):
        for n in (1, 2, p, p**2, 3 * p**2):
            ord_n = 0
            m = n
            while m % p == 0:
                m //= p
                ord_n += 1
            # at the critical modulus and beyond it
            for h in range(max(2, ord_n + 1), ord_n + 4):
                chk = twisted_unit_phase_sum_check(p, h, n)
                assert chk.passed, (p, h, n, chk)


def test_gamma_half_integer():
    assert gamma_half_integer(5) == pytest.approx(3 * math.sqrt(math.pi) / 4, rel=1e-15)
    assert gamma_half_integer(2) == 1.0
    assert gamma_half_integer(8) == 6.0
    for d in range(1, 14):
        assert gamma_half_integer(d) == pytest.approx(math.gamma(d / 2), rel=1e-14)


def test_singular_series_positive_and_stable():
    # odd d: prime-p factors deviate from 1 by ~ p^{(1-d)/2} = p^{-2} at d=5,
    # so the 50 -> 200 cutoff move shifts the product by a few parts in 1e3;
    # even d tails decay like p^{-d/2} and are far below 1e-4
    v50 = singular_series(5, 1, 50)
    v200 = singular_series(5, 1, 200)
    assert v50.value > 0
    assert abs(v200.value - v50.value) / v50.value < 5e-3
    w50 = singular_series(6, 1, 50)
    w200 = singular_series(6, 1, 200)
    assert abs(w200.value - w50.value) / w50.value < 1e-4


def test_singular_series_factor_invariance():
    a = singular_series(6, 4, 50)
    b = singular_series(6, 36, 50)
    assert a.factors[5] == b.factors[5]


def test_singular_series_positivity_sweep():
    for n in range(1, 1001):
        assert singular_series(5, n, 50).value > 0


def test_singular_series_validation():
    with pytest.raises(ValidationError):
        singular_series(4, 1, 50)
    with pytest.raises(ValidationError):
        singular_series(5, 0, 50)


def test_main_term_example():
    series = singular_series(5, 1, 50)
    expected = math.pi**2.5 / (3 * math.sqrt(math.pi) / 4) * series.value
    assert main_term(5, 1, 50) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValidationError):
        main_term(5, 0, 50)


def test_main_term_tracks_counts_small_band():
    counts = count_range(5, 600)
    for n in (256, 300, 407, 512, 600):
        ratio = int(counts[n]) / main_term(5, n, 101)
        assert 0.6 <= ratio <= 1.6


def test_difference_check_d4_examples():
    chk = difference_check(4, 3, 1)
    assert (chk.lhs, chk.bound, chk.passed) == (96, 96.0, True)
    chk = difference_check(4, 3, 5)
    assert chk.lhs >= 480 and chk.passed
    with pytest.raises(ValidationError):
        difference_check(4, 3, 2)


def test_difference_check_d5_sweep():
    # ratio lhs / n^{3/2} stays above a positive floor on a dyadic sweep
    ratios = []
    for n in (16, 32, 64, 128, 256, 512):
        chk = difference_check(5, 3, n, coeff=1.0)
        ratios.append(chk.lhs / n**1.5)
    assert min(ratios) > 0
    chk = difference_check(5, 3, 64, coeff=min(ratios))
    assert chk.passed
    with pytest.raises(ValidationError):
        difference_check(5, 3, 64)  # coefficient required


def test_density_gap_check_examples():
    chk = density_gap_check(3, 4, 1)
    assert chk.value == pytest.approx(32 / 3, abs=1e-12)
    assert chk.passed
    f_const = (1 - 3**-4) / (1 - 3**-3)
    chk = density_gap_check(3, 5, 1)
    assert chk.value == pytest.approx((3**3 - 1) * f_const, abs=1e-12)
    assert chk.passed


def test_every_sum_check_returns_the_one_record():
    assert quadsum.SumCheck is quadsum.density.SumCheck is theta.SumCheck
    checks = [
        theta.rsum_check(4, (0, 0), 1),
        theta.tsum_check(3, 2, (0, 0), 1),
        unit_phase_sum_check(3, 6),
        twisted_unit_phase_sum_check(3, 2, 3),
        density_gap_check(3, 4, 1),
    ]
    for chk in checks:
        assert type(chk) is quadsum.SumCheck
        assert chk.passed and abs(chk.value - chk.expected) <= 1e-8 * max(1.0, abs(chk.expected))


def test_density_gap_value_is_n_free():
    vals = {round(density_gap_check(3, 4, n).value, 12) for n in (1, 3, 9, 7)}
    assert len(vals) == 1
    vals = {round(density_gap_check(5, 7, n).value, 9) for n in (1, 5, 25, 6)}
    assert len(vals) == 1


if __name__ == "__main__":
    print(_direct_layer_digest())
