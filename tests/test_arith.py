"""Exact-arithmetic tests: symbols against a factorization oracle,
valuation round-trips, and the inverse-pairing involution."""

import random

import pytest

from quadsum.arith import (
    epsilon,
    epsilon_power,
    factorize,
    is_prime,
    j_prime_k,
    jacobi_symbol,
    largest_prime_factor,
    p_adic_split,
    primes_upto,
    require_prime,
)
from quadsum.errors import ValidationError


# --- oracle: symbol via factorization and Euler's criterion -----------------


def _legendre(c: int, p: int) -> int:
    c %= p
    if c == 0:
        return 0
    t = pow(c, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def _jacobi_oracle(c: int, d: int) -> int:
    assert d % 2 == 1 and d != 0
    if c == 0:
        return 1 if d in (1, -1) else 0
    if d < 0:
        return (1 if c > 0 else -1) * _jacobi_oracle(c, -d)
    result = 1
    for p, k in factorize(d).items():
        result *= _legendre(c, p) ** k
    return result


def test_jacobi_examples():
    assert jacobi_symbol(0, 1) == 1
    assert jacobi_symbol(-1, 7) == -1
    # (2/15) = (2/3)(2/5) = (-1)(-1)
    assert jacobi_symbol(2, 15) == 1


def test_jacobi_zero_numerator_convention():
    assert jacobi_symbol(0, -1) == 1
    assert jacobi_symbol(0, 5) == 0
    assert jacobi_symbol(0, -9) == 0


def test_jacobi_negative_denominator():
    for c in (1, 2, 3, -2, -7, 10):
        for d in (-1, -3, -5, -9, -15, -21):
            assert jacobi_symbol(c, d) == _jacobi_oracle(c, d)


def test_jacobi_matches_factorization_oracle_exhaustively():
    for d in range(-199, 200, 2):
        for c in range(-200, 201):
            assert jacobi_symbol(c, d) == _jacobi_oracle(c, d), (c, d)


def test_jacobi_multiplicative_in_numerator():
    for d in range(1, 200, 2):
        for c1 in range(-15, 16):
            for c2 in range(-15, 16):
                assert jacobi_symbol(c1 * c2, d) == jacobi_symbol(c1, d) * jacobi_symbol(c2, d)


def test_jacobi_multiplicative_in_denominator():
    import math

    for d1 in range(1, 60, 2):
        for d2 in range(1, 60, 2):
            if math.gcd(d1, d2) != 1:
                continue
            for c in (-7, -2, 1, 2, 3, 10):
                assert jacobi_symbol(c, d1 * d2) == jacobi_symbol(c, d1) * jacobi_symbol(c, d2)


def test_jacobi_minus_one_formula():
    for d in range(-199, 200, 2):
        assert jacobi_symbol(-1, d) == (-1) ** ((d - 1) // 2)


def test_jacobi_rejects_even_or_zero():
    with pytest.raises(ValidationError):
        jacobi_symbol(3, 4)
    with pytest.raises(ValidationError):
        jacobi_symbol(3, 0)


def test_epsilon_values():
    assert epsilon(5) == 1
    assert epsilon(7) == 1j
    assert epsilon(-1) == 1j
    assert epsilon(1) == 1
    with pytest.raises(ValidationError):
        epsilon(4)


def test_epsilon_squared_is_minus_one_symbol():
    for d in range(-199, 200, 2):
        assert epsilon(d) ** 2 == pytest.approx(jacobi_symbol(-1, d))


def test_epsilon_power_table():
    for d in (3, 7, 11, -1):
        for k in range(9):
            assert epsilon_power(d, k) == pytest.approx(epsilon(d) ** k, abs=1e-15)
    assert epsilon_power(5, 3) == 1


def test_p_adic_split_examples():
    s = p_adic_split(18, 3)
    assert (s.ord, s.unit) == (2, 2)
    s = p_adic_split(7, 3)
    assert (s.ord, s.unit) == (0, 7)
    s = p_adic_split(16, 2)
    assert (s.ord, s.unit) == (4, 1)


def test_p_adic_split_round_trip_random():
    rng = random.Random(12345)
    primes = [2, 3, 5, 7, 11, 13, 101]
    for _ in range(10**5):
        p = rng.choice(primes)
        n = rng.randrange(1, 10**9)
        s = p_adic_split(n, p)
        assert p**s.ord * s.unit == n
        assert s.unit % p != 0


def test_p_adic_split_rejects_zero_and_composite():
    with pytest.raises(ValidationError):
        p_adic_split(0, 3)
    with pytest.raises(ValidationError):
        p_adic_split(5, 6)


def test_j_prime_k_examples():
    assert j_prime_k(1, 3) == (2, 3)
    assert j_prime_k(2, 5) == (3, 5)


def test_j_prime_k_involution():
    for p in primes_upto(101):
        if p == 2:
            continue
        for j in range(1, p):
            jp, k = j_prime_k(j, p)
            assert 1 <= jp <= p - 1
            assert (4 * j * jp + 1) % p == 0
            assert (4 * j * jp + 1) // p == k
            assert j_prime_k(jp, p)[0] == j


def test_j_prime_k_rejects_out_of_range():
    with pytest.raises(ValidationError):
        j_prime_k(0, 5)
    with pytest.raises(ValidationError):
        j_prime_k(5, 5)
    with pytest.raises(ValidationError):
        j_prime_k(1, 2)


def test_require_prime_covers_the_prime_and_odd_prime_cases():
    require_prime(2, "f")
    require_prime(7, "f", odd=True)
    with pytest.raises(ValidationError, match="^f requires prime p, got 9$"):
        require_prime(9, "f")
    with pytest.raises(ValidationError, match="^f requires odd prime p, got 2$"):
        require_prime(2, "f", odd=True)
    with pytest.raises(ValidationError, match="^f requires odd prime p, got 1$"):
        require_prime(1, "f", odd=True)


def test_is_prime_small_and_carmichael():
    assert [n for n in range(2, 40) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
    ]
    assert not is_prime(561)  # Carmichael
    assert not is_prime(1)
    assert is_prime(2**31 - 1)


def test_factorize_and_lpf():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert largest_prime_factor(1) == 1
    assert largest_prime_factor(4093) == 4093
