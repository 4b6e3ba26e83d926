"""Exact-arithmetic tests: symbols against a factorization oracle,
valuation round-trips, and the inverse-pairing involution."""

import random
import tracemalloc

import numpy as np
import pytest

from quadsum import arith
from quadsum.arith import (
    epsilon,
    euler_criterion,
    factorize,
    is_prime,
    j_prime_k,
    jacobi_symbol,
    largest_prime_factor,
    p_adic_split,
    prime_table,
    primes_upto,
    require_prime,
    residues,
)
from quadsum.density import _unit_sign
from quadsum.errors import ResourceLimitError, ValidationError
from quadsum.limits import PRIME_CAP


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


def test_unit_sign_is_the_even_epsilon_power():
    for p in (3, 5, 7, 11, 13, 101, 1009):
        for k in range(0, 17, 2):
            assert _unit_sign(p, k) == epsilon(p) ** k, (p, k)


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


def test_primes_upto_matches_is_prime_across_sieve_growth():
    for n in (1, 2, 10, 101, 1000, 5000, 300, 20011):
        assert primes_upto(n) == [m for m in range(2, n + 1) if is_prime(m)]
    table = prime_table(100)
    assert table.dtype == np.int64 and not table.flags.writeable


def test_prime_table_peak_memory(monkeypatch):
    # a fresh sieve of 10^6 holds its bool sieve and one int64 array of the
    # primes at its peak: flatnonzero already gives int64, nothing is copied
    monkeypatch.setattr(arith, "_sieve_bound", 1)
    monkeypatch.setattr(arith, "_primes", np.empty(0, dtype=np.int64))
    bound = 10**6
    tracemalloc.start()
    try:
        table = prime_table(bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 78498 and table[-1] == 999983
    assert peak <= bound + 8 * len(table) + 64 * 1024


def test_residues_and_euler_criterion_for_large_n():
    primes = prime_table(2000)[:300]
    for n in (0, 1, 2**31 - 1, 2**31, 2**63 + 12345, 3**45 * 1000003, 10**40 + 7):
        assert residues(n, primes).tolist() == [n % p for p in primes.tolist()]
    odd = primes[1:]
    for a in (1, 2, 3, 10**6 + 3, 2**70 + 1):
        chi = euler_criterion(residues(a, odd), odd).tolist()
        want = [{0: 0, 1: 1, -1: p - 1}[_legendre(a, p)] for p in odd.tolist()]
        assert chi == want


def _trial_division(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_factorize_matches_trial_division_below_the_cap():
    rng = random.Random(11)
    cases = list(range(1, 500)) + [rng.randrange(1, 10**9) for _ in range(50)]
    cases += [3**45, 101**10 * 7, 9999991, 9973**2 * 10007, 2**80 * 3]
    for n in cases:
        want = _trial_division(n)
        assert list(want) == sorted(want)
        if max(want, default=1) <= PRIME_CAP:
            assert factorize(n) == want
        else:
            with pytest.raises(ResourceLimitError, match="cap"):
                factorize(n)


def test_factorize_and_prime_table_refuse_past_the_cap():
    with pytest.raises(ResourceLimitError, match="cap"):
        factorize(10000019)  # prime, above PRIME_CAP
    with pytest.raises(ResourceLimitError, match="cap"):
        factorize(10000019**2 * 6)  # the cofactor's square root exceeds PRIME_CAP
    with pytest.raises(ResourceLimitError, match="cap"):
        prime_table(PRIME_CAP + 1)
    with pytest.raises(ValidationError):
        factorize(0)
