"""The singular series read from the per-d tables of unramified factors must
be the very doubles of the per-prime Euler product: every factor equal to
its local density, and the value equal to their sequential product."""

import math
import random
import tracemalloc
from collections import OrderedDict
from collections.abc import Mapping

import numpy as np
import pytest

from quadsum import density
from quadsum.arith import (
    euler_criterion,
    factorize,
    is_prime,
    largest_prime_factor,
    prime_table,
    primes_upto,
    residues,
)
from quadsum.density import local_density, main_term, singular_series
from quadsum.limits import PRIME_CAP

CUTOFFS = (50, 101)


def _oracle_factors(d, n, bound):
    return {p: local_density(p, d, n).delta for p in primes_upto(bound)}


def _assert_matches_oracle(d, n, cutoff, oracle=None):
    bound = max(cutoff, largest_prime_factor(n))
    want = oracle if oracle is not None else _oracle_factors(d, n, bound)
    want = {p: f for p, f in want.items() if p <= bound}
    got = singular_series(d, n, cutoff)
    assert list(got.factors) == list(want), (d, n, cutoff)
    for p, f in want.items():
        assert got.factors[p] == f, (d, n, cutoff, p)
    value = 1.0
    for f in want.values():
        value *= f
    assert got.value == value, (d, n, cutoff)


@pytest.mark.parametrize("d", range(5, 11))
def test_series_equals_per_prime_product_for_small_n(d):
    for n in range(1, 401):
        oracle = _oracle_factors(d, n, max(max(CUTOFFS), largest_prime_factor(n)))
        for cutoff in CUTOFFS:
            _assert_matches_oracle(d, n, cutoff, oracle)


# primes above the cutoff, n divisible by p^k with p > 101, and n above 2^63
LARGE_N = (
    401, 1009, 10007,
    103**2 * 6, 107**3, 2 * 127**2, 3 * 109, 113**2 * 97 * 4,
    3**45, 101**10 * 7, 5**30 * 1009,
)


@pytest.mark.parametrize("d", range(5, 11))
def test_series_equals_per_prime_product_for_large_n(d):
    for n in LARGE_N:
        oracle = _oracle_factors(d, n, max(max(CUTOFFS), largest_prime_factor(n)))
        for cutoff in CUTOFFS:
            _assert_matches_oracle(d, n, cutoff, oracle)


def test_tables_extended_and_evicted_between_dimensions():
    # a smaller d between calls at a larger d, each call needing more primes
    # than the last, with more dimensions than the cache keeps
    sequence = [(9, 1009), (5, 2003), (9, 4001), (6, 8009), (10, 12007), (7, 16001),
                (8, 20011), (9, 30011), (5, 40009), (9, 20011), (5, 997)]
    for d, n in sequence:
        for cutoff in CUTOFFS:
            _assert_matches_oracle(d, n, cutoff)
        assert len(density._unramified) <= density._UNRAMIFIED_TABLES


@pytest.mark.parametrize("d", range(5, 13))
def test_table_rows_are_the_scalar_closed_form_bit_for_bit(d, monkeypatch):
    # one array pass per row gives the very doubles of one call per prime
    monkeypatch.setattr(density, "_unramified", OrderedDict())
    bound = 2 * 10**5
    table = prime_table(bound)
    count = int(np.searchsorted(table, bound, side="right"))
    rows = density._unramified_table(d, table, count)
    assert rows.shape == (1 if d % 2 == 0 else 2, count)
    assert np.isnan(rows[:, 0]).all()  # p = 2 is never read from the table
    odd = table[1:count].tolist()
    for row, chi in zip(rows, (1, -1)):
        want = np.array([density._odd_delta(p, d, 0, chi) for p in odd])
        np.testing.assert_array_equal(row[1:].view(np.int64), want.view(np.int64))
    if d % 2 == 0:  # chi is not read at even d
        want = np.array([density._odd_delta(p, d, 0, -1) for p in odd])
        np.testing.assert_array_equal(rows[0, 1:].view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("d", (5, 6))
def test_table_grown_in_uneven_steps_equals_one_pass(d, monkeypatch):
    table = prime_table(10**5)
    monkeypatch.setattr(density, "_unramified", OrderedDict())
    whole = density._unramified_table(d, table, 9000)
    monkeypatch.setattr(density, "_unramified", OrderedDict())
    longest = 0
    for count in (1, 2, 3, 10, 11, 500, 4999, 5000, 700, 8999, 9000):
        grown = density._unramified_table(d, table, count)
        longest = max(longest, count)
        assert grown.shape[1] == longest  # grown to the count, never shrunk
    np.testing.assert_array_equal(grown.view(np.int64), whole.view(np.int64))


def test_main_term_is_archimedean_factor_times_series():
    for d, n in ((5, 1), (5, 1155), (6, 4096), (7, 1009), (8, 65536)):
        series = singular_series(d, n)
        assert main_term(d, n) == density.archimedean_factor(d, n) * series.value


def _reciprocity_agrees_with_euler_criterion(n, primes):
    symbols = density._minus_n_symbols(factorize(n), primes)
    minus_n = (primes - residues(n, primes)) % primes
    square = euler_criterion(minus_n, primes) == 1
    unramified = (primes != 2) & (minus_n != 0)
    return np.array_equal((symbols == 1)[unramified], square[unramified]) and np.isin(
        symbols[unramified], (-1, 1)).all()


def test_reciprocity_symbols_equal_euler_criterion_for_small_n():
    primes = prime_table(10**4)[: len(primes_upto(10**4))]
    bad = [n for n in range(1, 5001) if not _reciprocity_agrees_with_euler_criterion(n, primes)]
    assert bad == []


def _prime_below(m):
    return next(q for q in range(m, 1, -1) if is_prime(q))


def test_reciprocity_symbols_equal_euler_criterion_for_large_n():
    rng = random.Random(26)
    primes = prime_table(PRIME_CAP)
    large_n = (
        _prime_below(PRIME_CAP - rng.randrange(10**4)),  # a prime near 10^7
        2**40,
        3**20 * 7,
        _prime_below(rng.randrange(1100, 5000)) * _prime_below(rng.randrange(5000, 10**5)),
        _prime_below(rng.randrange(10**5, 10**6)) ** 2 * 3 * 2**5,  # an even power of a large prime
    )
    for n in large_n:
        assert _reciprocity_agrees_with_euler_criterion(n, primes), n


@pytest.mark.parametrize("d, n", [(5, 1155), (6, 4096), (7, 3**5 * 1009), (9, 1)])
def test_factors_mapping_contract(d, n):
    got = singular_series(d, n, 200)
    bound = max(200, largest_prime_factor(n))
    keys = primes_upto(bound)
    factors = got.factors
    assert isinstance(factors, Mapping)
    assert list(factors) == keys and len(factors) == len(keys)
    assert list(factors.keys()) == keys
    values = list(factors.values())
    assert values == [factors[p] for p in keys]
    assert list(factors.items()) == list(zip(keys, values))
    assert math.prod(factors.values()).hex() == got.value.hex()
    next_prime = next(q for q in range(bound + 1, 2 * bound) if is_prime(q))
    for key in (0, 1, 4, 9, 2 * 3 * 5, -3, next_prime, "3", 3.5):
        with pytest.raises(KeyError):
            factors[key]
        assert key not in factors
    assert factors[np.int64(3)] == factors[3]
    with pytest.raises(TypeError):
        factors[3] = 1.0
    assert dict(factors) == _oracle_factors(d, n, bound)


def test_series_memory_is_arrays_not_a_map_per_prime():
    # warm: the sieve and the unramified table for d = 5 already cover the primes
    n = 10**6 + 3
    series = singular_series(5, n)
    tracemalloc.start()
    try:
        singular_series(5, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 48 bytes per prime of the product, one per residue of the largest odd prime factor
    assert peak <= 48 * len(series.factors) + largest_prime_factor(n), peak
