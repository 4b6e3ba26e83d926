"""The singular series read from the per-d tables of unramified factors must
be the very doubles of the per-prime Euler product: every factor equal to
its local density, and the value equal to their sequential product."""

import pytest

from quadsum import density
from quadsum.arith import largest_prime_factor, primes_upto
from quadsum.density import local_density, main_term, singular_series

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


def test_main_term_is_archimedean_factor_times_series():
    for d, n in ((5, 1), (5, 1155), (6, 4096), (7, 1009), (8, 65536)):
        series = singular_series(d, n)
        assert main_term(d, n) == density.archimedean_factor(d, n) * series.value
