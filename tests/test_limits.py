"""Every resource cap in ``quadsum.limits`` is fixed; each guard must raise
ResourceLimitError for an input just past its cap before it allocates."""

import tracemalloc

import pytest

from quadsum.arith import primes_upto
from quadsum.density import (
    a_coeff_direct,
    gauss_sum,
    singular_series,
    twisted_unit_phase_sum_check,
    unit_phase_sum_check,
)
from quadsum.equidist import decay_study
from quadsum import lattice
from quadsum.errors import ResourceLimitError
from quadsum.lattice import (
    count_range,
    enumerated_counts,
    orbit_census,
    quadric_indices,
    residue_census,
    residue_histogram,
)
from quadsum.limits import PRIME_CAP
from quadsum.theta import (
    TestFunction,
    constant_function,
    origin_indicator,
    random_cusp_function,
    random_even_function,
    rsum_check,
    srw_profile,
    tsum_check,
)

F32 = constant_function(3, 2)

GUARDS = {
    "census-cells": lambda: residue_census(4, 10**7, 5),
    "orbit-census-cells": lambda: orbit_census(4, 2 * 10**7, 5),
    "orbit-census-rank": lambda: orbit_census(18, 0, 3),
    "range-nmax": lambda: count_range(1, 10**8 + 1),
    "box-points": lambda: enumerated_counts(8, 10**5),
    "gauss-modulus": lambda: gauss_sum(2**20 + 1, 1),
    "acoeff-modulus": lambda: a_coeff_direct(5, 2**20 + 1, 1),
    "phase-sum-modulus": lambda: unit_phase_sum_check(3, 3**13),
    "twisted-phase-sum-modulus": lambda: twisted_unit_phase_sum_check(3, 13, 1),
    "test-function-entries": lambda: TestFunction(3, 15, [0]),
    "quadric-entries": lambda: quadric_indices(3, 15, 0),
    "decay-study-entries": lambda: decay_study(10, 7, 1, [(1, 2)]),
    "srw-profile-cells": lambda: srw_profile(F32, 15),
    "rsum-grid": lambda: rsum_check(12, (0, 0, 0), 1),
    "tsum-grid": lambda: tsum_check(3, 6, (0, 0, 0, 0), 1),
    "tsum-modulus": lambda: tsum_check(3001, 3, (0,), 1),
    "prime-sieve": lambda: primes_upto(PRIME_CAP + 1),
    "series-prime-factor": lambda: singular_series(5, 10000019),
    "series-prime-cutoff": lambda: singular_series(5, 1, PRIME_CAP + 1),
    "constant-function-entries": lambda: constant_function(3, 20),
    "origin-indicator-entries": lambda: origin_indicator(3, 20),
    "random-even-entries": lambda: random_even_function(3, 20, 0),
    "random-cusp-entries": lambda: random_cusp_function(3, 20, 0),
}


@pytest.mark.parametrize("call", GUARDS.values(), ids=GUARDS.keys())
def test_cap_guard_fails_before_allocating(call):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="cap"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_census_rank_obeys_the_entry_cap(monkeypatch):
    # 5**10 residues fit CENSUS_CELL_CAP but not an entry cap of 1000: the
    # p**d rank is refused before the kept table is dropped or rebuilt
    orbit_census(3, 4, 3)
    kept = lattice._kept_census
    monkeypatch.setattr(lattice, "ENTRY_CAP", 1000)
    for call in (orbit_census, residue_census, residue_histogram):
        with pytest.raises(ResourceLimitError, match="entry cap"):
            call(5, 10, 5)
        assert lattice._kept_census is kept


def test_singular_series_answers_below_the_prime_cap():
    val = singular_series(5, 10**6 + 3)
    assert list(val.factors)[-1] == 10**6 + 3
    assert val.value > 0
