"""Gauss sums, circle-method coefficients A_d(q,n), p-adic local densities,
the truncated singular series, and the archimedean main term.

For odd p everything has a closed form (verified against direct summation in
the tests).  For p = 2, ``local_density`` is the finite sum of the defining
series up to h = ord_2(n) + 3, past which every term vanishes, and the
singular series takes the exact value instead: an integer over a power of two
built from primitive solution counts mod 8, rounded once.  The two agree bit
for bit for 5 <= d <= 16 and n <= 4096; at d = 9 a few n of high 2-adic
valuation differ by 1 ulp.  Only the direct sum needs Gauss tables, so the
singular series and the main term never meet ``Q_CAP``.

The direct sum A_d(q, n) stays a literal sum over the units a mod q.  Its
per-modulus table keeps the units and S(q, a) / q at each of them, nothing
at the non-units.  The table is built by one in-place FFT of the square
counts, held as complex numbers, and the units are found after the
transform, so no float copy, second length-q output or unit mask is alive
during it.  Its phases e^{-2 pi i n a / q} depend on a only through
n a mod q, a multiple of gcd(n, q), so each distinct phase is exponentiated
once and gathered; the sum is the same double as with one exponential per
unit.

The singular series does not evaluate a local density per prime.  For
p not dividing 2n, delta_{p,d}(n) depends on n only through chi = (-n/p), and
not at all for even d, so it is read from a per-d table of these unramified
factors, kept at chi = +1 and (odd d) chi = -1 for the primes of the kept
sieve that calls have needed so far.  Only p = 2 and the primes dividing n,
found by one capped factorization, are evaluated on their own.  The closed
form ``_odd_delta`` takes a Python int p or an int64 array of primes, so a
table grows by one array pass per row, and its entries are the closed
form's own doubles: the same operations in the same order as a call at one
prime.  The symbols chi come from quadratic reciprocity over that
factorization: (-1/p) and (2/p) from the low bits of p, and (l/p) for each
odd prime l with an odd exponent in n from an int8 table of the squares mod
l, read at p mod l; no power is taken per prime, and a huge n never enters
int64.  The factors are one float64 row, copied from the table and
overwritten at 2 and at the primes dividing n, and ``factors`` is a
read-only Mapping over it and the kept primes, not a dict per prime.  The
product is taken left to right in ascending prime order, so the value is
the same double as a per-prime evaluation of the same factors gives.

All transcendental work is double precision.  Direct sums of <= 10**4 roots
of unity meet every closed-form tolerance easily: ``CHECK_TOL`` = 1e-9
absolute here, ``cli.ACOEFF_TOL`` = 1e-8 absolute and ``cli.GAUSS_TOL`` =
1e-9 relative.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass
from math import gcd

import numpy as np

from .arith import (
    epsilon,
    factorize,
    jacobi_symbol,
    p_adic_split,
    prime_table,
    require_prime,
    valuation,
)
from .errors import ResourceLimitError, ValidationError
from .lattice import count_range, r4_jacobi
from .limits import DEFAULT_PRIME_CUTOFF, Q_CAP

#: absolute tolerance of the density gap and phase-sum checks
CHECK_TOL = 1e-9


def gamma_half_integer(d: int) -> float:
    """Gamma(d/2) from Gamma(1) = 1 and Gamma(1/2) = sqrt(pi) by the
    ascending recurrence (exact up to double rounding)."""
    if d < 1:
        raise ValidationError(f"gamma_half_integer requires d >= 1, got {d}")
    if d % 2 == 0:
        return float(math.factorial(d // 2 - 1))
    val = math.sqrt(math.pi)
    x = 0.5
    while x < d / 2:
        val *= x
        x += 1.0
    return val


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------


def gauss_sum(q: int, a: int) -> complex:
    """S(q,a) = sum_{t=1}^{q} e^{2 pi i a t^2 / q} by direct summation."""
    if q < 1:
        raise ValidationError(f"gauss_sum requires q >= 1, got {q}")
    if q > Q_CAP:
        raise ResourceLimitError(f"modulus {q} exceeds cap {Q_CAP}")
    t = np.arange(1, q + 1, dtype=np.int64)
    a %= q  # a * t * t stays below q**3 <= 2**60: no int64 wrap for any a
    return complex(np.exp(2j * np.pi * ((a * t * t) % q) / q).sum())


def gauss_sum_prime_power(p: int, h: int, a: int) -> complex:
    """S(p**h, a) for odd prime p and gcd(a, p) = 1:
    epsilon_p (a/p) p^{h/2} for odd h, p^{h/2} for even h."""
    require_prime(p, "gauss_sum_prime_power", odd=True)
    if h < 1:
        raise ValidationError(f"gauss_sum_prime_power requires h >= 1, got {h}")
    if gcd(a, p) != 1:
        raise ValidationError(f"a = {a} is not coprime to p = {p}")
    if h % 2 == 0:
        return complex(p ** (h / 2))
    return epsilon(p) * jacobi_symbol(a, p) * p ** (h / 2)


# Per-modulus data: the units a mod q, ascending, and S(q, a) / q at each of
# them, both read-only; the Gauss sums at the non-units are never read, so
# they are not kept.  The bound is 64 moduli: one circle-method job list
# (bench/workloads.py) uses 34 to 38 distinct moduli, up to 2^17, so it never
# evicts there.  The units are the residues off the multiples of the primes
# dividing q.  Every Gauss-table path (A_d(q, n) and the unit phase sums)
# meets Q_CAP here, before any allocation.
@functools.lru_cache(maxsize=64)
def _gauss_table(q: int) -> tuple[np.ndarray, np.ndarray]:
    if q > Q_CAP:
        raise ResourceLimitError(f"modulus {q} exceeds cap {Q_CAP}")
    squares = np.arange(1, q + 1, dtype=np.int64)
    squares *= squares
    squares %= q
    counts = np.bincount(squares, minlength=q).astype(np.complex128)
    del squares
    # S(q, a) = sum_s counts[s] e^{+2 pi i a s / q}: the conjugate of an FFT,
    # taken in place on the complex counts, with no cast copy and no second
    # length-q output; the units are found after it, so they are not alive
    # during it
    np.fft.fft(counts, out=counts)
    unit = np.ones(q, dtype=bool)
    for p in factorize(q):
        unit[::p] = False
    coprime = np.nonzero(unit)[0]
    del unit
    unit_sums = counts[coprime]
    del counts
    np.conjugate(unit_sums, out=unit_sums)
    unit_sums /= q
    coprime.setflags(write=False)
    unit_sums.setflags(write=False)
    return coprime, unit_sums


def _unit_phases(q: int, n: int) -> np.ndarray:
    """e^{-2 pi i n a / q} for the units a mod q, ascending.

    The phase depends on a only through k = n a mod q, a multiple of
    g = gcd(n, q), so each of the q/g multiples is exponentiated once and
    gathered by k / g.  Each gathered double is the exponential of the same
    product -2 pi i k / q that a per-unit exponential would take."""
    coprime, _ = _gauss_table(q)
    k = (n % q * coprime) % q
    g = gcd(n, q)
    k //= g
    return np.exp(-2j * np.pi * np.arange(0, q, g) / q)[k]


def a_coeff_direct(d: int, q: int, n: int) -> complex:
    """A_d(q,n) = sum over a in [1,q], gcd(a,q)=1 of (S(q,a)/q)^d e^{-2 pi i n a / q}.

    The Gauss sums are evaluated from their defining sums (tabulated once per
    modulus); nothing here uses the closed forms.
    """
    if d < 1:
        raise ValidationError(f"a_coeff_direct requires d >= 1, got {d}")
    if q < 1:
        raise ValidationError(f"a_coeff_direct requires q >= 1, got {q}")
    if n < 0:
        raise ValidationError(f"a_coeff_direct requires n >= 0, got {n}")
    if q == 1:
        return 1 + 0j
    _, unit_sums = _gauss_table(q)
    return complex(unit_sums**d @ _unit_phases(q, n))


def a_coeff_closed(d: int, p: int, h: int, n: int) -> complex:
    """Closed form of A_d(p**h, n) for odd prime p (three cases for even d,
    five for odd d, branching on h against ord_p(n))."""
    require_prime(p, "a_coeff_closed", odd=True)
    if h < 1:
        raise ValidationError(f"a_coeff_closed requires h >= 1, got {h}")
    if n < 1:
        raise ValidationError(f"a_coeff_closed requires n >= 1, got {n}")
    return _a_coeff_closed(d, p, h, *valuation(n, p))


def _a_coeff_closed(d: int, p: int, h: int, o: int, n1: int) -> complex:
    """a_coeff_closed for n = p**o * n1, gcd(n1, p) = 1; trusts its inputs."""
    if h > o + 1:
        return 0j
    if d % 2 == 0:
        base = _unit_sign(p, d) * p ** (1 - d / 2)
        if h <= o:
            return complex((p - 1) / p * base**h)
        return complex(-(base ** (o + 1)) / p)
    if h <= o:
        if h % 2 == 1:
            return 0j
        return complex((p - 1) / p * p ** ((1 - d / 2) * h))
    # h == o + 1
    if h % 2 == 1:
        sym = jacobi_symbol(-n1, p)
        return complex(_unit_sign(p, d + 1) * sym * p ** ((1 - d / 2) * o + (1 - d) / 2))
    return complex(-(p ** ((1 - d / 2) * o - d / 2)))


# ---------------------------------------------------------------------------
# local densities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityReport:
    """delta_{p,d}(n) together with the A_d(p^h, n) terms that build it."""

    p: int
    d: int
    n: int
    terms: tuple[complex, ...]
    delta: float
    method: str  # "closed-form" or "brute-force"


def _unit_sign(p: int | np.ndarray, k: int) -> int | np.ndarray:
    """epsilon(p)**k for even k, as the integer +1 or -1: it is -1 exactly
    when p = 3 mod 4 and k = 2 mod 4.  p is a Python int or an int64 array of
    odd primes."""
    return 1 - 2 * ((p % 4 == 3) & (k % 4 == 2))


def _odd_constants(p: int | np.ndarray, d: int) -> dict:
    # every exponent is a float: a Python int p raises to it as float(p), the
    # same double power an int64 array of p takes elementwise
    if d % 2 == 0:
        e = _unit_sign(p, d)
        c = (1 - e * p ** (-d / 2)) / (1 - e * p ** (1 - d / 2))
        return {"C": c}
    f_const = (1 - p ** (1.0 - d)) / (1 - p ** (2.0 - d))
    # coefficient of p^{(1-d/2) ord} in the odd-valuation branch; pinned by
    # equality with the finite term sum, which collapses the whole branch to
    # F (1 - p^{(2-d)(ord+1)/2})
    e_const = -(p ** (1 - d / 2)) * f_const
    return {"E": e_const, "F": f_const}


def _odd_delta(p: int | np.ndarray, d: int, o: int, chi: int) -> float | np.ndarray:
    """delta_{p,d}(n) for an odd prime p, o = ord_p(n) and chi = (-unit/p),
    unit = n / p**o; chi is read only for odd d and even o.  Trusts its
    inputs.  p is a Python int, giving a float, or an int64 array of primes,
    giving the float64 array of the same doubles elementwise: both run the
    same operations in the same order."""
    consts = _odd_constants(p, d)
    if d % 2 == 0:
        base = _unit_sign(p, d) * p ** (1 - d / 2)
        return consts["C"] * (1 - base ** (o + 1))
    if o % 2 == 1:
        return p ** ((1 - d / 2) * o) * consts["E"] + consts["F"]
    g_const = p ** (1.0 - d) * (1 - p) / (1 - p ** (2.0 - d)) + p ** (
        (1 - d) / 2
    ) * _unit_sign(p, d + 1) * chi
    return p ** ((1 - d / 2) * o) * g_const + consts["F"]


def local_density(p: int, d: int, n: int) -> DensityReport:
    """The p-adic local density delta_{p,d}(n) = sum_h A_d(p^h, n).

    Odd p: evaluated by the explicit closed form (the series is finite, terms
    vanish for h > ord_p(n) + 1).  p = 2: the direct sum of the terms
    h = 0..ord_2(n) + 3, which is the whole series.  For h >= 2,
    S(2^h, a) / 2^{h/2} depends only on a mod 8, so for h >= 3 grouping the
    units a mod 2^h by their class mod 8 leaves in A_d(2^h, n) the factor
    sum_{m mod 2^{h-3}} e^{-2 pi i n m / 2^{h-3}}, which is 0 once
    h >= ord_2(n) + 4; no term from there on is computed.  This sum is the
    oracle of the exact 2-adic factor the singular series uses, and like
    every Gauss-table path it needs 2^{ord_2(n) + 3} <= Q_CAP, so it
    answers up to ord_2(n) = 17.
    """
    if d < 3:
        raise ValidationError(f"local_density requires d >= 3, got {d}")
    if n < 1:
        raise ValidationError(f"local_density requires n >= 1, got {n}")
    require_prime(p, "local_density")
    o, unit = valuation(n, p)

    if p == 2:
        terms = [a_coeff_direct(d, 2**h, n) for h in range(o + 4)]
        total = sum(terms)
        return DensityReport(
            p=2, d=d, n=n, terms=tuple(terms), delta=float(total.real), method="brute-force"
        )

    terms = [1 + 0j] + [_a_coeff_closed(d, p, h, o, unit) for h in range(1, o + 2)]
    delta = _odd_delta(p, d, o, jacobi_symbol(-unit, p))
    return DensityReport(p=p, d=d, n=n, terms=tuple(terms), delta=delta, method="closed-form")


@functools.lru_cache(maxsize=64)
def _primitive_counts_mod8(d: int) -> tuple[int, ...]:
    """For c = 0..7, the number of x mod 8 with x_1^2 + ... + x_d^2 = c mod 8
    and some x_i odd.  A square mod 8 is 0 (x = 0, 4), 1 (x odd) or 4 (x = 2, 6)."""

    def by_class(squares: dict[int, int]) -> list[int]:
        counts = [1] + [0] * 7
        for _ in range(d):
            counts = [sum(k * counts[(c - s) % 8] for s, k in squares.items()) for c in range(8)]
        return counts

    every, even = by_class({0: 2, 1: 4, 4: 2}), by_class({0: 2, 4: 2})
    return tuple(a - b for a, b in zip(every, even))


def _two_adic_delta(d: int, n: int) -> float:
    """delta_{2,d}(n), exact and then rounded once to the nearest double.

    A primitive solution of Q(x) = n mod 8 lifts to 2^{d-1} solutions mod
    every higher power of 2, so it weighs prim(n) / 8^{d-1}; an imprimitive
    one is x = 2y with Q(y) = n/4.  Hence delta(n) = prim(n) / 8^{d-1} when
    4 does not divide n, and delta(4m) = 2^{2-d} delta(m) + prim(4m) / 8^{d-1}.
    The sum is kept as one integer over a power of two; int / int is
    correctly rounded.  Trusts its inputs (d >= 3, n >= 1)."""
    prim = _primitive_counts_mod8(d)
    num, exp = 0, 3 * (d - 1)
    while True:
        num = (num << (d - 2)) + prim[n % 8]
        if n % 4:
            return num / (1 << exp)
        n //= 4
        exp += d - 2


# Per-d unramified factors, column k for the k-th prime of arith.prime_table:
# row 0 holds _odd_delta(p, d, 0, +1) and, for odd d, row 1 holds
# _odd_delta(p, d, 0, -1); the column of p = 2 is NaN, since 2 is always
# evaluated on its own.  New columns are built in one pass per row, by
# _odd_delta over the int64 array of the new primes, so each entry is the
# closed form's own double.  A table grows to exactly the primes a call
# needs, never past the kept sieve, and no entry is ever recomputed.  The
# bound is 4 values of d, about 42 MB if every one reaches PRIME_CAP.
_UNRAMIFIED_TABLES = 4
_unramified: OrderedDict[int, np.ndarray] = OrderedDict()


def _unramified_table(d: int, primes: np.ndarray, count: int) -> np.ndarray:
    """The table for d, grown if shorter to exactly the first ``count`` of ``primes``."""
    table = _unramified.pop(d, None)
    if table is None:
        table = np.empty((1 if d % 2 == 0 else 2, 0))
    have = table.shape[1]
    if have < count:
        fresh = primes[have:count]
        rows = np.array([_odd_delta(fresh, d, 0, chi) for chi in (1, -1)[: table.shape[0]]])
        rows[:, fresh == 2] = math.nan
        table = np.concatenate([table, rows], axis=1)
        table.setflags(write=False)
    _unramified[d] = table
    if len(_unramified) > _UNRAMIFIED_TABLES:
        _unramified.popitem(last=False)
    return table


# Squares mod an odd prime l are read in chunks of this many t, so a table
# of l int8 signs is built with int64 temporaries of bounded size.
_SQUARE_CHUNK = 2**16


def _square_signs(ell: int) -> np.ndarray:
    """The Legendre symbols (a/ell) for a = 0..ell-1, odd prime ell, as int8:
    +1 at the nonzero squares, -1 at the non-squares, 0 at a = 0."""
    signs = np.full(ell, -1, dtype=np.int8)
    signs[0] = 0
    half = (ell - 1) // 2  # t and ell - t have the same square
    for lo in range(1, half + 1, _SQUARE_CHUNK):
        t = np.arange(lo, min(lo + _SQUARE_CHUNK, half + 1), dtype=np.int64)
        t *= t  # t < ell <= PRIME_CAP < 2^24: no int64 wrap
        t %= ell
        signs[t] = 1
    return signs


def _minus_n_symbols(ramified: dict[int, int], primes: np.ndarray) -> np.ndarray:
    """(-n/p) as int8 +1 or -1 at every odd prime p of ``primes`` not dividing
    n, where ``ramified`` is the factorization of n; the entries at p = 2 and
    at the primes dividing n are not the symbol and must be overwritten.

    By multiplicativity (-n/p) = (-1/p) (2/p)^a prod (l/p)^e over n = 2^a prod
    l^e, and only odd exponents count.  Reciprocity turns each (l/p) into
    (p/l) (-1/p)^((l-1)/2), read from the table of squares mod l at p mod l,
    so no symbol is formed from n itself and a huge n never enters int64.
    (-1/p) is -1 iff bit 1 of p is set (p = 3 mod 4), and (2/p) is -1 iff bit
    1 of p ^ (p >> 1) is set (p = 3, 5 mod 8); both are read off p mod 256."""
    odd = [ell for ell, e in ramified.items() if ell != 2 and e % 2]
    low = primes.astype(np.int8)  # p mod 256: the low bits, reinterpreted
    bits = np.zeros_like(low)
    if (1 + sum(ell % 4 == 3 for ell in odd)) % 2:
        bits ^= low
    if ramified.get(2, 0) % 2:
        bits ^= low ^ (low >> 1)
    del low
    bits &= 2
    symbols = 1 - bits  # int8: +1 where bit 1 is clear, -1 where it is set
    for ell in odd:
        symbols *= _square_signs(ell)[primes % ell]
    return symbols


class EulerFactors(Mapping):
    """The Euler factors of a singular series, read-only: prime -> delta_p.

    Backed by the ascending int64 primes and a float64 array of the factors
    at them, aligned; iteration gives the primes in ascending order as Python
    ints and the factors as Python floats, the doubles of the array.  A key
    that is not one of the primes (a composite, a prime past the bound, or a
    non-integer) raises KeyError."""

    __slots__ = ("_primes", "_deltas")

    def __init__(self, primes: np.ndarray, deltas: np.ndarray):
        self._primes = primes
        self._deltas = deltas

    def __getitem__(self, p) -> float:
        is_int = isinstance(p, (int, np.integer))
        k = int(self._primes.searchsorted(p)) if is_int else len(self._primes)
        if k == len(self._primes) or self._primes[k] != p:
            raise KeyError(p)
        return float(self._deltas[k])

    def __iter__(self) -> Iterator[int]:
        return iter(self._primes.tolist())

    def __len__(self) -> int:
        return len(self._primes)

    def values(self) -> ValuesView:
        return _FactorValues(self)

    def items(self) -> ItemsView:
        return _FactorItems(self)

    def __repr__(self) -> str:
        return f"EulerFactors({len(self)} primes up to {int(self._primes[-1])})"


class _FactorValues(ValuesView):
    def __iter__(self) -> Iterator[float]:
        return iter(self._mapping._deltas.tolist())


class _FactorItems(ItemsView):
    def __iter__(self) -> Iterator[tuple[int, float]]:
        return zip(self._mapping._primes.tolist(), self._mapping._deltas.tolist())


@dataclass(frozen=True)
class SingularSeriesValue:
    """The truncated singular series: ``value`` is the product of the
    ``factors``, a read-only Mapping from every prime up to the bound, in
    ascending order, to its local density."""

    d: int
    n: int
    prime_cutoff: int
    value: float
    factors: Mapping[int, float]


def singular_series(
    d: int, n: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF
) -> SingularSeriesValue:
    """Truncated Euler product of the local densities over all primes up to
    max(prime_cutoff, largest prime factor of n).  The factor at 2 is the
    exact 2-adic density rounded once (``_two_adic_delta``), so no Gauss table
    is built and any ord_2(n) is answered.  The factors at p not dividing 2n
    are read from the unramified tables by the symbols (-n/p) of
    ``_minus_n_symbols`` (odd d only), the others evaluated on their own, and
    ``factors`` is the read-only Mapping over them; ``value`` is their product
    taken left to right in ascending prime order.

    ResourceLimitError when that bound exceeds limits.PRIME_CAP."""
    if d < 5:
        raise ValidationError(f"singular_series requires d >= 5, got {d}")
    if n < 1:
        raise ValidationError(f"singular_series requires n >= 1, got {n}")
    if prime_cutoff < 2:
        raise ValidationError(f"prime_cutoff must be >= 2, got {prime_cutoff}")
    ramified = factorize(n)
    bound = max(prime_cutoff, max(ramified, default=1))
    table = prime_table(bound)
    count = int(table.searchsorted(bound, side="right"))
    primes = table[:count]
    unramified = _unramified_table(d, table, count)
    if d % 2 == 0:
        deltas = unramified[0, :count].copy()
    else:
        deltas = np.where(_minus_n_symbols(ramified, primes) > 0, unramified[0, :count],
                          unramified[1, :count])
    deltas[0] = _two_adic_delta(d, n)
    for p, o in ramified.items():
        if p != 2:
            deltas[primes.searchsorted(p)] = _odd_delta(p, d, o, jacobi_symbol(-(n // p**o), p))
    deltas.setflags(write=False)
    # the running product, left to right: the double math.prod gives
    value = float(np.multiply.accumulate(deltas)[-1])
    return SingularSeriesValue(
        d=d, n=n, prime_cutoff=prime_cutoff, value=value, factors=EulerFactors(primes, deltas)
    )


def archimedean_factor(d: int, n: int) -> float:
    """pi^{d/2} / Gamma(d/2) * n^{d/2-1}, the singular integral of the main term.

    ResourceLimitError when a step leaves the range of a double."""
    if n < 1:
        raise ValidationError(f"archimedean_factor requires n >= 1, got {n}")
    try:
        value = math.pi ** (d / 2) / gamma_half_integer(d) * n ** (d / 2 - 1)
    except OverflowError:  # a power or Gamma(d/2), before the product
        value = math.inf
    if math.isinf(value):
        raise ResourceLimitError(f"archimedean factor for d={d} exceeds the double range")
    return value


def main_term(d: int, n: int, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> float:
    """archimedean_factor(d, n) times the truncated singular series."""
    if n < 1:
        raise ValidationError(f"main_term requires n >= 1, got {n}")
    series = singular_series(d, n, prime_cutoff)
    return archimedean_factor(d, n) * series.value


# ---------------------------------------------------------------------------
# inequality and identity checks used by the experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DifferenceCheck:
    d: int
    p: int
    n: int
    lhs: int
    bound: float
    passed: bool


def difference_check(d: int, p: int, n: int, coeff: float | None = None) -> DifferenceCheck:
    """Growth of r_d(p^2 n) - r_d(n).

    d = 4 (n odd required): the bound is the exact constant 8 (p + p^2) n and
    both sides are computed in integer arithmetic.  d >= 5: the bound is
    coeff * n^{d/2-1} with the finite coefficient supplied by the caller;
    ResourceLimitError when that bound is past the range of a double.
    """
    if d < 4:
        raise ValidationError(f"difference_check requires d >= 4, got {d}")
    require_prime(p, "difference_check", odd=True)
    if n < 1:
        raise ValidationError(f"difference_check requires n >= 1, got {n}")
    if d == 4:
        if n % 2 == 0:
            raise ValidationError("difference_check with d = 4 requires odd n")
        lhs = r4_jacobi(p * p * n) - r4_jacobi(n)
        bound = 8 * (p + p * p) * n
        return DifferenceCheck(d=d, p=p, n=n, lhs=lhs, bound=float(bound), passed=lhs >= bound)
    if coeff is None:
        raise ValidationError("difference_check with d >= 5 needs an explicit coefficient")
    if not math.isfinite(coeff):
        raise ValidationError(f"difference_check needs a finite coefficient, got {coeff}")
    counts = count_range(d, p * p * n)
    lhs = int(counts[p * p * n] - counts[n])
    # count_range bounds n and d, so only the product with coeff can overflow
    bound = coeff * n ** (d / 2 - 1)
    if math.isinf(bound):
        raise ResourceLimitError(f"difference bound coeff * n^{d / 2 - 1} exceeds the double range")
    return DifferenceCheck(d=d, p=p, n=n, lhs=lhs, bound=bound, passed=lhs >= bound)


@dataclass(frozen=True)
class SumCheck:
    """A literal sum against its closed value and the verdict on the pair;
    each check states its own tolerance."""

    value: complex
    expected: complex
    passed: bool


def density_gap_check(p: int, d: int, n: int) -> SumCheck:
    """p^{d-2} delta_{p,d}(p^2 n) - delta_{p,d}(n) against its n-free closed
    value: (p^{d-2} - 1) C_{p,d} for even d, (p^{d-2} - 1) F_{p,d} for odd d."""
    require_prime(p, "density_gap_check", odd=True)
    if d < 3:
        raise ValidationError(f"density_gap_check requires d >= 3, got {d}")
    if n < 1:
        raise ValidationError(f"density_gap_check requires n >= 1, got {n}")
    value = p ** (d - 2) * local_density(p, d, p * p * n).delta - local_density(p, d, n).delta
    consts = _odd_constants(p, d)
    scale = consts["C"] if d % 2 == 0 else consts["F"]
    expected = (p ** (d - 2) - 1) * scale
    return SumCheck(value=value, expected=expected, passed=abs(value - expected) <= CHECK_TOL)


def unit_phase_sum_check(p: int, n: int) -> SumCheck:
    """sum over units a mod p^h of e^{-2 pi i n a / p^h} at h = ord_p(n) + 1,
    against the closed value -p^{ord_p(n)} (a Ramanujan-type sum)."""
    require_prime(p, "unit_phase_sum_check", odd=True)
    split = p_adic_split(n, p)
    h = split.ord + 1
    q = p**h
    value = complex(_unit_phases(q, n).sum())
    expected = complex(-(p**split.ord))
    return SumCheck(value=value, expected=expected, passed=abs(value - expected) <= CHECK_TOL)


def twisted_unit_phase_sum_check(p: int, h: int, n: int) -> SumCheck:
    """sum over units a mod p^h of (a/p) e^{-2 pi i n a / p^h} against its
    closed form: p^{ord+1/2} epsilon_p (-n/p^ord / p) when h = ord_p(n) + 1,
    and 0 when h > ord_p(n) + 1 (also 0 for h <= ord: a plain character sum).
    """
    require_prime(p, "twisted_unit_phase_sum_check", odd=True)
    if h < 1:
        raise ValidationError(f"twisted_unit_phase_sum_check requires h >= 1, got {h}")
    split = p_adic_split(n, p)
    q = p**h
    coprime, _ = _gauss_table(q)
    legendre = np.array([jacobi_symbol(a, p) for a in range(p)], dtype=np.float64)
    twists = legendre[coprime % p]
    value = complex((twists * _unit_phases(q, n)).sum())
    if h == split.ord + 1:
        expected = (
            p ** (split.ord + 0.5) * epsilon(p) * jacobi_symbol(-split.unit, p)
        )
    else:
        expected = 0j
    return SumCheck(value=value, expected=complex(expected), passed=abs(value - expected) <= CHECK_TOL)
