"""Exact integer arithmetic: quadratic symbols, fourth-root-of-unity signs,
p-adic valuations, and the inverse pairing used by the theta operators.

Everything here is a pure function of its arguments, apart from one kept
sieve: the primes up to the largest bound asked for so far, grown by doubling
and capped at ``limits.PRIME_CAP``.  Python integers are arbitrary precision,
so no intermediate can overflow; the int64 vector helpers keep every modulus
at most PRIME_CAP < 2^24, so every product of two residues stays below 2^48.
Validation concentrates on domain errors (even denominators, n = 0,
composite p) and on the prime cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .limits import PRIME_CAP

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the fixed base set decides every n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int, caller: str, odd: bool = False) -> None:
    """Raise ValidationError unless p is prime (an odd prime when ``odd``)."""
    if (odd and p == 2) or not is_prime(p):
        raise ValidationError(f"{caller} requires {'odd ' if odd else ''}prime p, got {p}")


# The kept sieve: every prime <= _sieve_bound, ascending, read-only.  Nothing
# is built at import; prime_table grows it by doubling.
_sieve_bound = 1
_primes = np.empty(0, dtype=np.int64)


def prime_table(n: int) -> np.ndarray:
    """The kept int64 table of primes, ascending and read-only, covering at
    least every prime <= n (it may hold more: it grows by doubling)."""
    global _sieve_bound, _primes
    if n > PRIME_CAP:
        raise ResourceLimitError(f"prime bound {n} exceeds cap {PRIME_CAP}")
    if n > _sieve_bound:
        bound = min(PRIME_CAP, max(n, 2 * _sieve_bound))
        sieve = np.ones(bound + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, isqrt(bound) + 1):
            if sieve[p]:
                sieve[p * p :: p] = False
        primes = np.flatnonzero(sieve).astype(np.int64)
        primes.setflags(write=False)
        _sieve_bound, _primes = bound, primes
    return _primes


def primes_upto(n: int) -> list[int]:
    """All primes <= n, read from the kept sieve."""
    if n < 2:
        return []
    table = prime_table(n)
    return table[: np.searchsorted(table, n, side="right")].tolist()


def residues(n: int, moduli: np.ndarray) -> np.ndarray:
    """n mod m for every int64 modulus 0 < m <= PRIME_CAP, for any integer
    n >= 0, without forming n in int64: Horner's rule over 31-bit limbs."""
    limbs = []
    while n:
        limbs.append(n & (2**31 - 1))
        n >>= 31
    out = np.zeros_like(moduli)
    for limb in reversed(limbs):
        out = (out * 2**31 + limb) % moduli
    return out


def euler_criterion(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a^((p-1)/2) mod p elementwise, by square and multiply in int64, for
    0 <= a < p <= PRIME_CAP: 1 or p - 1 (the Legendre symbol of a), or 0
    when p divides a.  p = 2 gives 1."""
    exp = (p - 1) // 2
    out = np.ones_like(p)
    base = a
    while exp.any():
        out = np.where(exp & 1, out * base % p, out)
        base = base * base % p
        exp >>= 1
    return out


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1, ascending, whose prime factors are all
    at most PRIME_CAP; ResourceLimitError otherwise.

    Trial division by the kept primes <= min(PRIME_CAP, sqrt(cofactor)), one
    vectorized pass per doubling of that bound, so the work is bounded for
    every n.  A cofactor left above PRIME_CAP has a prime factor above it.
    """
    if n < 1:
        raise ValidationError(f"factorize requires n >= 1, got {n}")
    out: dict[int, int] = {}
    tested = 1  # every prime <= tested has been divided out
    while True:
        limit = min(PRIME_CAP, isqrt(n), max(2 * tested, 64))
        if limit <= tested:
            break
        table = prime_table(limit)
        lo, hi = np.searchsorted(table, (tested, limit), side="right")
        chunk = table[lo:hi]
        for p in chunk[residues(n, chunk) == 0].tolist():
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        tested = limit
    if n > PRIME_CAP:
        raise ResourceLimitError(f"n has a prime factor above the prime cap {PRIME_CAP}")
    if n > 1:
        out[n] = 1
    return out


def largest_prime_factor(n: int) -> int:
    """Largest prime dividing n, or 1 when n == 1."""
    fac = factorize(n)
    return max(fac) if fac else 1


def jacobi_symbol(c: int, d: int) -> int:
    """Extended quadratic symbol (c/d) for odd d.

    Legendre symbol for prime d > 0, extended multiplicatively to all odd
    d > 0, with (0/d) = 1 iff d = +-1 and, for d < 0 and c != 0,
    (c/d) = sign(c) * (c/-d).  This extension keeps (-1/d) = (-1)^((d-1)/2)
    valid for every odd d.
    """
    if d % 2 == 0 or d == 0:
        raise ValidationError(f"jacobi_symbol requires odd nonzero d, got {d}")
    if c == 0:
        return 1 if d in (1, -1) else 0
    if d < 0:
        sign = 1 if c > 0 else -1
        return sign * jacobi_symbol(c, -d)
    # binary reciprocity loop; no factorization of d needed
    a = c % d
    n = d
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def epsilon(d: int) -> complex:
    """The fourth root of unity sqrt((-1/d)): 1 for d = 1 mod 4, i for d = 3 mod 4."""
    if d % 2 == 0:
        raise ValidationError(f"epsilon requires odd d, got {d}")
    return (1 + 0j) if d % 4 == 1 else 1j


_I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)


def epsilon_power(d: int, k: int) -> complex:
    """epsilon(d)**k evaluated exactly (a power of i, never rounded)."""
    if d % 2 == 0:
        raise ValidationError(f"epsilon_power requires odd d, got {d}")
    if d % 4 == 1:
        return 1 + 0j
    return _I_POWERS[k % 4]


@dataclass(frozen=True)
class PAdicSplit:
    """n = p**ord * unit with gcd(unit, p) = 1."""

    p: int
    n: int
    ord: int
    unit: int


def p_adic_split(n: int, p: int) -> PAdicSplit:
    """Split n >= 1 as p**ord * unit.  n = 0 is rejected: ord_p(0) is undefined."""
    if n < 1:
        raise ValidationError(f"p_adic_split requires n >= 1, got {n}")
    require_prime(p, "p_adic_split")
    ord_, unit = valuation(n, p)
    return PAdicSplit(p=p, n=n, ord=ord_, unit=unit)


def valuation(n: int, p: int) -> tuple[int, int]:
    """(ord_p(n), n / p**ord_p(n)) without validation: the caller has checked
    n >= 1 and p >= 2."""
    ord_ = 0
    while n % p == 0:
        n //= p
        ord_ += 1
    return ord_, n


def j_prime_k(j: int, p: int) -> tuple[int, int]:
    """The involution partner j' in [1, p-1] with 4*j*j' + 1 = 0 mod p,
    together with the integer k_j = (4*j*j' + 1) / p.
    """
    require_prime(p, "j_prime_k", odd=True)
    if not 1 <= j <= p - 1:
        raise ValidationError(f"j must lie in [1, {p - 1}], got {j}")
    jp = (-pow(4 * j, -1, p)) % p
    k = (4 * j * jp + 1) // p
    assert (4 * j * jp + 1) % p == 0
    return jp, k
