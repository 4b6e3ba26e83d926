"""Test functions on (Z/pZ)^d, the finite Fourier transform and the phase /
rescaling operators acting on them, weighted theta series with certified
truncation, and numerical verification of the transformation identities.

Every operator on (Z/pZ)^d (L, S_j, the Fourier transform, the theta
contraction and the S(r, w) sums) acts on the (p,)*d value tensor one
coordinate axis at a time, since Q(x,x) = x_1^2 + ... + x_d^2 is diagonal;
L reads its phase at Q(x,x) mod p, the outer sum of the 1-d squares.

Conventions fixed throughout:

* ``finite_fourier`` is the plain counting-measure transform
  F(f)(xi) = sum_x f(x) e^{-2 pi i Q(x, xi)/p}, so F(F(f)) = p^d f(-x); it
  is numpy's FFT along every axis, and no p x p matrix is ever formed.
* Half-integral powers are always (principal sqrt)^d with
  arg(sqrt(z)) in (-pi/2, pi/2]; never exp((d/2) log z).
* The theta component at the cusp infinity is theta of the transform of f
  under the Plancherel-normalized pairing; with the plain transform above the
  p^d scale factors cancel, i.e. it equals theta_{F(f)} on the nose.  This is
  the unique normalization under which the whole generator-action table holds
  with unit cocycle values at 0 and infinity (the tests pin it numerically).
  It is evaluated without forming F(f): f is contracted with the 1-d FFT of
  the partial sums below.
* Theta values factor over the coordinates, theta_f(tau) = sum_e f(e)
  prod_i vartheta_{e_i}(tau) with vartheta_k(tau) = sum_{t = k mod p}
  e^{2 pi i t^2 tau}; each 1-d sum is cut at |t| <= T and its Gaussian tail
  bound is carried through the product into the certified ``tail`` of the
  returned ``ThetaValue``.  ``theta_coeffs`` reads the coefficients off the
  orbit census, which the tests use as the independent oracle for these
  values: f enters c_n only through its sums over the orbits of the signed
  coordinate permutations, so it is folded onto them once and the orbit
  table is contracted with the K orbit sums one orbit column at a time,
  never expanded to p**d columns and never copied.
* A value is f contracted with one 1-d vector: the partial sums of
  (p, tau_eff, cut, dual), permuted by S_a and phased by L^k, so the value
  of L^k S_a f is read off f itself.  One evaluator, ``_theta_values``,
  takes f and a list of such asks (``_component`` turns theta_f^j(point)
  into one) and computes every theta value: the full series and a single
  component as one ask, each identity check's finite values as one list.
  The finite components of one image point share Im tau_eff and so their
  cut; the evaluator builds their partial sums together, one exponential
  pass per bounded batch of distinct rows, dropped with its batch.  A pass
  gathers the vectors of all its asks at once and contracts f with them by
  one stacked matmul per axis, in groups of at most ``_PASS_TERMS`` //
  p^(d-1) vectors, so a group holds no more than a pass.  Each cut is
  searched once per call; nothing is kept between calls.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .arith import j_prime_k, jacobi_symbol, require_prime, valuation
from .density import SumCheck, gauss_sum
from .errors import QuadsumError, ResourceLimitError, ValidationError
from .lattice import encode_residues, orbit_census, qmod_vector, quadric_modulus, require_space
from .limits import (
    BRUTE_GRID_CAP,
    DEFAULT_EPS,
    PROFILE_CELL_CAP,
    THETA_CUT_CAP,
)

TWO_PI = 2.0 * math.pi

#: tolerance of the cusp, S(r, w)-vanishing and auxiliary-sum checks
CHECK_TOL = 1e-8

#: index of the cusp at infinity in the component family
INF = "inf"

CuspIndex = Union[int, str]


def _scaled(values: np.ndarray, p: int, d: int, j: int) -> np.ndarray:
    """The flat values of x -> f(j x mod p), one gather per coordinate axis."""
    idx = (j * np.arange(p)) % p
    t = values.reshape((p,) * d)
    for ax in range(d):
        t = np.take(t, idx, axis=ax)
    return t.reshape(-1)


class TestFunction:
    """A complex-valued function on (Z/pZ)^d, stored densely.

    Values are indexed by the base-p encoding of the argument (coordinate 0
    least significant) and are immutable after construction.
    """

    __test__ = False  # keep pytest from collecting this as a test class
    __slots__ = ("p", "d", "values", "_even", "_max_abs")

    def __init__(self, p: int, d: int, values):
        require_space(p, d, "TestFunction")
        self._hold(p, d, np.array(values, dtype=np.complex128))

    @classmethod
    def _adopt(cls, p: int, d: int, arr: np.ndarray) -> TestFunction:
        """A function holding ``arr`` itself, not a copy: for a fresh
        complex128 array the library has just built for it and hands over."""
        f = cls.__new__(cls)
        f._hold(p, d, arr)
        return f

    def _hold(self, p: int, d: int, arr: np.ndarray) -> None:
        if arr.shape != (p**d,):
            raise ValidationError(
                f"expected {p**d} values for p={p}, d={d}, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_even", None)
        object.__setattr__(self, "_max_abs", None)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("TestFunction is immutable")

    @property
    def is_even(self) -> bool:
        if self._even is None:
            v = self.values
            flipped = _scaled(v, self.p, self.d, -1)
            scale = max(1.0, self.max_abs)
            object.__setattr__(self, "_even", bool(np.abs(v - flipped).max(initial=0.0) <= 1e-12 * scale))
        return self._even

    @property
    def max_abs(self) -> float:
        if self._max_abs is None:
            object.__setattr__(self, "_max_abs", float(np.abs(self.values).max(initial=0.0)))
        return self._max_abs

    def value_at(self, coords) -> complex:
        coords = tuple(coords)
        if len(coords) != self.d:
            raise ValidationError(f"expected {self.d} coordinates, got {len(coords)}")
        return complex(self.values[encode_residues(coords, self.p)])

    def __repr__(self):
        return f"TestFunction(p={self.p}, d={self.d}, even={self.is_even})"


def constant_function(p: int, d: int) -> TestFunction:
    require_space(p, d, "TestFunction")
    return TestFunction._adopt(p, d, np.ones(p**d, dtype=np.complex128))


def origin_indicator(p: int, d: int) -> TestFunction:
    require_space(p, d, "TestFunction")
    v = np.zeros(p**d, dtype=np.complex128)
    v[0] = 1.0
    return TestFunction._adopt(p, d, v)


def even_projection(f: TestFunction) -> TestFunction:
    """(f(x) + f(-x)) / 2, even bit for bit: each sum is symmetric in x and -x."""
    v = _scaled(f.values, f.p, f.d, -1)
    v += f.values
    v /= 2.0
    g = TestFunction._adopt(f.p, f.d, v)
    object.__setattr__(g, "_even", True)
    return g


def finite_fourier(f: TestFunction) -> TestFunction:
    """F(f)(xi) = sum_x f(x) e^{-2 pi i Q(x, xi)/p}: Q is diagonal, so this is
    numpy's d-dimensional FFT of the (p,)*d value tensor.

    Applying it twice gives p^d f(-x) (counting-measure normalization).
    Every axis after the first is transformed in place, so the transform
    holds one array of f's size.
    """
    out = np.empty((f.p,) * f.d, dtype=np.complex128)
    np.fft.fftn(f.values.reshape(out.shape), out=out)
    return TestFunction._adopt(f.p, f.d, out.reshape(-1))


def op_L(f: TestFunction, k: int = 1) -> TestFunction:
    """Multiplication by the quadratic phase: (L^k f)(x) = e^{-2 pi i k Q(x,x)/p} f(x)."""
    # one exponential per value of Q mod quadric_modulus(p), gathered.  The
    # gather is bound to a name: numpy reuses a nameless temporary of 256 KiB
    # or more as the output and puts it first, and a complex product can
    # round differently with its operands swapped.
    levels = np.arange(quadric_modulus(f.p), dtype=np.int64)
    phase = np.exp(-2j * np.pi * ((k * levels) % f.p) / f.p)[qmod_vector(f.p, f.d)]
    return TestFunction._adopt(f.p, f.d, f.values * phase)


def op_Sj(f: TestFunction, j: int) -> TestFunction:
    """Rescaling of the argument: (S_j f)(x) = f(j x), for 1 <= j <= p-1."""
    if not 1 <= j <= f.p - 1:
        raise ValidationError(f"op_Sj needs 1 <= j <= p-1, got j={j}, p={f.p}")
    return TestFunction._adopt(f.p, f.d, _scaled(f.values, f.p, f.d, j))


def op_M(f: TestFunction) -> TestFunction:
    """The p = 2 phase operator: (M f)(x) = e^{-2 pi i Q(x,x)/4} f(x), with
    Q(x,x) the integer sum of bits (well defined mod 4)."""
    if f.p != 2:
        raise ValidationError(f"op_M is defined only for p = 2, got p={f.p}")
    q = qmod_vector(2, f.d)  # already reduced mod 4
    phase = np.exp(-2j * np.pi * q / 4)
    return TestFunction._adopt(f.p, f.d, f.values * phase)


def random_even_function(p: int, d: int, seed: int) -> TestFunction:
    """Seeded uniform complex values in the unit square, even-projected."""
    require_space(p, d, "TestFunction")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    v = np.empty(p**d, dtype=np.complex128)
    v.real, v.imag = rng.random(p**d), rng.random(p**d)
    v = TestFunction._adopt(p, d, v)  # drops the draw before the projection
    return even_projection(v)


def random_cusp_function(p: int, d: int, seed: int) -> TestFunction:
    """Seeded even function satisfying the cusp vanishing conditions exactly:
    zero at the pinned points, zero sum over every level set of Q."""
    f = random_even_function(p, d, seed)
    v = f.values.copy()
    del f  # the draw is not held through the level-set loop
    levels, points = _cusp_conditions(p, d)
    pinned = np.array([e for _, e in points])
    v[pinned] = 0.0
    for idx in levels:
        free = np.setdiff1d(idx, pinned, assume_unique=True)
        if free.size:
            v[free] -= v[idx].sum() / free.size
    return TestFunction._adopt(p, d, v)


# ---------------------------------------------------------------------------
# theta series evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientSeries:
    """c_n = sum over X_d(n) of f(x mod p), for n = 0..nmax."""

    p: int
    d: int
    nmax: int
    c: np.ndarray


def theta_coeffs(f: TestFunction, nmax: int) -> CoefficientSeries:
    """c_n read off the orbit census: a count depends on a residue only through
    its orbit, so c_n = sum_k rows[n, k] F_k with F_k the sum of f over orbit k.

    Each F_k is one ``math.fsum`` of the real parts and one of the imaginary
    parts, so it is correctly rounded; the contraction with ``rows`` then adds
    at most gamma_K for K orbits.  It takes one orbit column at a time,
    c += rows[:, k] F_k in orbit order, so every c_n is the same left-to-right
    sum of K products whatever the BLAS thread count, and neither a table of
    p**d columns nor a complex copy of the orbit table is ever formed.
    """
    rows, rank = orbit_census(f.d, nmax, f.p)
    order = np.argsort(rank)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(rank, minlength=rows.shape[1]))))
    re, im = f.values.real[order], f.values.imag[order]
    orbit_sums = np.array([
        complex(math.fsum(re[lo:hi].tolist()), math.fsum(im[lo:hi].tolist()))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ])
    c = np.zeros(nmax + 1, dtype=np.complex128)
    for column, orbit_sum in zip(rows.T, orbit_sums):
        c += column * orbit_sum
    return CoefficientSeries(p=f.p, d=f.d, nmax=nmax, c=c)


@dataclass(frozen=True)
class ThetaValue:
    """A truncated theta evaluation with its certified tail bound.

    ``radius`` is the 1-d cut T: every coordinate sum runs over |t| <= T, so
    the evaluation covers the cube [-T, T]^d of Z^d.
    """

    value: complex
    tail: float
    radius: int


def _gauss_tail(y: float, cut: int) -> float:
    """sum_{|t| > cut} e^{-2 pi y t^2} <= 2 rho^{(cut+1)^2} / (1 - rho^{2 cut + 3}),
    rho = e^{-2 pi y}, by comparing the exponents with an arithmetic progression."""
    return 2.0 * math.exp(-TWO_PI * y * (cut + 1) ** 2) / -math.expm1(-TWO_PI * y * (2 * cut + 3))


#: most terms, and most partial sums, one ``_partial_theta_rows`` pass holds,
#: and most entries of a contraction group's first axis and of the block of f
#: one matrix-vector product reads, unless one row, one vector or a (p, p)
#: block alone has more
_PASS_TERMS = 2**14


def _partial_theta_rows(p: int, taus: list[complex], cut: int) -> np.ndarray:
    """Row r holds v_k = sum_{|t| <= cut, t = k mod p} e^{2 pi i t^2 taus[r]}, k = 0..p-1.

    Terms are accumulated outward from t = 0, so a larger cut only appends
    terms after the ones a smaller cut already summed.  The rows come from
    one exponential pass over the (rows, 2 cut + 1) grid and one bincount,
    with the bins of row r offset by r p.  Each row is bit for bit the row
    computed alone: its exponents are the same products and bincount adds
    the terms of a bin in input order.
    """
    t = np.arange(1, 2 * cut + 2, dtype=np.int64) // 2  # 0, 1, -1, 2, -2, ...
    t[2::2] *= -1
    phase = np.array([2j * np.pi * tau for tau in taus])
    terms = np.exp(phase[:, None] * (t * t))
    bins = (t % p + p * np.arange(len(taus))[:, None]).ravel()
    sums = np.empty(p * len(taus), dtype=np.complex128)
    # a bincount sum is never -0.0, so these are the bits of re + 1j * im
    sums.real = np.bincount(bins, terms.real.ravel(), minlength=sums.size)
    sums.imag = np.bincount(bins, terms.imag.ravel(), minlength=sums.size)
    return sums.reshape(len(taus), p)


def _product_tail(m: float, d: int, beta: float, a_sum: float) -> float:
    """m d beta (a_sum + beta)^{d-1}: the error of sum_e f(e) prod_i a_{e_i},
    max|f| = m, when every coordinate vector a, with sum_k |a_k| <= a_sum,
    misses its full sum by b with sum_k |b_k| <= beta (telescope the product)."""
    return m * d * beta * (a_sum + beta) ** (d - 1)


def _theta_cut(m: float, d: int, spread: int, y: float, eps: float) -> int:
    """The smallest cut T in [0, THETA_CUT_CAP] whose a priori bound
    prior(T) = ``_product_tail``(m, d, spread gauss_tail(y, T), a) is at most
    eps, with a = spread (1 + 1/sqrt(2 y)) bounding the summed modulus;
    ResourceLimitError when THETA_CUT_CAP falls short.

    The leading Gaussian term of prior(T), 2 m d spread a^{d-1}
    e^{-2 pi y (T+1)^2}, never exceeds prior(T), so the cut where it meets
    eps is a lower bound on T; the bracket starts two below it, so rounding
    cannot skip T, and steps up to a bracket that bisection closes.  The
    steps double, since plain unit steps from that start take up to 5e5 of
    them at Im(tau) near 1e-12.
    """
    a_bound = spread * (1.0 + 1.0 / math.sqrt(2.0 * y))

    def prior(cut: int) -> float:
        return _product_tail(m, d, spread * _gauss_tail(y, cut), a_bound)

    # the 1-d test keeps the power in prior() finite at every cut it is asked for
    if not (_gauss_tail(y, THETA_CUT_CAP) < 1.0 and prior(THETA_CUT_CAP) <= eps):
        raise ResourceLimitError(f"theta truncation needs a cut above {THETA_CUT_CAP} at Im(tau) = {y}")
    log_ratio = math.log(2.0 * d * spread) + math.log(m) - math.log(eps) + (d - 1) * math.log(a_bound)
    reach = math.sqrt(max(log_ratio, 0.0) / (TWO_PI * y))
    cut = max(0, math.ceil(min(reach, THETA_CUT_CAP)) - 1)
    lo, step = max(cut - 2, -1), 1
    while prior(cut) > eps:
        lo, cut = cut, min(cut + step, THETA_CUT_CAP)
        step *= 2
    # prior(cut) <= eps < prior(lo), with prior(-1) read as infinite
    while cut - lo > 1:
        mid = (lo + cut) // 2
        if prior(mid) <= eps:
            cut = mid
        else:
            lo = mid
    return cut


def _contract(f: TestFunction, w: np.ndarray) -> np.ndarray:
    """f contracted with each row of the (k, p) stack w along every axis: one
    stacked matmul per axis with the rows as (k, p, 1) columns.

    An axis is a matrix-vector product per block of tensor rows: the largest
    power of p of them (at least p) whose block holds at most ``_PASS_TERMS``
    entries, or all that are left (one, a dot, on the last axis).  Each
    output is still the dot of one length-p row with w[r], so every value is
    bit for bit ``t @ w[r]`` applied d times to the (p,)*d tensor: few calls
    where p is small, blocks that stay in cache where f is large.
    """
    p = f.p
    block = p
    while block * p * p <= _PASS_TERMS:
        block *= p
    cols = w[:, None, :, None]
    t, n = f.values.reshape(1, -1), f.values.size
    for _ in range(f.d):
        n //= p
        t = t.reshape(len(t), -1, min(block, n), p) @ cols
    return t.ravel()


def _checked(res: ThetaValue, eps: float) -> ThetaValue:
    if not res.tail <= eps * (abs(res.value) + 1.0):
        raise QuadsumError(f"theta tail {res.tail} above eps (|value| + 1) at cut {res.radius}")
    return res


def _upper_half_plane(tau: complex, eps: float) -> complex:
    """tau as a complex number, once eps and tau are checked: the usage
    errors of every theta evaluation, raised before any image point is made."""
    if not 0 < eps < math.inf:
        raise ValidationError(f"eps must be positive and finite, got {eps}")
    tau = complex(tau)
    if not cmath.isfinite(tau):
        raise ValidationError(f"tau must be finite, got {tau}")
    if tau.imag <= 0:
        raise ValidationError(f"Im(tau) must be positive, got {tau}")
    return tau


def _image_point(label: str, point: complex) -> complex:
    """``point``, an image of a tau with Im(tau) > 0, once its imaginary part
    is checked.  In double precision that part can underflow to 0, as for
    -1/(4 tau) at a tau of huge real part: a limit of the arithmetic, not a
    bad input, hence ResourceLimitError and not ValidationError."""
    if not point.imag > 0:
        raise ResourceLimitError(
            f"the image point {label} = {point} has no positive imaginary part in double precision"
        )
    return point


def _component(f: TestFunction, j: CuspIndex, point: complex) -> tuple[complex, bool, int, int]:
    """The ask (tau_eff, dual, 1, 0) of the component theta_f^j(point), j in
    {0..p-1, inf} (odd p, even f, Im(point) > 0), for ``_theta_values``.

    Finite j uses the exponent tau_eff = (point - j)/p^2; j = inf is theta of
    the finite Fourier transform of f at point (the p^d scale of the
    component and the 1/p^d of the Plancherel-normalized transform cancel),
    evaluated without forming the transform.  Scale 1 and twist 0 ask for f
    itself; (a, k) in their place ask for L^k S_a f, which is even with f.
    """
    if f.p == 2:
        raise ValidationError("theta components are defined for odd p only")
    if not f.is_even:
        raise ValidationError("theta components require an even test function")
    if j == INF:
        return point, True, 1, 0
    if not isinstance(j, (int, np.integer)) or not 0 <= int(j) <= f.p - 1:
        raise ValidationError(f"cusp index must be in {{0..p-1}} or '{INF}', got {j!r}")
    return _image_point(f"(tau - {j})/{f.p}^2", (point - int(j)) / f.p**2), False, 1, 0


def _theta_values(f: TestFunction, asks: list[tuple[complex, bool, int, int]], eps: float) -> list[ThetaValue]:
    """theta_g(tau_eff) (theta_{F(g)} when ``dual``), g = L^k S_a f, with
    tail <= eps for each (tau_eff, dual, a, k) of ``asks``: the one evaluator
    of theta values.  eps and every Im(tau_eff) > 0 are already checked; an
    ask whose largest phase 2 pi i T^2 tau_eff overflows is refused with
    ResourceLimitError before any exponential is taken.

    theta_g = sum_e g(e) prod_i vartheta_{e_i}, so the truncated value is the
    contraction of the (p,)*d value tensor with the partial sums v along
    every axis; for the transform, with W the p-point DFT matrix,
    <W^{(x)d} g, v^{(x)d}> = <g, (W v)^{(x)d}> contracts g with
    W v = ``np.fft.fft(v)`` instead, and W multiplies the l1 norm of the 1-d
    tail by at most p.  S_a permutes the residues of each coordinate and L^k
    multiplies each by its own phase, so <L^k S_a f, v^{(x)d}> =
    <f, w^{(x)d}> with w_m = e^{-2 pi i k u^2/p} v_u, u = a^{-1} m mod p:
    every value is a contraction of f itself, and no g is formed.  The tail
    is ``_product_tail`` at the summed modulus of w.  The cut T is the
    smallest one whose a priori bound, the same product with
    sum_{|t| <= T} |e^{2 pi i t^2 tau}| <= 1 + 1/sqrt(2 Im tau) (times p for
    the transform) in place of the computed summed modulus, is at most eps
    (``_theta_cut``); the reported tail never exceeds it, so one evaluation
    at T suffices.

    Each cut is searched once per (spread, Im tau_eff) in a call, so the
    finite components of one image point, which share Im tau_eff, share one
    cut.  The asks with one cut and ``dual`` share their partial sums: each
    distinct tau_eff gets one row, built in ``_partial_theta_rows`` passes of
    at most ``_PASS_TERMS`` terms and sums (one row where it alone has more).
    A pass (``_theta_pass``) turns its rows into the vectors w of all its
    asks at once and contracts f with them in groups of at most
    ``_PASS_TERMS`` // p^(d-1) vectors (one where p^(d-1) is larger), so a
    group holds no more than a pass; everything is dropped with the pass.
    """
    values = [ThetaValue(0j, 0.0, 0)] * len(asks)
    if f.max_abs == 0.0:
        return values
    p = f.p
    # e^{-2 pi i m/p}, gathered at k u^2 mod p; only an ask with a != 1 or k != 0 reads it
    roots = np.exp(-2j * np.pi * np.arange(p) / p) if any(a != 1 or k for *_, a, k in asks) else None
    cuts: dict[tuple[int, float], int] = {}
    users: dict[tuple[int, bool], dict[complex, list[tuple[int, int, int]]]] = {}
    for i, (tau_eff, dual, scale, twist) in enumerate(asks):
        key = (p if dual else 1, tau_eff.imag)
        if key not in cuts:
            cuts[key] = _theta_cut(f.max_abs, f.d, *key, eps)
        # the largest phase of the partial sums, t = cut (t = 0 at cut 0)
        if not cmath.isfinite(2j * math.pi * tau_eff * max(cuts[key], 1) ** 2):
            raise ResourceLimitError(f"the phases 2 pi i t^2 tau at tau = {tau_eff} overflow in double precision")
        users.setdefault((cuts[key], dual), {}).setdefault(tau_eff, []).append((i, scale, twist))
    for (cut, dual), at in users.items():
        taus = list(at)
        step = max(1, _PASS_TERMS // max(p, 2 * cut + 1))
        for lo in range(0, len(taus), step):
            for i, value in _theta_pass(f, cut, dual, taus[lo:lo + step], at, roots, eps):
                values[i] = value
    return values


def _theta_pass(f: TestFunction, cut: int, dual: bool, taus: list[complex],
                at: dict[complex, list[tuple[int, int, int]]], roots: np.ndarray | None,
                eps: float) -> list[tuple[int, ThetaValue]]:
    """The values (i, ThetaValue) of the asks (i, a, k) of ``at[tau_eff]``
    for each tau_eff of ``taus``, all at one cut and ``dual``: one pass of
    partial sums, in its own scope, so nothing of it outlives the pass.

    The vectors w of all the asks are one gather of the rows; the S_a
    permutation and the L^k phases are applied only to the asks with a != 1
    or k != 0.  One reduction takes their summed moduli, and f is contracted
    with them in groups of at most ``_PASS_TERMS`` // p^(d-1) vectors.  Every
    value, tail and radius is bit for bit the ask's own one-ask call.
    """
    p, d = f.p, f.d
    rows = _partial_theta_rows(p, taus, cut)
    if dual:
        rows = np.fft.fft(rows)
    mine = [(r, i, a, k) for r, tau in enumerate(taus) for i, a, k in at[tau]]
    w = rows.take([r for r, *_ in mine], axis=0)
    moved = [n for n, (_, _, a, k) in enumerate(mine) if a != 1 or k]
    if moved:
        r, inverse, k = np.array([(mine[n][0], pow(mine[n][2], -1, p), mine[n][3]) for n in moved]).T
        u = inverse[:, None] * np.arange(p) % p
        w[moved] = roots[k[:, None] * (u * u % p) % p] * rows[r[:, None], u]
    a_sums = np.abs(w).sum(axis=1).tolist()
    group = max(1, _PASS_TERMS // p ** (d - 1))
    found = [z for lo in range(0, len(w), group) for z in _contract(f, w[lo:lo + group]).tolist()]
    betas = [_gauss_tail(tau.imag, cut) * (p if dual else 1) for tau in taus]
    return [
        (i, _checked(ThetaValue(value, _product_tail(f.max_abs, d, betas[r], a_sum), cut), eps))
        for (r, i, _, _), value, a_sum in zip(mine, found, a_sums)
    ]


def theta_eval_full(f: TestFunction, tau: complex, eps: float = DEFAULT_EPS) -> ThetaValue:
    """theta_f(tau) = sum_{x in Z^d} f(x mod p) e^{2 pi i Q(x,x) tau}, truncated."""
    return _theta_values(f, [(_upper_half_plane(tau, eps), False, 1, 0)], eps)[0]


def theta_eval(f: TestFunction, tau: complex, eps: float = DEFAULT_EPS) -> complex:
    return theta_eval_full(f, tau, eps).value


def theta_j_eval_full(f: TestFunction, j: CuspIndex, tau: complex, eps: float = DEFAULT_EPS) -> ThetaValue:
    """The component theta_f^j(tau) for j in {0..p-1, inf} (odd p, even f):
    theta_f at (tau - j)/p^2 for finite j, theta_{F(f)} at tau for j = inf
    (``_component``)."""
    return _theta_values(f, [_component(f, j, _upper_half_plane(tau, eps))], eps)[0]


def theta_j_eval(f: TestFunction, j: CuspIndex, tau: complex, eps: float = DEFAULT_EPS) -> complex:
    return theta_j_eval_full(f, j, tau, eps).value


def half_power(z: complex, d: int) -> complex:
    """z^{d/2} = (principal sqrt of z)^d, arg(sqrt(z)) in (-pi/2, pi/2]."""
    return cmath.sqrt(z) ** d


@dataclass(frozen=True)
class TransformResidual:
    label: str
    lhs: complex
    rhs: complex
    residual: float


def _residual(label: str, lhs: complex, rhs: complex) -> TransformResidual:
    return TransformResidual(
        label=label, lhs=lhs, rhs=rhs, residual=abs(lhs - rhs) / max(1.0, abs(rhs))
    )


def _poisson(tau: complex, d: int, lhs: complex, at_zero: complex) -> TransformResidual:
    """The residual of the summation identity from lhs = theta_f^inf(tau) and
    at_zero = theta_f^0(-1/(4 tau))."""
    return _residual("poisson", lhs, half_power(1j / (2 * tau), d) * at_zero)


def verify_poisson(f: TestFunction, tau: complex, eps: float = DEFAULT_EPS) -> TransformResidual:
    """Residual of the summation identity
    theta_f^inf(tau) = (i/2tau)^{d/2} theta_f^0(-1/(4 tau))."""
    tau = complex(tau)
    lhs = theta_j_eval(f, INF, tau, eps)
    tau_inv = _image_point("-1/(4 tau)", -1 / (4 * tau))
    return _poisson(tau, f.d, lhs, _theta_values(f, [_component(f, 0, tau_inv)], eps)[0].value)


def verify_generator_actions(
    f: TestFunction, tau: complex, eps: float = DEFAULT_EPS
) -> list[TransformResidual]:
    """Residuals for the action of the two group generators on the component
    family: the translation generator permutes the finite components (picking
    up an L phase at the wrap) and fixes infinity; the inversion generator
    swaps 0 with infinity and pairs j with its involution partner j' through
    the composed L/S operator, with the (i/2tau)^{d/2} factor.

    The ``gamma j=0`` row is the summation identity's residual relabelled,
    and theta_f^inf(tau) is read first, so a failing input raises what
    ``verify_poisson`` would.  Every finite component is an ask of one
    ``_theta_values`` call on f itself: the component of L f is f's with
    twist 1, and the component j' of L^k S_{2j'} f is f's with scale 2j' and
    twist k; theta_f^j(tau) is asked once for its alpha and its gamma row.
    A value at infinity shares no partial sums with them (its vector is the
    FFT of v, its cut carries the spread p); the three are read through the
    module's ``theta_j_eval_full`` when the table runs, the one at tau once
    for its two rows, so a wrapped or corrupted ``theta_j_eval_full`` (the
    bench self-test) shows in them.
    """
    tau = complex(tau)
    p, d = f.p, f.d
    at_inf = theta_j_eval(f, INF, tau, eps)
    tau_inv = _image_point("-1/(4 tau)", -1 / (4 * tau))
    asks = [_component(f, 0, tau_inv)]
    asks += [_component(f, jp, tau_inv)[:2] + ((2 * jp) % p, (kj * jp) % p)
             for jp, kj in (j_prime_k(j, p) for j in range(1, p))]
    asks += [_component(f, j, point) for point in (tau - 1, tau) for j in range(p)]
    # the last ask is theta_{L f}^0(tau): f's component 0 at tau with twist 1
    asks.append(_component(f, 0, tau)[:2] + (1, 1))
    found = [v.value for v in _theta_values(f, asks, eps)]
    at_inv, before, at_tau = found[1:p], found[p:2 * p], found[2 * p:3 * p]
    rows = [_residual(f"alpha j={j}", before[j], at_tau[j + 1]) for j in range(p - 1)]
    rows.append(_residual("alpha j=p-1", before[p - 1], found[3 * p]))
    rows.append(_residual("alpha j=inf", theta_j_eval(f, INF, tau - 1, eps), at_inf))
    w = half_power(1j / (2 * tau), d)
    rows += [_residual(f"gamma j={j}", at_tau[j], w * value) for j, value in enumerate(at_inv, start=1)]
    rows.append(replace(_poisson(tau, d, at_inf, found[0]), label="gamma j=0"))
    rows.append(_residual("gamma j=inf", theta_j_eval(f, INF, tau_inv, eps), half_power(2 * tau / 1j, d) * at_tau[0]))
    return rows


# ---------------------------------------------------------------------------
# cusp criterion and the S(r, w) sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CuspCheck:
    is_cusp: bool
    failing_condition: str | None


def _cusp_conditions(p: int, d: int) -> tuple[list[np.ndarray], list[tuple[str, int]]]:
    """The cusp conditions on (Z/pZ)^d: the index sets of the levels of Q, in
    ascending order (f sums to zero on each), then the labelled points f
    vanishes at: the all-ones corner (p = 2 only), then the origin."""
    q = qmod_vector(p, d)
    levels = [np.nonzero(q == a)[0] for a in range(quadric_modulus(p))]
    points = [("corner (1,...,1)", 2**d - 1)] if p == 2 else []
    return levels, points + [("origin", 0)]


def cusp_check(f: TestFunction) -> CuspCheck:
    """Vanishing conditions for the weighted theta series to be a cusp form,
    ``_cusp_conditions``.  Reports the first failure, level sums in
    ascending order of the level, then the pinned points."""
    levels, points = _cusp_conditions(f.p, f.d)
    v = f.values
    for a, idx in enumerate(levels):
        if abs(v[idx].sum()) > CHECK_TOL:
            return CuspCheck(is_cusp=False, failing_condition=f"level-sum a={a}")
    for label, e in points:
        if abs(v[e]) > CHECK_TOL:
            return CuspCheck(is_cusp=False, failing_condition=label)
    return CuspCheck(is_cusp=True, failing_condition=None)


def _tower_multiplicity(p: int, d: int, r: int) -> float:
    """p^{(max(r,1)-1) d}: the lifts to (Z/p^max(r,1) Z)^d behind each residue vector."""
    return float(p ** ((max(r, 1) - 1) * d))


def srw_profile(f: TestFunction, r: int) -> np.ndarray:
    """S(r, w) = sum over y in (Z/p^max(r,1) Z)^d of f(y mod p) e^{2 pi i Q(y,y) w / p^r}
    for every w in [0, p^r) at once (w enters only through w mod p^r).

    The one evaluator of these sums: Q splits as a sum of squares, so each
    coordinate contributes the same p x p^r table of tower sums, and the
    cost is p^d p^r instead of p^{d max(r,1)} per w.
    """
    if r < 0:
        raise ValidationError(f"srw_profile requires r >= 0, got {r}")
    p, d = f.p, f.d
    if r == 0:
        return np.array([complex(f.values.sum())])
    denom = p**r
    if p**d * denom > PROFILE_CELL_CAP:
        raise ResourceLimitError("srw_profile table exceeds cell cap")
    # t1w[k, w] = sum_u e^{2 pi i (k + p u)^2 w / p^r}: the conjugated FFT of
    # the counts of each square class, one row per residue k
    k = np.arange(p, dtype=np.int64)[:, None]
    u = np.arange(p ** (r - 1), dtype=np.int64)[None, :]
    cls = k * denom + ((k + p * u) ** 2) % denom
    counts = np.bincount(cls.ravel(), minlength=p * denom).reshape(p, denom)
    t1w = np.conj(np.fft.fft(counts, axis=1))
    # contract coordinate 0 with t1w, then each further axis at every w at once
    t = (f.values.reshape(-1, p) @ t1w).T  # (p^r, p^{d-1})
    for _ in range(d - 1):
        t = (t.reshape(denom, -1, p) @ t1w.T[:, :, None])[..., 0]
    return t[:, 0]


def srw_vanishing(f: TestFunction, rmax: int) -> bool:
    """True when every S(r, w), r <= rmax, 0 <= w < p^r, vanishes to within
    ``CHECK_TOL`` after dividing by the tower multiplicity p^{(max(r,1)-1) d}
    (the number of lifts behind each residue vector).  The normalization keeps the
    threshold meaningful across r: the raw sums grow like the multiplicity,
    so their roundoff does too.
    """
    if rmax < 0:
        raise ValidationError(f"srw_vanishing requires rmax >= 0, got {rmax}")
    for r in range(rmax + 1):
        if float(np.abs(srw_profile(f, r)).max()) >= CHECK_TOL * _tower_multiplicity(f.p, f.d, r):
            return False
    return True


def _brute_phase_sum(cols, m: int, w: int) -> complex:
    """sum over every choice (c_1, ..., c_d) of one entry from each column of
    e^{2 pi i w (c_1 + ... + c_d) / m}, literally: each grid point's exponent is
    reduced mod m and exponentiated on its own (the oracle side of the checks)."""
    tot = np.zeros(1, dtype=np.int64)
    for col in cols:
        tot = ((tot[:, None] + col[None, :]) % m).ravel()
    return complex(np.exp(2j * np.pi * ((tot * (w % m)) % m) / m).sum())


def rsum_check(r: int, k, w: int) -> SumCheck:
    """The p = 2 auxiliary sum R(r,k,w) = sum_{u in (Z/2^{r-2})^d}
    e^{2 pi i Q(u, u+k) w / 2^{r-2}} for a bit vector k, brute-forced and
    compared with its closed value.

    For w coprime to 2 the closed value is the stated vanishing pattern
    (2^d at k = all-ones when r = 3, nonzero only at k = 0 when r >= 4);
    general w reduces to that case by pulling the 2-adic valuation of w out
    of the modulus, which multiplies the sum by 2^{s d}.
    """
    k = tuple(int(b) for b in k)
    d = len(k)
    if r < 3:
        raise ValidationError(f"rsum_check requires r >= 3, got {r}")
    if d < 1 or any(b not in (0, 1) for b in k):
        raise ValidationError(f"k must be a nonempty bit vector, got {k}")
    m = 2 ** (r - 2)
    if m**d > BRUTE_GRID_CAP:
        raise ResourceLimitError(f"brute-force grid 2^{(r-2)*d} exceeds cap {BRUTE_GRID_CAP}")
    wm = w % m
    u = np.arange(m, dtype=np.int64)
    value = _brute_phase_sum([(u * (u + bit)) % m for bit in k], m, wm)

    if wm == 0:
        expected = complex(m**d)
    else:
        s, w1 = valuation(wm, 2)
        r2 = r - s  # wm < 2^{r-2} forces s <= r-3, hence r2 >= 3
        scale = 2 ** (s * d)
        if r2 == 3:
            expected = complex(scale * 2**d) if all(b == 1 for b in k) else 0j
        elif any(k):
            expected = 0j
        else:
            expected = scale * gauss_sum(2 ** (r2 - 2), w1) ** d
    return SumCheck(value=value, expected=expected, passed=abs(value - expected) <= CHECK_TOL * max(1.0, abs(expected)))


def tsum_check(p: int, r: int, k, w: int) -> SumCheck:
    """The odd-p auxiliary sum T(r,k,w) = sum_{u in (Z/p^{r-1})^d}
    e^{2 pi i Q(k + p u, k + p u) w / p^r}, brute-forced and compared with its
    closed value: for w coprime to p it is p^d times the full square sum one
    level down when every coordinate of k is divisible by p, and 0 otherwise;
    general w reduces to that case through its p-adic valuation.
    """
    require_prime(p, "tsum_check", odd=True)
    if r < 2:
        raise ValidationError(f"tsum_check requires r >= 2, got {r}")
    k = tuple(int(c) for c in k)
    d = len(k)
    if d < 1:
        raise ValidationError("k must be nonempty")
    denom = p**r
    if (p ** (r - 1)) ** d > BRUTE_GRID_CAP:
        raise ResourceLimitError(f"brute-force grid p^{(r-1)*d} exceeds cap {BRUTE_GRID_CAP}")
    # bounds every square (k_i mod p^r + p u)^2 and every phase product below
    if (max(c % denom for c in k) + denom) ** 2 > 2**63 - 1:
        raise ResourceLimitError(f"squares mod p^{r} = {denom} pass the int64 cap 2**63 - 1")
    wm = w % denom
    u = np.arange(p ** (r - 1), dtype=np.int64)
    value = _brute_phase_sum([(((c % denom) + p * u) ** 2) % denom for c in k], denom, wm)

    if wm == 0:
        expected = complex(p ** ((r - 1) * d))
    else:
        s, w1 = valuation(wm, p)
        r2 = r - s  # wm < p^r nonzero forces s <= r-1, hence r2 >= 1
        scale = p ** (s * d)
        if r2 == 1:
            qk = sum(c * c for c in k) % p
            expected = scale * cmath.exp(2j * math.pi * ((qk * w1) % p) / p)
        elif all(c % p == 0 for c in k):
            expected = scale * p**d * gauss_sum(p ** (r2 - 2), w1) ** d
        else:
            expected = 0j
    return SumCheck(value=value, expected=expected, passed=abs(value - expected) <= CHECK_TOL * max(1.0, abs(expected)))


# ---------------------------------------------------------------------------
# congruence-group membership and weak modularity
# ---------------------------------------------------------------------------


def is_in_gamma(g, p: int) -> bool:
    """Membership in the level-p congruence group fixing the weighted theta
    series: diagonal entries 1 mod 4p and lower-left entry 0 mod 4p^2 for odd
    p; 1 mod 4 and 0 mod 16 for p = 2.  Requires det(g) = 1."""
    require_prime(p, "is_in_gamma")
    (a, b), (c, d) = g
    a, b, c, d = int(a), int(b), int(c), int(d)
    if a * d - b * c != 1:
        raise ValidationError(f"matrix must have determinant 1, got {a * d - b * c}")
    if p == 2:
        return a % 4 == 1 and d % 4 == 1 and c % 16 == 0
    return a % (4 * p) == 1 and d % (4 * p) == 1 and c % (4 * p * p) == 0


def verify_weak_modularity(
    f: TestFunction, g, tau: complex, eps: float = DEFAULT_EPS
) -> TransformResidual:
    """Residual of the weight-d/2 transformation law under g in the level-p
    group, theta_f(g tau) = ((c/d) eps_d^{-1})^D (c tau + d)^{D/2} theta_f(tau)
    in dimension D, compared as complex numbers.  Even D: the factor is
    (c tau + d)^{D/2}.  Odd D: ``is_in_gamma`` forces d = 1 mod 4, so
    eps_d = 1 and the factor is (c/d) (c tau + d)^{D/2}, with Shimura's
    symbol (``arith.jacobi_symbol``) and the principal square root
    (``half_power``).  Reference: G. Shimura, Ann. of Math. 97 (1973)."""
    return _weak_modularity_residuals(f, [g], tau, eps)[0]


def _weak_modularity_residuals(
    f: TestFunction, gs: list, tau: complex, eps: float = DEFAULT_EPS
) -> list[TransformResidual]:
    """``verify_weak_modularity`` for each g of ``gs``, in order, with every g
    checked first and every g tau and tau asked of one ``_theta_values``
    call, so theta_f(tau) is evaluated once: the same doubles as one call
    per g."""
    for g in gs:
        if not is_in_gamma(g, f.p):
            raise ValidationError(f"matrix is not in the level-{f.p} group")
    if not f.is_even:
        raise ValidationError("verify_weak_modularity requires an even test function")
    tau = _upper_half_plane(tau, eps)
    factors, points = [], []
    for g in gs:
        (a, b), (c, d) = g
        a, b, c, d = int(a), int(b), int(c), int(d)
        cz = c * tau + d
        points.append(_image_point("g tau", (a * tau + b) / cz))
        # even D keeps the integer power: half_power would move some factors by an ulp
        factors.append((c, cz ** (f.d // 2) if f.d % 2 == 0 else jacobi_symbol(c, d) * half_power(cz, f.d)))
    *lhs, base = [v.value for v in _theta_values(f, [(z, False, 1, 0) for z in points + [tau]], eps)]
    return [_residual(f"weak-modularity c={c}", value, factor * base) for value, (c, factor) in zip(lhs, factors)]
