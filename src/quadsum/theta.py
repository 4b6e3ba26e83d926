"""Test functions on (Z/pZ)^d, the finite Fourier transform and the phase /
rescaling operators acting on them, weighted theta series with certified
truncation, and numerical verification of the transformation identities.

Every operator on (Z/pZ)^d (L, S_j, the Fourier transform, the theta
contraction and the S(r, w) sums) acts on the (p,)*d value tensor one
coordinate axis at a time, since Q(x,x) = x_1^2 + ... + x_d^2 is diagonal;
L reads its phase at Q(x,x) mod p, the outer sum of the 1-d squares.

Conventions fixed throughout:

* ``finite_fourier`` is the plain counting-measure transform
  F(f)(xi) = sum_x f(x) e^{-2 pi i Q(x, xi)/p}, so F(F(f)) = p^d f(-x).
* Half-integral powers are always (principal sqrt)^d with
  arg(sqrt(z)) in (-pi/2, pi/2]; never exp((d/2) log z).
* The theta component at the cusp infinity is theta of the transform of f
  under the Plancherel-normalized pairing; with the plain transform above the
  p^d scale factors cancel, i.e. it equals theta_{F(f)} on the nose.  This is
  the unique normalization under which the whole generator-action table holds
  with unit cocycle values at 0 and infinity (the tests pin it numerically).
* Theta values factor over the coordinates, theta_f(tau) = sum_e f(e)
  prod_i vartheta_{e_i}(tau) with vartheta_k(tau) = sum_{t = k mod p}
  e^{2 pi i t^2 tau}; each 1-d sum is cut at |t| <= T and its Gaussian tail
  bound is carried through the product into the certified ``tail`` of the
  returned ``ThetaValue``.  ``theta_coeffs`` keeps the residue census, which
  the tests use as the independent oracle for these values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .arith import j_prime_k, require_prime, valuation
from .density import gauss_sum
from .errors import QuadsumError, ResourceLimitError, ValidationError
from .lattice import encode_residues, qmod_vector, quadric_modulus, residue_census
from .limits import (
    BRUTE_GRID_CAP,
    DEFAULT_EPS,
    ENTRY_CAP,
    PROFILE_CELL_CAP,
    THETA_CUT_CAP,
    TOWER_WIDTH_CAP,
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


def _require_space(p: int, d: int) -> None:
    """Validate (Z/pZ)^d as a test-function space and its p**d entries
    against ENTRY_CAP, before anything of that size is allocated."""
    require_prime(p, "TestFunction")
    if d < 1:
        raise ValidationError(f"TestFunction requires d >= 1, got {d}")
    if p**d > ENTRY_CAP:
        raise ResourceLimitError(f"p**d = {p**d} exceeds entry cap {ENTRY_CAP}")


class TestFunction:
    """A complex-valued function on (Z/pZ)^d, stored densely.

    Values are indexed by the base-p encoding of the argument (coordinate 0
    least significant) and are immutable after construction.
    """

    __test__ = False  # keep pytest from collecting this as a test class
    __slots__ = ("p", "d", "values", "_even")

    def __init__(self, p: int, d: int, values):
        _require_space(p, d)
        arr = np.array(values, dtype=np.complex128)
        if arr.shape != (p**d,):
            raise ValidationError(
                f"expected {p**d} values for p={p}, d={d}, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_even", None)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("TestFunction is immutable")

    @property
    def is_even(self) -> bool:
        if self._even is None:
            v = self.values
            flipped = _scaled(v, self.p, self.d, -1)
            scale = max(1.0, float(np.abs(v).max(initial=0.0)))
            object.__setattr__(self, "_even", bool(np.abs(v - flipped).max(initial=0.0) <= 1e-12 * scale))
        return self._even

    @property
    def max_abs(self) -> float:
        return float(np.abs(self.values).max(initial=0.0))

    def value_at(self, coords) -> complex:
        coords = tuple(coords)
        if len(coords) != self.d:
            raise ValidationError(f"expected {self.d} coordinates, got {len(coords)}")
        return complex(self.values[encode_residues(coords, self.p)])

    def __repr__(self):
        return f"TestFunction(p={self.p}, d={self.d}, even={self.is_even})"


def constant_function(p: int, d: int, value: complex = 1.0) -> TestFunction:
    _require_space(p, d)
    return TestFunction(p, d, np.full(p**d, value, dtype=np.complex128))


def origin_indicator(p: int, d: int) -> TestFunction:
    _require_space(p, d)
    v = np.zeros(p**d, dtype=np.complex128)
    v[0] = 1.0
    return TestFunction(p, d, v)


def even_projection(f: TestFunction) -> TestFunction:
    """(f(x) + f(-x)) / 2."""
    v = (f.values + _scaled(f.values, f.p, f.d, -1)) / 2.0
    return TestFunction(f.p, f.d, v)


def _dft_matrix(p: int) -> np.ndarray:
    """W[k, m] = e^{-2 pi i k m / p}, the 1-d factor of ``finite_fourier``."""
    return np.exp(-2j * np.pi * np.outer(np.arange(p), np.arange(p)) / p)


def finite_fourier(f: TestFunction) -> TestFunction:
    """F(f)(xi) = sum_x f(x) e^{-2 pi i Q(x, xi)/p}, one 1-d transform per axis.

    Applying it twice gives p^d f(-x) (counting-measure normalization).
    """
    p, d = f.p, f.d
    w = _dft_matrix(p)
    t = f.values.reshape((p,) * d)
    for ax in range(d):
        t = np.moveaxis(np.tensordot(w, t, axes=([1], [ax])), 0, ax)
    return TestFunction(p, d, np.ascontiguousarray(t).reshape(-1))


def _commuting(f: TestFunction, values: np.ndarray) -> TestFunction:
    """A new function on f's space for an operator that commutes with
    x -> -x, so it is even exactly when f is and keeps f's evenness flag."""
    g = TestFunction(f.p, f.d, values)
    object.__setattr__(g, "_even", f._even)
    return g


def op_L(f: TestFunction, k: int = 1) -> TestFunction:
    """Multiplication by the quadratic phase: (L^k f)(x) = e^{-2 pi i k Q(x,x)/p} f(x)."""
    q = qmod_vector(f.p, f.d)
    phase = np.exp(-2j * np.pi * ((k * q) % f.p) / f.p)
    return _commuting(f, f.values * phase)


def op_Sj(f: TestFunction, j: int) -> TestFunction:
    """Rescaling of the argument: (S_j f)(x) = f(j x), for 1 <= j <= p-1."""
    if not 1 <= j <= f.p - 1:
        raise ValidationError(f"op_Sj needs 1 <= j <= p-1, got j={j}, p={f.p}")
    return _commuting(f, _scaled(f.values, f.p, f.d, j))


def op_M(f: TestFunction) -> TestFunction:
    """The p = 2 phase operator: (M f)(x) = e^{-2 pi i Q(x,x)/4} f(x), with
    Q(x,x) the integer sum of bits (well defined mod 4)."""
    if f.p != 2:
        raise ValidationError(f"op_M is defined only for p = 2, got p={f.p}")
    q = qmod_vector(2, f.d)  # already reduced mod 4
    phase = np.exp(-2j * np.pi * q / 4)
    return _commuting(f, f.values * phase)


def random_even_function(p: int, d: int, seed: int) -> TestFunction:
    """Seeded uniform complex values in the unit square, even-projected."""
    _require_space(p, d)
    rng = np.random.default_rng(seed)
    v = rng.random(p**d) + 1j * rng.random(p**d)
    return even_projection(TestFunction(p, d, v))


def random_cusp_function(p: int, d: int, seed: int) -> TestFunction:
    """Seeded even function satisfying the cusp vanishing conditions exactly:
    zero at the pinned points, zero sum over every level set of Q."""
    f = random_even_function(p, d, seed)
    v = f.values.copy()
    levels, points = _cusp_conditions(p, d)
    pinned = np.array([e for _, e in points])
    v[pinned] = 0.0
    for idx in levels:
        free = np.setdiff1d(idx, pinned, assume_unique=True)
        if free.size:
            v[free] -= v[idx].sum() / free.size
    return TestFunction(p, d, v)


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
    census = residue_census(f.d, nmax, f.p)
    return CoefficientSeries(p=f.p, d=f.d, nmax=nmax, c=census @ f.values)


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


def _partial_thetas(p: int, tau: complex, cut: int) -> np.ndarray:
    """v_k = sum_{|t| <= cut, t = k mod p} e^{2 pi i t^2 tau} for k = 0..p-1.

    Terms are accumulated outward from t = 0, so a larger cut only appends
    terms after the ones a smaller cut already summed.
    """
    s = np.arange(1, cut + 1, dtype=np.int64)
    t = np.concatenate(([0], np.stack([s, -s], axis=1).ravel()))
    terms = np.exp(2j * np.pi * tau * (t * t))
    res = t % p
    return np.bincount(res, terms.real, minlength=p) + 1j * np.bincount(res, terms.imag, minlength=p)


def _product_tail(m: float, d: int, beta: float, a_sum: float) -> float:
    """m d beta (a_sum + beta)^{d-1}: the error of sum_e f(e) prod_i a_{e_i},
    max|f| = m, when every coordinate vector a, with sum_k |a_k| <= a_sum,
    misses its full sum by b with sum_k |b_k| <= beta (telescope the product)."""
    return m * d * beta * (a_sum + beta) ** (d - 1)


def _eval_at_cut(f: TestFunction, tau_eff: complex, cut: int, dual: bool) -> ThetaValue:
    """theta_f(tau_eff) (theta_{F(f)} when ``dual``) from the partial sums with |t| <= cut.

    theta_f = sum_e f(e) prod_i vartheta_{e_i}, so the truncated value is the
    contraction of the (p,)*d value tensor with v along every axis; for the
    transform, <W^{(x)d} f, v^{(x)d}> = <f, (W v)^{(x)d}> contracts f with W v
    instead, and W multiplies the l1 norm of the 1-d tail by at most p.  The
    tail is ``_product_tail`` at the summed modulus of the computed vector.
    """
    p, d = f.p, f.d
    a = _partial_thetas(p, tau_eff, cut)
    beta = _gauss_tail(tau_eff.imag, cut)
    if dual:
        a = _dft_matrix(p) @ a
        beta *= p
    t = f.values.reshape((p,) * d)
    for _ in range(d):
        t = t @ a
    tail = _product_tail(f.max_abs, d, beta, float(np.abs(a).sum()))
    return ThetaValue(value=complex(t), tail=tail, radius=cut)


def _series_eval(f: TestFunction, tau_eff: complex, eps: float, dual: bool = False) -> ThetaValue:
    """Evaluate theta_f(tau_eff) (theta_{F(f)} when ``dual``) with tail <= eps.

    The cut T is the smallest one whose a priori bound prior(T), the product
    tail with sum_{|t| <= T} |e^{2 pi i t^2 tau}| <= 1 + 1/sqrt(2 Im tau)
    (times p for the transform) in place of the computed summed modulus, is
    at most eps.  The reported tail never exceeds prior(T), so one evaluation
    at T suffices.
    """
    if eps <= 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    y = tau_eff.imag
    if y <= 0:
        raise ValidationError(f"Im(tau) must be positive, got {tau_eff}")
    m = f.max_abs
    if m == 0.0:
        return ThetaValue(0j, 0.0, 0)
    d = f.d
    spread = f.p if dual else 1
    a_bound = spread * (1.0 + 1.0 / math.sqrt(2.0 * y))

    def prior(cut: int) -> float:
        return _product_tail(m, d, spread * _gauss_tail(y, cut), a_bound)

    # the 1-d test keeps the power in prior() finite at every cut it is asked for
    if not (_gauss_tail(y, THETA_CUT_CAP) < 1.0 and prior(THETA_CUT_CAP) <= eps):
        raise ResourceLimitError(f"theta truncation needs a cut above {THETA_CUT_CAP} at Im(tau) = {y}")
    lo, cut = -1, THETA_CUT_CAP  # prior(cut) <= eps < prior(lo); prior decreases in the cut
    while cut - lo > 1:
        mid = (lo + cut) // 2
        if prior(mid) <= eps:
            cut = mid
        else:
            lo = mid
    res = _eval_at_cut(f, tau_eff, cut, dual)
    if not res.tail <= eps * (abs(res.value) + 1.0):
        raise QuadsumError(f"theta tail {res.tail} above eps (|value| + 1) at cut {cut}")
    return res


def theta_eval_full(f: TestFunction, tau: complex, eps: float = DEFAULT_EPS) -> ThetaValue:
    """theta_f(tau) = sum_{x in Z^d} f(x mod p) e^{2 pi i Q(x,x) tau}, truncated."""
    return _series_eval(f, complex(tau), eps)


def theta_eval(f: TestFunction, tau: complex, eps: float = DEFAULT_EPS) -> complex:
    return theta_eval_full(f, tau, eps).value


def theta_j_eval_full(f: TestFunction, j: CuspIndex, tau: complex, eps: float = DEFAULT_EPS) -> ThetaValue:
    """The component theta_f^j for j in {0..p-1, inf} (odd p, even f).

    Finite j uses the exponent (tau - j)/p^2; j = inf is theta of the
    finite Fourier transform of f (the p^d scale of the component and the
    1/p^d of the Plancherel-normalized transform cancel), evaluated without
    forming the transform.
    """
    if f.p == 2:
        raise ValidationError("theta components are defined for odd p only")
    if not f.is_even:
        raise ValidationError("theta components require an even test function")
    tau = complex(tau)
    if j == INF:
        return _series_eval(f, tau, eps, dual=True)
    if not isinstance(j, (int, np.integer)) or not 0 <= int(j) <= f.p - 1:
        raise ValidationError(f"cusp index must be in {{0..p-1}} or '{INF}', got {j!r}")
    return _series_eval(f, (tau - int(j)) / f.p**2, eps)


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


def verify_poisson(f: TestFunction, tau: complex, eps: float = DEFAULT_EPS) -> TransformResidual:
    """Residual of the summation identity
    theta_f^inf(tau) = (i/2tau)^{d/2} theta_f^0(-1/(4 tau))."""
    tau = complex(tau)
    lhs = theta_j_eval(f, INF, tau, eps)
    rhs = half_power(1j / (2 * tau), f.d) * theta_j_eval(f, 0, -1 / (4 * tau), eps)
    return _residual("poisson", lhs, rhs)


def verify_generator_actions(
    f: TestFunction, tau: complex, eps: float = DEFAULT_EPS
) -> list[TransformResidual]:
    """Residuals for the action of the two group generators on the component
    family: the translation generator permutes the finite components (picking
    up an L phase at the wrap) and fixes infinity; the inversion generator
    swaps 0 with infinity and pairs j with its involution partner j' through
    the composed L/S operator, with the (i/2tau)^{d/2} factor."""
    tau = complex(tau)
    p, d = f.p, f.d
    rows: list[TransformResidual] = []
    for j in range(p - 1):
        rows.append(
            _residual(
                f"alpha j={j}", theta_j_eval(f, j, tau - 1, eps), theta_j_eval(f, j + 1, tau, eps)
            )
        )
    rows.append(
        _residual(
            "alpha j=p-1",
            theta_j_eval(f, p - 1, tau - 1, eps),
            theta_j_eval(op_L(f), 0, tau, eps),
        )
    )
    rows.append(
        _residual(
            "alpha j=inf", theta_j_eval(f, INF, tau - 1, eps), theta_j_eval(f, INF, tau, eps)
        )
    )
    w = half_power(1j / (2 * tau), d)
    tau_inv = -1 / (4 * tau)
    for j in range(1, p):
        jp, kj = j_prime_k(j, p)
        g = op_L(op_Sj(f, (2 * jp) % p), k=(kj * jp) % p)
        rows.append(
            _residual(
                f"gamma j={j}",
                theta_j_eval(f, j, tau, eps),
                w * theta_j_eval(g, jp, tau_inv, eps),
            )
        )
    rows.append(replace(verify_poisson(f, tau, eps), label="gamma j=0"))
    rows.append(
        _residual(
            "gamma j=inf",
            theta_j_eval(f, INF, tau_inv, eps),
            half_power(2 * tau / 1j, d) * theta_j_eval(f, 0, tau, eps),
        )
    )
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


def _tower_sums(p: int, r: int, w: int) -> np.ndarray:
    """Per-coordinate inner sums over the residue tower:
    t1[k] = sum_{u mod p^{max(r,1)-1}} e^{2 pi i (k + p u)^2 w / p^r}."""
    rt = max(r, 1)
    denom = p**r  # == 1 when r = 0: every phase is then trivial
    u = np.arange(p ** (rt - 1), dtype=np.int64)
    t1 = np.empty(p, dtype=np.complex128)
    for k in range(p):
        sq = ((k + p * u) ** 2) % denom
        t1[k] = np.exp(2j * np.pi * ((sq * (w % denom)) % denom) / denom).sum()
    return t1


def _tower_multiplicity(p: int, d: int, r: int) -> float:
    """p^{(max(r,1)-1) d}: the lifts to (Z/p^max(r,1) Z)^d behind each residue vector."""
    return float(p ** ((max(r, 1) - 1) * d))


def srw_sum(f: TestFunction, r: int, w: int) -> complex:
    """S(r, w) = sum over y in (Z/p^max(r,1) Z)^d of f(y mod p) e^{2 pi i Q(y,y) w / p^r}.

    Evaluated by the exact per-coordinate factorization of the defining sum
    (Q splits as a sum of squares), so the cost is p^d + p^max(r,1) instead of
    p^{d max(r,1)}.
    """
    if r < 0:
        raise ValidationError(f"srw_sum requires r >= 0, got {r}")
    p, d = f.p, f.d
    if p ** max(r, 1) > TOWER_WIDTH_CAP:
        raise ResourceLimitError(f"p**{max(r,1)} exceeds width cap {TOWER_WIDTH_CAP}")
    t1 = _tower_sums(p, r, w)
    t = f.values.reshape((p,) * d)
    for _ in range(d):
        t = t @ t1
    return complex(t)


def srw_profile(f: TestFunction, r: int) -> np.ndarray:
    """S(r, w) for every w in [0, p^r) at once (w enters only through w mod p^r)."""
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


@dataclass(frozen=True)
class SumCheck:
    value: complex
    predicted: complex
    passed: bool


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
        predicted = complex(m**d)
    else:
        s, w1 = valuation(wm, 2)
        r2 = r - s  # wm < 2^{r-2} forces s <= r-3, hence r2 >= 3
        scale = 2 ** (s * d)
        if r2 == 3:
            predicted = complex(scale * 2**d) if all(b == 1 for b in k) else 0j
        elif any(k):
            predicted = 0j
        else:
            predicted = scale * gauss_sum(2 ** (r2 - 2), w1) ** d
    return SumCheck(value=value, predicted=predicted, passed=abs(value - predicted) <= CHECK_TOL * max(1.0, abs(predicted)))


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
    wm = w % denom
    u = np.arange(p ** (r - 1), dtype=np.int64)
    value = _brute_phase_sum([(((c % denom) + p * u) ** 2) % denom for c in k], denom, wm)

    if wm == 0:
        predicted = complex(p ** ((r - 1) * d))
    else:
        s, w1 = valuation(wm, p)
        r2 = r - s  # wm < p^r nonzero forces s <= r-1, hence r2 >= 1
        scale = p ** (s * d)
        if r2 == 1:
            qk = sum(c * c for c in k) % p
            predicted = scale * cmath.exp(2j * math.pi * ((qk * w1) % p) / p)
        elif all(c % p == 0 for c in k):
            predicted = scale * p**d * gauss_sum(p ** (r2 - 2), w1) ** d
        else:
            predicted = 0j
    return SumCheck(value=value, predicted=predicted, passed=abs(value - predicted) <= CHECK_TOL * max(1.0, abs(predicted)))


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
    group.  Even d: theta_f(g tau) = (c tau + d)^{d/2} theta_f(tau) verified as
    complex numbers.  Odd d: only the modulus identity
    |theta_f(g tau)| = |c tau + d|^{d/2} |theta_f(tau)| is checked (the sign
    of the half-integral factor is not constructed here)."""
    if not is_in_gamma(g, f.p):
        raise ValidationError(f"matrix is not in the level-{f.p} group")
    if not f.is_even:
        raise ValidationError("verify_weak_modularity requires an even test function")
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValidationError(f"Im(tau) must be positive, got {tau}")
    (a, b), (c, d) = g
    a, b, c, d = int(a), int(b), int(c), int(d)
    cz = c * tau + d
    g_tau = (a * tau + b) / cz
    lhs = theta_eval(f, g_tau, eps)
    base = theta_eval(f, tau, eps)
    if f.d % 2 == 0:
        rhs = cz ** (f.d // 2) * base
        return _residual(f"weak-modularity c={c}", lhs, rhs)
    lhs_m = abs(lhs)
    rhs_m = abs(cz) ** (f.d / 2) * abs(base)
    return _residual(f"weak-modularity-modulus c={c}", complex(lhs_m), complex(rhs_m))
