"""Command-line surface: every library operation behind a subcommand, with
bit-stable CSV/JSON output.

Exit codes: 0 success, 1 validation/usage error, 2 resource cap exceeded,
3 a mathematical verification failed: a cell of a verdict column (the match
or pass column of repnum, gauss, acoeff, diffcheck and theta-verify) is
false.  The distinction lets CI gate on genuine math regressions.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from dataclasses import replace
from math import gcd
from typing import Callable, Optional

from . import density, equidist, lattice, theta
from .arith import factorize, require_prime
from .errors import EmptyMeasureError, QuadsumError, ResourceLimitError, ValidationError
from .limits import DEFAULT_EPS, DEFAULT_PRIME_CUTOFF

TABLE1_TOL = 1e-8
WEAK_MOD_TOL = 1e-6
ACOEFF_TOL = 1e-8
#: relative tolerance of a direct Gauss sum against its closed form
GAUSS_TOL = 1e-9


# ---------------------------------------------------------------------------
# numeric formatting: 17 significant digits, exponent without '+' or padding,
# complex as one re+imi token.  Round-trips doubles exactly.
# ---------------------------------------------------------------------------


def fmt_real(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    mantissa, exp = f"{x:.16e}".split("e")
    return f"{mantissa}e{int(exp)}"


def fmt_complex(z: complex) -> str:
    z = complex(z)
    sign = "-" if z.imag < 0 else "+"
    return f"{fmt_real(z.real)}{sign}{fmt_real(abs(z.imag))}i"


def _csv_escape(field: str) -> str:
    if any(ch in field for ch in (',', '"', '\n', '\r')):
        return '"' + field.replace('"', '""') + '"'
    return field


# schema kind -> (CSV field, JSON value) of a value that is not None; the
# lambdas look fmt_real and fmt_complex up when called, so a rebinding of
# either (a tracing or corrupting wrapper) reaches every field.  A "verdict"
# is a bool whose false cell makes the command exit 3.
_KIND_FORMATS: dict[str, tuple[Callable, Callable]] = {
    "int": (lambda v: str(int(v)), int),
    "real": (lambda v: fmt_real(v), float),
    "complex": (lambda v: '"' + fmt_complex(v) + '"', lambda v: fmt_complex(v)),
    "bool": (lambda v: "true" if v else "false", bool),
    "str": (lambda v: _csv_escape(str(v)), str),
}
_KIND_FORMATS["verdict"] = _KIND_FORMATS["bool"]


def _render_csv(schema: list[tuple[str, str]], rows: list[dict]) -> str:
    lines = [",".join(name for name, _ in schema)]
    for row in rows:
        lines.append(",".join("" if row.get(name) is None else _KIND_FORMATS[kind][0](row[name])
                              for name, kind in schema))
    return "\n".join(lines) + "\n"


def _render_json(schema: list[tuple[str, str]], rows: list[dict]) -> str:
    out = []
    for row in rows:
        obj = {name: None if row.get(name) is None else _KIND_FORMATS[kind][1](row[name])
               for name, kind in schema}
        out.append(json.dumps(obj, sort_keys=False))
    return "\n".join(out) + ("\n" if out else "")


def emit(schema: list[tuple[str, str]], rows: list[dict], fmt: str, path: str) -> None:
    """Write rows in the registered schema; identical inputs give identical bytes."""
    text = _render_csv(schema, rows) if fmt == "csv" else _render_json(schema, rows)
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


_TAU_FORM = r"([+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*([+-]\s*\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)i"
_TAU_RE = re.compile(rf"^\s*{_TAU_FORM}\s*$")


def parse_tau(text: str) -> complex:
    """Parse 're+imi' (e.g. '0+1i', '0.33-0.5i' is rejected: Im must be > 0)."""
    m = _TAU_RE.match(text)
    if not m:
        raise ValidationError(f"tau must look like 're+imi', got {text!r}")
    tau = complex(float(m.group(1)), float(m.group(2).replace(" ", "")))
    if tau.imag <= 0:
        raise ValidationError(f"tau must lie in the upper half plane, got {tau}")
    return tau


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a word that starts with '-' for a flag unless it
        # looks like a negative number; a tau with a negative real part,
        # such as --tau -3.7+0.1i, is a value too (no flag starts with a digit)
        self._negative_number_matcher = re.compile(rf"^-\d+$|^-\d*\.\d+$|^(?=-){_TAU_FORM}\s*$")

    # argparse exits 2 on bad usage; the contract here is exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


# --kind name -> builder of the test function on (Z/pZ)^d from (p, d, seed);
# each looks its theta function up when called, so a rebinding reaches it
_KINDS: dict[str, Callable[[int, int, int], theta.TestFunction]] = {
    "ones": lambda p, d, seed: theta.constant_function(p, d),
    "origin": lambda p, d, seed: theta.origin_indicator(p, d),
    "random-even": lambda p, d, seed: theta.random_even_function(p, d, seed),
    "random-cusp": lambda p, d, seed: theta.random_cusp_function(p, d, seed),
}


def _require_at_least(flag: str, value: int, least: int) -> None:
    """Refuse a flag value below ``least``: a scan left empty, or no modulus."""
    if value < least:
        raise ValidationError(f"{flag} must be >= {least}, got {value}")


# ---------------------------------------------------------------------------
# subcommands: each is declared once, by ``_command`` on its handler, with its
# flags in help order.  A handler returns (schema, rows); a false cell of a
# "verdict" column is a failed verification, and ``main`` then exits 3.
# ---------------------------------------------------------------------------

_COMMANDS: dict[str, tuple[str, tuple, Callable]] = {}


def _command(name: str, summary: str, *flags: tuple[str, dict]):
    """Register the decorated handler as subcommand ``name``."""

    def register(handler):
        _COMMANDS[name] = (summary, flags, handler)
        return handler

    return register


def _required(flag: str, type=int) -> tuple[str, dict]:
    return flag, {"type": type, "required": True}


def _optional(flag: str, default=None, type=int, **kw) -> tuple[str, dict]:
    return flag, {"type": type, "default": default, **kw}


def _kind(default: str) -> tuple[str, dict]:
    return "--kind", {"default": default, "choices": _KINDS}


@_command("repnum", "representation counts: enumeration vs convolution vs exact formula",
          _required("--d"), _required("--nmax"))
def _cmd_repnum(args) -> tuple[list, list]:
    d, nmax = args.d, args.nmax
    enum = lattice.enumerated_counts(d, nmax)
    conv = lattice.count_range(d, nmax)
    schema = [("n", "int"), ("r_enum", "int"), ("r_conv", "int"), ("r_jacobi", "int"), ("match", "verdict")]
    rows = []
    for n in range(nmax + 1):
        jac = lattice.r4_jacobi(n) if (d == 4 and n >= 1) else None
        ok = int(enum[n]) == int(conv[n]) and (jac is None or jac == int(enum[n]))
        rows.append({"n": n, "r_enum": int(enum[n]), "r_conv": int(conv[n]), "r_jacobi": jac, "match": ok})
    return schema, rows


@_command("quadric", "finite quadric point sets and cardinalities",
          _required("--p"), _required("--d"), _optional("--a"))
def _cmd_quadric(args) -> tuple[list, list]:
    p, d = args.p, args.d
    mod = lattice.quadric_modulus(p)
    levels = range(mod) if args.a is None else [args.a]
    schema = [("p", "int"), ("d", "int"), ("a", "int"), ("count", "int"), ("points", "str")]
    rows = []
    for a in levels:
        pts = lattice.quadric_points(p, d, a)
        rows.append({
            "p": p, "d": d, "a": a, "count": len(pts),
            "points": " ".join("(" + ",".join(map(str, t)) + ")" for t in pts),
        })
    return schema, rows


@_command("gauss", "quadratic Gauss sums, direct vs closed form",
          _required("--q"), _optional("--a"),
          _optional("--amax", 32, help="scan a = 1..amax (default min(q, 32))"))
def _cmd_gauss(args) -> tuple[list, list]:
    q = args.q
    _require_at_least("--q", q, 1)
    if args.a is not None:
        avals = [args.a]
    else:
        _require_at_least("--amax", args.amax, 1)
        avals = list(range(1, min(q, args.amax) + 1))
    fac = factorize(q) if q > 1 else {}
    prime_power = len(fac) == 1
    p0, h0 = (next(iter(fac.items())) if prime_power else (None, None))
    schema = [("q", "int"), ("a", "int"), ("direct", "complex"), ("closed", "complex"),
              ("abs_diff", "real"), ("match", "verdict")]
    rows = []
    for a in avals:
        direct = density.gauss_sum(q, a)
        closed = diff = None
        ok = True
        if prime_power and p0 != 2 and gcd(a, q) == 1:
            closed = density.gauss_sum_prime_power(p0, h0, a)
            diff = abs(direct - closed)
            ok = diff <= GAUSS_TOL * max(1.0, abs(closed))
        rows.append({"q": q, "a": a, "direct": direct, "closed": closed, "abs_diff": diff, "match": ok})
    return schema, rows


@_command("acoeff", "series coefficients A_d(p^h, n): closed form vs direct sum",
          _required("--d"), _required("--p"), _optional("--hmax", 4), _optional("--nmax", 20))
def _cmd_acoeff(args) -> tuple[list, list]:
    d, p = args.d, args.p
    require_prime(p, args.command, odd=True)
    _require_at_least("--hmax", args.hmax, 1)
    _require_at_least("--nmax", args.nmax, 1)
    schema = [("d", "int"), ("p", "int"), ("h", "int"), ("n", "int"),
              ("a_closed", "complex"), ("a_direct", "complex"), ("abs_diff", "real"), ("match", "verdict")]
    rows = []
    for h in range(1, args.hmax + 1):
        for n in range(1, args.nmax + 1):
            closed = density.a_coeff_closed(d, p, h, n)
            direct = density.a_coeff_direct(d, p**h, n)
            diff = abs(closed - direct)
            rows.append({"d": d, "p": p, "h": h, "n": n, "a_closed": closed,
                         "a_direct": direct, "abs_diff": diff, "match": diff <= ACOEFF_TOL})
    return schema, rows


@_command("density", "p-adic local density with its term expansion",
          _required("--p"), _required("--d"), _required("--n"))
def _cmd_density(args) -> tuple[list, list]:
    rep = density.local_density(args.p, args.d, args.n)
    schema = [("p", "int"), ("d", "int"), ("n", "int"), ("h", "int"),
              ("term", "complex"), ("delta", "real"), ("method", "str")]
    rows = [
        {"p": rep.p, "d": rep.d, "n": rep.n, "h": h, "term": t, "delta": rep.delta, "method": rep.method}
        for h, t in enumerate(rep.terms)
    ]
    return schema, rows


@_command("singular", "truncated singular series",
          _required("--d"), _required("--n"), _optional("--prime-cutoff", DEFAULT_PRIME_CUTOFF))
def _cmd_singular(args) -> tuple[list, list]:
    val = density.singular_series(args.d, args.n, args.prime_cutoff)
    schema = [("d", "int"), ("n", "int"), ("prime_cutoff", "int"), ("value", "real")]
    return schema, [{"d": val.d, "n": val.n, "prime_cutoff": val.prime_cutoff, "value": val.value}]


@_command("mainterm", "archimedean factor times singular series",
          _required("--d"), _required("--n"), _optional("--prime-cutoff", DEFAULT_PRIME_CUTOFF))
def _cmd_mainterm(args) -> tuple[list, list]:
    series = density.singular_series(args.d, args.n, args.prime_cutoff)
    mt = density.archimedean_factor(args.d, args.n) * series.value
    schema = [("d", "int"), ("n", "int"), ("prime_cutoff", "int"),
              ("singular", "real"), ("main_term", "real")]
    return schema, [{"d": args.d, "n": args.n, "prime_cutoff": args.prime_cutoff,
                     "singular": series.value, "main_term": mt}]


@_command("diffcheck", "growth of r_d(p^2 n) - r_d(n)",
          _required("--d"), _required("--p"), _required("--n"),
          _optional("--coeff", type=float, help="bound coefficient for d >= 5"))
def _cmd_diffcheck(args) -> tuple[list, list]:
    chk = density.difference_check(args.d, args.p, args.n, coeff=args.coeff)
    schema = [("d", "int"), ("p", "int"), ("n", "int"), ("lhs", "int"), ("bound", "real"), ("pass", "verdict")]
    return schema, [{"d": chk.d, "p": chk.p, "n": chk.n, "lhs": chk.lhs,
                     "bound": chk.bound, "pass": chk.passed}]


@_command("theta-coeffs", "weighted theta coefficients",
          _required("--p"), _required("--d"), _required("--nmax"), _kind("random-even"),
          _optional("--seed", 0))
def _cmd_theta_coeffs(args) -> tuple[list, list]:
    f = _KINDS[args.kind](args.p, args.d, args.seed)
    series = theta.theta_coeffs(f, args.nmax)
    schema = [("n", "int"), ("c", "complex")]
    rows = [{"n": n, "c": complex(series.c[n])} for n in range(args.nmax + 1)]
    return schema, rows


@_command("theta-verify",
          "transformation identities: summation formula, generator table, weak modularity",
          _required("--p"), _required("--d"), _required("--tau", parse_tau),
          _optional("--eps", DEFAULT_EPS, float), _optional("--seed", 0))
def _cmd_theta_verify(args) -> tuple[list, list]:
    p, d = args.p, args.d
    require_prime(p, args.command, odd=True)
    # a truncation looser than the tolerance the rows are judged at cannot
    # support a verdict
    if args.eps > TABLE1_TOL:
        raise ValidationError(f"--eps must be <= {TABLE1_TOL}, the tolerance of the table rows, got {args.eps}")
    f = theta.random_even_function(p, d, args.seed)
    table = theta.verify_generator_actions(f, args.tau, args.eps)
    # the gamma j=0 row is the Poisson residual relabelled
    poisson = next(res for res in table if res.label == "gamma j=0")
    checks = [("poisson", replace(poisson, label="poisson"), TABLE1_TOL)]
    checks += [("generator", res, TABLE1_TOL) for res in table]
    weak = theta._weak_modularity_residuals(f, [((1, 1), (0, 1)), ((1, 0), (4 * p * p, 1))],
                                            args.tau, args.eps)
    checks += [("weak-modularity", res, WEAK_MOD_TOL) for res in weak]
    schema = [("check", "str"), ("label", "str"), ("lhs", "complex"), ("rhs", "complex"),
              ("residual", "real"), ("tol", "real"), ("pass", "verdict")]
    rows = [{"check": kind, "label": res.label, "lhs": res.lhs, "rhs": res.rhs,
             "residual": res.residual, "tol": tol, "pass": res.residual < tol}
            for kind, res, tol in checks]
    return schema, rows


@_command("cusp-check", "cusp vanishing conditions for a test function",
          _required("--p"), _required("--d"), _kind("random-cusp"), _optional("--seed", 0))
def _cmd_cusp_check(args) -> tuple[list, list]:
    f = _KINDS[args.kind](args.p, args.d, args.seed)
    chk = theta.cusp_check(f)
    schema = [("p", "int"), ("d", "int"), ("kind", "str"), ("seed", "int"),
              ("is_cusp", "bool"), ("failing_condition", "str")]
    return schema, [{"p": args.p, "d": args.d, "kind": args.kind, "seed": args.seed,
                     "is_cusp": chk.is_cusp, "failing_condition": chk.failing_condition}]


@_command("srw", "|S(r, w)| over the full (r, w) grid",
          _required("--p"), _required("--d"), _optional("--rmax", 3), _kind("random-cusp"),
          _optional("--seed", 0))
def _cmd_srw(args) -> tuple[list, list]:
    _require_at_least("--rmax", args.rmax, 0)
    f = _KINDS[args.kind](args.p, args.d, args.seed)
    schema = [("r", "int"), ("w", "int"), ("abs_value", "real"), ("normalized", "real")]
    rows = []
    for r in range(args.rmax + 1):
        profile = theta.srw_profile(f, r)
        scale = theta._tower_multiplicity(f.p, f.d, r)
        for w in range(len(profile)):
            rows.append({"r": r, "w": w, "abs_value": abs(profile[w]),
                         "normalized": abs(profile[w]) / scale})
    return schema, rows


@_command("equidist", "windowed TV-decay study of sphere points mod p",
          _required("--d"), _required("--p"), _required("--a"), _optional("--kmin", 6),
          _optional("--kmax", 10), _optional("--parity", "all", str, choices=("odd", "even", "all")))
def _cmd_equidist(args) -> tuple[list, list]:
    windows = equidist.dyadic_windows(args.kmin, args.kmax)
    parity = None if args.parity == "all" else args.parity
    summaries = equidist.decay_study(args.d, args.p, args.a, windows, parity=parity)
    schema = [("lo", "int"), ("hi", "int"), ("samples", "int"), ("under_sampled", "bool"),
              ("median_tv", "real"), ("max_tv", "real")]
    rows = [
        {"lo": s.lo, "hi": s.hi, "samples": s.samples, "under_sampled": s.under_sampled,
         "median_tv": s.median_tv, "max_tv": s.max_tv}
        for s in summaries
    ]
    return schema, rows


@_command("growth", "cusp coefficient growth table",
          _required("--d"), _required("--p"), _required("--nmax"), _optional("--seed", 0))
def _cmd_growth(args) -> tuple[list, list]:
    f = theta.random_cusp_function(args.p, args.d, args.seed)
    rows_raw = equidist.coeff_growth_scan(f, args.d, args.nmax)
    schema = [("n", "int"), ("abs_c", "real"), ("abs_c_over_n_d4", "real"), ("abs_c_over_n_34", "real")]
    rows = [
        {"n": r.n, "abs_c": r.abs_c, "abs_c_over_n_d4": r.hecke_ratio, "abs_c_over_n_34": r.kloosterman_ratio}
        for r in rows_raw
    ]
    return schema, rows


# built on the first main call and then reused: parse_args keeps no state
# between calls
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="quadsum", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name, (summary, flags, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default="-", help="output path, '-' for stdout")
        for flag, kw in flags:
            sp.add_argument(flag, **kw)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        schema, rows = _COMMANDS[args.command][2](args)
        emit(schema, rows, args.fmt, args.out)
        verdicts = [name for name, kind in schema if kind == "verdict"]
        return 3 if any(not row[name] for row in rows for name in verdicts) else 0
    except (ValidationError, EmptyMeasureError) as exc:
        sys.stderr.write(f"quadsum: {exc}\n")
        return 1
    except ResourceLimitError as exc:
        sys.stderr.write(f"quadsum: resource cap: {exc}\n")
        return 2
    except QuadsumError as exc:  # anything else from the library
        sys.stderr.write(f"quadsum: {exc}\n")
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
