"""The exit-code contract over each command's valid flags: seeded inputs drawn
from every flag's documented range (kept small for time) run through
``cli.main`` in-process.  Each must answer (exit 0) or stop at a resource cap
(exit 2, saying so); none may raise, exit 1 or 3, or print JSON that does not
parse.  A few draws pass a cap on purpose, so the exit-2 path is taken too.

``theta-verify`` is drawn from p in {3, 5, 7}, d <= 4, Im(tau) in [0.1, 2],
|Re(tau)| <= 10 and eps <= 1e-8: below Im(tau) = 0.1 or far out in Re(tau)
the float phases of the partial sums lose enough to fail a row.
"""

import json

import numpy as np
import pytest

from quadsum.cli import main

KINDS = ("ones", "origin", "random-even", "random-cusp")


def _log_int(rng, lo, hi):
    """An integer in [lo, hi], log-uniform."""
    return min(hi, int(np.exp(rng.uniform(np.log(lo), np.log(hi + 1)))))


def _repnum(rng):
    d = int(rng.integers(1, 9))
    return ["--d", d, "--nmax", _log_int(rng, 1, 2 * 10**5 // d**4) - 1]


def _quadric(rng):
    p, d = int(rng.choice([2, 3, 5, 7, 11])), int(rng.integers(1, 4))
    level = ["--a", int(rng.integers(0, 4 if p == 2 else p))] if rng.random() < 0.5 else []
    return ["--p", p, "--d", d, *level]


def _gauss(rng):
    q = _log_int(rng, 1, 5000) if rng.random() < 0.9 else _log_int(rng, 2**20 + 1, 2**40)  # past Q_CAP
    scan = ["--a", int(rng.integers(-10**12, 10**12))] if rng.random() < 0.5 else ["--amax", int(rng.integers(1, 41))]
    return ["--q", q, *scan]


def _acoeff(rng):
    return ["--d", int(rng.integers(1, 9)), "--p", int(rng.choice([3, 5, 7])),
            "--hmax", int(rng.integers(1, 4)), "--nmax", int(rng.integers(1, 9))]


def _density(rng):
    return ["--p", int(rng.choice([2, 3, 5, 7])), "--d", int(rng.integers(3, 9)), "--n", _log_int(rng, 1, 10**5)]


def _series(rng):
    cutoff = ["--prime-cutoff", _log_int(rng, 2, 1000)] if rng.random() < 0.5 else []
    return ["--d", int(rng.integers(5, 9)), "--n", _log_int(rng, 1, 10**6), *cutoff]


def _diffcheck(rng):
    d, p, n = int(rng.integers(4, 8)), int(rng.choice([3, 5, 7])), int(rng.integers(1, 40))
    if d == 4:
        return ["--d", d, "--p", p, "--n", 2 * n - 1]
    # x -> p x embeds the points of n in those of p^2 n, so a bound
    # coeff * n^(d/2-1) with coeff <= 0 holds: a larger coeff is a claim the
    # command may refute
    return ["--d", d, "--p", p, "--n", n, "--coeff", -float(rng.choice([0.0, rng.uniform(0, 10)]))]


def _function(rng, dmax):
    d = int(rng.integers(1, dmax + 1)) if rng.random() < 0.9 else int(rng.integers(24, 60))  # past ENTRY_CAP
    return ["--p", int(rng.choice([2, 3, 5, 7])), "--d", d,
            "--kind", str(rng.choice(KINDS)), "--seed", int(rng.integers(0, 10**6))]


def _theta_coeffs(rng):
    return [*_function(rng, 6), "--nmax", _log_int(rng, 1, 5000)]


def _theta_verify(rng):
    tau = f"{rng.uniform(-10, 10)!r}+{rng.uniform(0.1, 2)!r}i"
    return ["--p", int(rng.choice([3, 5, 7])), "--d", int(rng.integers(1, 5)), f"--tau={tau}",
            "--eps", float(10 ** rng.uniform(-14, -8)), "--seed", int(rng.integers(0, 10**6))]


def _srw(rng):
    return [*_function(rng, 3), "--rmax", int(rng.integers(0, 4))]


def _equidist(rng):
    d, p = int(rng.integers(4, 7)), int(rng.choice([3, 5, 7]))
    kmin = int(rng.integers(0, 11))
    parity = "odd" if d == 4 else str(rng.choice(["odd", "even", "all"]))
    return ["--d", d, "--p", p, "--a", int(rng.integers(0, p)), "--kmin", kmin,
            "--kmax", kmin + int(rng.integers(0, 3)), "--parity", parity]


def _growth(rng):
    d = int(rng.integers(1, 7)) if rng.random() < 0.9 else int(rng.integers(24, 60))  # past ENTRY_CAP
    return ["--d", d, "--p", int(rng.choice([2, 3, 5, 7])),
            "--nmax", _log_int(rng, 1, 5000), "--seed", int(rng.integers(0, 10**6))]


DRAWS = {
    "repnum": _repnum, "quadric": _quadric, "gauss": _gauss, "acoeff": _acoeff,
    "density": _density, "singular": _series, "mainterm": _series, "diffcheck": _diffcheck,
    "theta-coeffs": _theta_coeffs, "theta-verify": _theta_verify, "cusp-check": lambda rng: _function(rng, 4),
    "srw": _srw, "equidist": _equidist, "growth": _growth,
}

#: inputs drawn per command; theta-verify, whose rows are floating-point
#: identities, gets the most
DRAW_COUNT = {command: 200 if command == "theta-verify" else 40 for command in DRAWS}


@pytest.mark.parametrize("command", DRAWS)
def test_valid_flags_answer_or_stop_at_a_cap(command, capsys):
    rng = np.random.default_rng(sum(map(ord, command)))
    for _ in range(DRAW_COUNT[command]):
        argv = [command, *map(str, DRAWS[command](rng))]
        fmt = str(rng.choice(["csv", "json"]))
        try:
            code = main(argv + ["--format", fmt])
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{' '.join(argv)} raised {exc!r}")
        out, err = capsys.readouterr()
        assert code in (0, 2), (argv, code, err)
        if code == 2:
            assert "resource cap" in err, (argv, err)
        elif fmt == "json":
            assert all(isinstance(json.loads(line), dict) for line in out.splitlines()), argv
