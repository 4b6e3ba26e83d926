"""Exit 3 is decided by the verdict columns alone: every subcommand with a
``match`` or ``pass`` column exits 3 on a false cell, a false bool that is not
a verdict keeps exit 0, and a scan flag that leaves nothing to scan exits 1.
The sha256 goldens pin commands whose rows come from the shared rule homes
(the level support, the cusp conditions, the verdict columns)."""

import hashlib
import json

import numpy as np
import pytest

from quadsum import density, lattice, theta
from quadsum.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _column(out: str, name: str) -> list[str]:
    lines = out.splitlines()
    i = lines[0].split(",").index(name)
    return [line.split(",")[i] for line in lines[1:]]


def _wrong_weak_modularity(f, g, tau, eps=None):
    return theta.TransformResidual(label="weak-modularity c=0", lhs=1j, rhs=0j, residual=1.0)


# (argv, module, attribute, replacement, verdict column)
FORCED_FAILURES = {
    "repnum": (["repnum", "--d", "3", "--nmax", "6"], lattice, "count_range",
               lambda d, nmax: np.zeros(nmax + 1, dtype=np.int64), "match"),
    "gauss": (["gauss", "--q", "27", "--amax", "4"], density, "gauss_sum_prime_power",
              lambda p, h, a: 0j, "match"),
    "acoeff": (["acoeff", "--d", "4", "--p", "3", "--hmax", "1", "--nmax", "3"], density,
               "a_coeff_closed", lambda d, p, h, n: 1e6 + 0j, "match"),
    "theta-verify": (["theta-verify", "--p", "3", "--d", "2", "--tau", "0+1i", "--seed", "7"],
                     theta, "verify_weak_modularity", _wrong_weak_modularity, "pass"),
}


@pytest.mark.parametrize("command", FORCED_FAILURES)
def test_false_verdict_exits_three(command, monkeypatch, capsys):
    argv, module, attr, replacement, column = FORCED_FAILURES[command]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert "false" not in _column(out, column)
    monkeypatch.setattr(module, attr, replacement)
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (3, "")
    assert "false" in _column(out, column)
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 3
    assert any(json.loads(line)[column] is False for line in out.splitlines())


def test_diffcheck_false_pass_cell_exits_three(capsys):
    code, out, _ = run_cli(["diffcheck", "--d", "5", "--p", "3", "--n", "16", "--coeff", "1e9"], capsys)
    assert code == 3
    assert _column(out, "pass") == ["false"]


def test_false_non_verdict_bool_exits_zero(capsys):
    code, out, err = run_cli(["cusp-check", "--p", "5", "--d", "3", "--kind", "random-even"], capsys)
    assert (code, err) == (0, "")
    assert _column(out, "is_cusp") == ["false"]
    # the window [16, 32) holds 6 n = 1 mod 3, below equidist.MIN_SAMPLES
    code, out, err = run_cli(["equidist", "--d", "5", "--p", "3", "--a", "1",
                              "--kmin", "4", "--kmax", "4"], capsys)
    assert (code, err) == (0, "")
    assert _column(out, "under_sampled") == ["true"]


EMPTY_SCANS = [
    ["gauss", "--q", "0"],
    ["gauss", "--q", "-3"],
    ["gauss", "--q", "27", "--amax", "-2"],
    ["gauss", "--q", "27", "--amax", "0"],
    ["acoeff", "--d", "4", "--p", "3", "--hmax", "0"],
    ["acoeff", "--d", "4", "--p", "3", "--nmax", "0"],
    ["srw", "--p", "3", "--d", "2", "--rmax", "-1"],
    ["growth", "--d", "5", "--p", "3", "--nmax", "0"],
]


@pytest.mark.parametrize("argv", EMPTY_SCANS, ids=" ".join)
def test_empty_scan_exits_one(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("quadsum: ")


# sha256 of stdout captured before exit 3 was read from the verdict columns
# and the (pZ)^d exclusion and the cusp conditions got one home each; it
# must not change by one byte
RULE_HOME_GOLDEN = {
    "repnum --d 4 --nmax 100":
        "6ec9f717eb1b9f1a991870f6443019dee7d667111f3e041e9c0434fd29a9dd11",
    "quadric --p 3 --d 2":
        "99be2450c4a28b3ba01f37643c244f29e3801e9dfc257fbf72bbbd861441547a",
    "density --p 3 --d 5 --n 18":
        "7f0aec5e7737cc2856d86359a34ad8a41d69d739140121c0d1f3e5811f2ba222",
    "diffcheck --d 4 --p 3 --n 15":
        "05321959ad524a6cea4967ec4b76b081c98d753a061e1122b89eb4eaa0ea91a5",
    "equidist --d 5 --p 3 --a 0 --kmin 6 --kmax 10":
        "17f57aa2e7384dd144dcbad77661de9b4114b0c868ca70525567bba064720416",
    "cusp-check --p 5 --d 3 --kind random-even --seed 2":
        "48c68c5e6da129560531962a635c93bfd1ac5c4348a317a2d6a8686dcba1a1d7",
    "theta-coeffs --p 3 --d 2 --nmax 50 --kind ones":
        "0ca7745d68c49f71e25729ba5fc52aadc7b142342c4072d8c020122ce3f5516a",
    "theta-coeffs --p 5 --d 3 --nmax 50 --kind origin":
        "eb618adef7080e5c9d1d0828f5068b35b1fb28c7bf1f7d76c53d0eef86dbdcc1",
    "repnum --d 4 --nmax 100 --format json":
        "3e39b12109693e886fcdedc00231b5e18b142c6623569cc929ab79e92bf37965",
    "cusp-check --p 5 --d 3 --kind random-cusp --seed 2 --format json":
        "b4cde90034d29bf26ea11a431f7a35252b3425bea7b11f73e1aa798ec5b3c37c",
}


@pytest.mark.parametrize("command", RULE_HOME_GOLDEN)
def test_rule_home_output_is_byte_identical(command, capsys):
    code, out, err = run_cli(command.split(), capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == RULE_HOME_GOLDEN[command]
