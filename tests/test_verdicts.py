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


def _wrong_weak_modularity(f, gs, tau, eps=None):
    return [theta.TransformResidual(label="weak-modularity c=0", lhs=1j, rhs=0j, residual=1.0)
            for _ in gs]


# (argv, module, attribute, replacement, verdict column)
FORCED_FAILURES = {
    "repnum": (["repnum", "--d", "3", "--nmax", "6"], lattice, "count_range",
               lambda d, nmax: np.zeros(nmax + 1, dtype=np.int64), "match"),
    "gauss": (["gauss", "--q", "27", "--amax", "4"], density, "gauss_sum_prime_power",
              lambda p, h, a: 0j, "match"),
    "acoeff": (["acoeff", "--d", "4", "--p", "3", "--hmax", "1", "--nmax", "3"], density,
               "a_coeff_closed", lambda d, p, h, n: 1e6 + 0j, "match"),
    "theta-verify": (["theta-verify", "--p", "3", "--d", "2", "--tau", "0+1i", "--seed", "7"],
                     theta, "_weak_modularity_residuals", _wrong_weak_modularity, "pass"),
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


# sha256 of stdout of decay studies whose distances are not all 0, in both
# formats, captured before the census was built on class multisets and each
# window was scored in one pass; it must not change by one byte
DECAY_GOLDEN = {
    "equidist --d 5 --p 3 --a 1 --kmin 6 --kmax 10":
        "b8dca645acc5b289e081d4c403437d0943c89aa2b1e65205a4c6b5575311c769",
    "equidist --d 5 --p 3 --a 1 --kmin 6 --kmax 10 --format json":
        "b70641768cac3d083900adf4a87c62b6aa78976080a91214001e55d7c9e1c90a",
    "equidist --d 5 --p 5 --a 2 --kmin 6 --kmax 11":
        "e62caf282c29bc470a430afe50244caee512e2e4c245d26463c577df5ecccd21",
    "equidist --d 5 --p 5 --a 2 --kmin 6 --kmax 11 --format json":
        "7ce74e89c13b9f76e98d92aacf900a1d68913b23aa577bc715822d8137a20d80",
    "equidist --d 4 --p 5 --a 1 --parity odd --kmin 6 --kmax 13":
        "6edc6c888bdf7e4ead411e027e2f36e2de9500013b3c06c6e42c067289ef2624",
    "equidist --d 4 --p 5 --a 1 --parity odd --kmin 6 --kmax 13 --format json":
        "06e1b6b28c1790ea3c5839100024745320f0faac33b4ab29e74d4b2fc345533a",
}


@pytest.mark.parametrize("command", DECAY_GOLDEN)
def test_decay_output_is_byte_identical(command, capsys):
    code, out, err = run_cli(command.split(), capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DECAY_GOLDEN[command]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_window_without_samples_prints_empty_distances(capsys):
    # [4, 8) holds no n = 3 mod 7: n = 3 lies below it and n = 10 above
    argv = ["equidist", "--d", "6", "--p", "7", "--a", "3", "--kmin", "2", "--kmax", "7"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "4,8,0,true,,"
    assert "" not in _column(out, "median_tv")[1:]
    code, out, err = run_cli(argv + ["--format", "json"], capsys)
    assert (code, err) == (0, "")
    rows = [json.loads(line, parse_constant=_reject_constant) for line in out.splitlines()]
    assert (rows[0]["samples"], rows[0]["median_tv"], rows[0]["max_tv"]) == (0, None, None)
    assert all(isinstance(row["max_tv"], float) for row in rows[1:])
