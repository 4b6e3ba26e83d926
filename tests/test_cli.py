"""CLI surface tests: output formats, exit codes, determinism, and the
precondition table mapping bad arguments to exit 1."""

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from quadsum import density, theta
from quadsum.cli import _build_parser, fmt_complex, fmt_real, main, parse_tau
from quadsum.errors import ValidationError
from quadsum.lattice import count_range, encode_residues, enumerate_sphere


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fmt_real_examples():
    assert fmt_real(1.0) == "1.0000000000000000e0"
    assert fmt_real(-0.5) == "-5.0000000000000000e-1"
    assert fmt_real(0.0) == "0.0000000000000000e0"
    assert fmt_real(-0.0) == "0.0000000000000000e0"
    assert fmt_real(12345.678) == "1.2345678000000000e4"


def test_fmt_real_round_trips():
    for x in (1 / 3, math.pi, 1e-300, -2.5e17, 6.02e23, 1e-8):
        assert float(fmt_real(x).replace("e", "E")) == x


def test_fmt_complex_example():
    assert fmt_complex(1 + 2j) == "1.0000000000000000e0+2.0000000000000000e0i"
    assert fmt_complex(1 - 2j) == "1.0000000000000000e0-2.0000000000000000e0i"


def test_parse_tau():
    assert parse_tau("0+1i") == 1j
    assert parse_tau("0.25+0.5i") == 0.25 + 0.5j
    assert parse_tau("-1+2e-1i") == -1 + 0.2j
    with pytest.raises(ValidationError):
        parse_tau("1-1i")  # lower half plane
    with pytest.raises(ValidationError):
        parse_tau("i")


def test_repnum_csv(capsys):
    code, out, _ = run_cli(["repnum", "--d", "4", "--nmax", "10"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,r_enum,r_conv,r_jacobi,match"
    assert lines[1] == "0,1,1,,true"
    assert lines[3] == "2,24,24,24,true"
    assert all(line.endswith("true") for line in lines[1:])


def test_repnum_reproduces_criterion_1(capsys):
    code, out, _ = run_cli(["repnum", "--d", "4", "--nmax", "5000"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 5001
    assert lines[-1] == "5000,18744,18744,18744,true"


def test_repnum_d3_leaves_jacobi_blank(capsys):
    code, out, _ = run_cli(["repnum", "--d", "3", "--nmax", "4"], capsys)
    assert code == 0
    assert out.splitlines()[1] == "0,1,1,,true"


def test_quadric_output(capsys):
    code, out, _ = run_cli(["quadric", "--p", "3", "--d", "2", "--a", "1"], capsys)
    assert code == 0
    line = out.splitlines()[1]
    assert line.startswith("3,2,1,4,")
    assert "(1,0)" in line and "(0,2)" in line


def test_gauss_closed_form_match(capsys):
    code, out, _ = run_cli(["gauss", "--q", "27", "--amax", "6"], capsys)
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 6
    for row in rows:
        assert row.endswith("true")


def test_gauss_large_a_matches_closed_form(capsys):
    code, out, err = run_cli(["gauss", "--q", "1000003", "--a", str(2**45 + 1)], capsys)
    assert (code, err) == (0, "")
    row = out.splitlines()[1]
    assert row.startswith(f"1000003,{2**45 + 1},") and row.endswith(",true")


def test_acoeff_exit_zero(capsys):
    code, out, _ = run_cli(
        ["acoeff", "--d", "4", "--p", "3", "--hmax", "2", "--nmax", "6"], capsys
    )
    assert code == 0
    assert all(line.endswith("true") for line in out.splitlines()[1:])


def test_density_and_singular_and_mainterm(capsys):
    code, out, _ = run_cli(["density", "--p", "3", "--d", "4", "--n", "9"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 1 + 4  # h = 0 .. ord + 1 = 3
    code, out, _ = run_cli(["singular", "--d", "5", "--n", "10"], capsys)
    assert code == 0
    code, out, _ = run_cli(["mainterm", "--d", "5", "--n", "10"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 2


def test_mainterm_at_high_power_of_two(capsys):
    # the direct 2-adic sum reaches ord_2(n) = 17 at most (moduli up to 2^20 = Q_CAP);
    # the series takes the exact 2-adic factor, which has no such limit
    code, out, _ = run_cli(["mainterm", "--d", "5", "--n", "65536"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 2


def test_mainterm_past_the_gauss_table_cap(capsys):
    # ord_2(131072) = 17: the series builds no Gauss table at any ord_2(n)
    code, out, err = run_cli(["mainterm", "--d", "5", "--n", "131072"], capsys)
    assert (code, err) == (0, "")
    main_term = float(out.splitlines()[1].split(",")[-1])
    assert count_range(5, 131072)[131072] / main_term == pytest.approx(1, abs=1e-3)


def test_two_adic_density_reaches_ord_17(capsys):
    # the terms h = 0..ord_2(n) + 3 need moduli up to 2^20 = Q_CAP
    code, out, err = run_cli("density --p 2 --d 5 --n 131072 --format json".split(), capsys)
    assert (code, err) == (0, "")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["h"] for row in rows] == list(range(21))
    assert {row["delta"] for row in rows} == {density._two_adic_delta(5, 131072)}


def test_diffcheck_pass_and_fail_exit_codes(capsys):
    code, _, _ = run_cli(["diffcheck", "--d", "4", "--p", "3", "--n", "15"], capsys)
    assert code == 0
    # an absurd coefficient forces a verification failure -> exit 3
    code, _, _ = run_cli(
        ["diffcheck", "--d", "5", "--p", "3", "--n", "16", "--coeff", "1e9"], capsys
    )
    assert code == 3


def test_theta_verify_exit_zero(capsys):
    code, out, _ = run_cli(
        ["theta-verify", "--p", "3", "--d", "2", "--tau", "0+1i", "--eps", "1e-12", "--seed", "7"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("check,label")
    assert all(line.endswith("true") for line in lines[1:])


def test_theta_verify_p13_d4(capsys):
    # p^d = 28561 needs no residue census on the theta path
    code, out, _ = run_cli(
        ["theta-verify", "--p", "13", "--d", "4", "--tau", "0+1i", "--seed", "1"], capsys
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 31
    assert all(row.endswith("true") for row in rows)


def test_cusp_check_and_srw(capsys):
    code, out, _ = run_cli(
        ["cusp-check", "--p", "3", "--d", "2", "--kind", "random-cusp", "--seed", "1"], capsys
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[4] == "true"
    code, out, _ = run_cli(
        ["srw", "--p", "3", "--d", "2", "--rmax", "2", "--kind", "ones"], capsys
    )
    assert code == 0
    assert len(out.splitlines()) == 1 + 1 + 3 + 9


def test_equidist_command_and_parity_enforcement(capsys):
    code, out, _ = run_cli(
        ["equidist", "--d", "5", "--p", "3", "--a", "1", "--kmin", "4", "--kmax", "5"], capsys
    )
    assert code == 0
    assert len(out.splitlines()) == 3
    # d = 4 with even parity violates the backing precondition -> exit 1
    code, _, err = run_cli(
        ["equidist", "--d", "4", "--p", "3", "--a", "1", "--parity", "even"], capsys
    )
    assert code == 1
    assert "odd" in err


def test_equidist_answers_past_the_expanded_cell_cap(capsys):
    # the windows reach n = 32767: 5.1e8 expanded census cells, 28 orbit columns
    code, out, _ = run_cli(
        ["equidist", "--d", "6", "--p", "5", "--a", "1", "--kmin", "6", "--kmax", "14"], capsys
    )
    assert code == 0
    assert out.splitlines()[-1].startswith("16384,32768,3277,false,")


def test_growth_command(capsys):
    code, out, _ = run_cli(
        ["growth", "--d", "4", "--p", "3", "--nmax", "50", "--seed", "3"], capsys
    )
    assert code == 0
    assert len(out.splitlines()) == 51


def test_json_format(capsys):
    code, out, _ = run_cli(
        ["repnum", "--d", "4", "--nmax", "3", "--format", "json"], capsys
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[2]["r_jacobi"] == 24
    assert list(rows[0].keys()) == ["n", "r_enum", "r_conv", "r_jacobi", "match"]
    assert rows[0]["r_jacobi"] is None


def test_byte_identical_reruns(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["theta-coeffs", "--p", "3", "--d", "2", "--nmax", "40",
            "--kind", "random-even", "--seed", "9"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert b"\r" not in out1.read_bytes()


def test_unknown_command_and_usage_errors(capsys):
    assert run_cli(["no-such-command"], capsys)[0] == 1
    assert run_cli([], capsys)[0] == 1
    assert run_cli(["repnum", "--d", "4"], capsys)[0] == 1  # missing --nmax
    assert run_cli(["theta-verify", "--p", "3", "--d", "2", "--tau", "bogus"], capsys)[0] == 1


def test_precondition_table(capsys):
    cases = [
        ["quadric", "--p", "3", "--d", "2", "--a", "5"],
        ["quadric", "--p", "9", "--d", "2"],
        ["density", "--p", "3", "--d", "2", "--n", "1"],
        ["density", "--p", "3", "--d", "4", "--n", "0"],
        ["singular", "--d", "4", "--n", "1"],
        ["mainterm", "--d", "5", "--n", "0"],
        ["diffcheck", "--d", "4", "--p", "3", "--n", "2"],
        ["diffcheck", "--d", "5", "--p", "3", "--n", "4"],  # coefficient missing
        ["acoeff", "--d", "4", "--p", "2"],
        ["theta-verify", "--p", "2", "--d", "2", "--tau", "0+1i"],
        ["equidist", "--d", "3", "--p", "3", "--a", "1"],
        ["equidist", "--d", "5", "--p", "3", "--a", "7"],
        ["growth", "--d", "0", "--p", "3", "--nmax", "10"],
    ]
    for argv in cases:
        code, _, err = run_cli(argv, capsys)
        assert code == 1, (argv, code, err)


def test_resource_cap_exit_code(capsys):
    code, _, err = run_cli(["repnum", "--d", "8", "--nmax", "100000"], capsys)
    assert code == 2
    assert "cap" in err


def test_prime_cap_and_entry_cap_exit_two(capsys):
    code, out, err = run_cli(["singular", "--d", "5", "--n", "10000019"], capsys)
    assert (code, out) == (2, "")
    assert "cap" in err
    # 3**20 entries are refused before any of them is allocated
    code, out, err = run_cli(["theta-coeffs", "--p", "3", "--d", "20", "--nmax", "5"], capsys)
    assert (code, out) == (2, "")
    assert "entry cap" in err


# command lines that once printed a traceback (or, for a non-finite --eps, a
# misleading exit 2 or 3), with the exit code they must give instead
BAD_NUMBERS = {
    "growth --d 5 --p 3 --nmax 10 --seed -1": 1,
    "theta-coeffs --p 3 --d 2 --nmax 5 --seed -1": 1,
    "cusp-check --p 3 --d 2 --seed -1": 1,
    "srw --p 3 --d 2 --seed -1": 1,
    "theta-verify --p 3 --d 2 --tau 0+1i --seed -1": 1,
    "theta-verify --p 3 --d 2 --tau 0+1i --eps nan": 1,
    "theta-verify --p 3 --d 2 --tau 0+1i --eps inf": 1,
    "diffcheck --d 5 --p 3 --n 2 --coeff nan": 1,
    "diffcheck --d 5 --p 3 --n 2 --coeff inf": 1,
    "diffcheck --d 5 --p 3 --n 2 --coeff 1e308": 2,
    f"mainterm --d 5 --n {10**300}": 2,
    "mainterm --d 2000 --n 7": 2,
}


@pytest.mark.parametrize("command", BAD_NUMBERS, ids=lambda c: c[:60])
def test_bad_numbers_exit_without_traceback(command, capsys):
    code, out, err = run_cli(shlex.split(command), capsys)
    assert (code, out) == (BAD_NUMBERS[command], "")
    assert err.startswith("quadsum:")


def test_underflowing_image_point_exits_two(capsys):
    # Im(-1/(4 tau)) underflows to 0 at this tau, which is itself valid
    code, out, err = run_cli(["theta-verify", "--p", "3", "--d", "2", "--tau", "1e300+1i"], capsys)
    assert (code, out) == (2, "")
    assert "-1/(4 tau)" in err
    # a tau the user gives off the upper half plane is still a usage error
    for tau in ("1e300+0i", "1e300-1i", "0-1i"):
        code, out, err = run_cli(["theta-verify", "--p", "3", "--d", "2", "--tau", tau], capsys)
        assert (code, out) == (1, ""), tau
        assert "upper half plane" in err


def test_singular_answers_at_a_huge_n(capsys):
    # the archimedean factor overflows at this n, the series does not
    code, out, err = run_cli(["singular", "--d", "9", "--n", str(10**300)], capsys)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 2


def test_theta_verify_odd_d_checks_the_full_law(capsys):
    code, out, _ = run_cli(["theta-verify", "--p", "3", "--d", "3", "--tau", "0+1i"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[1] for row in rows if row[0] == "weak-modularity"] == [
        "weak-modularity c=0", "weak-modularity c=36"]
    assert all(row[-1] == "true" for row in rows)


# stdout of the series commands, captured before the Euler product was read
# from per-d tables of unramified factors; it must not change by one byte
SERIES_GOLDEN = {
    "singular --d 5 --n 10": "d,n,prime_cutoff,value\n5,10,101,1.3461864564662449e0\n",
    "singular --d 6 --n 150001": "d,n,prime_cutoff,value\n6,150001,101,7.7403682643145866e-1\n",
    "mainterm --d 5 --n 4096": "d,n,prime_cutoff,singular,main_term\n"
                               "5,4096,101,8.6697390028061816e-1,2.9907797223981521e6\n",
    "mainterm --d 7 --n 1155": "d,n,prime_cutoff,singular,main_term\n"
                               "7,1155,101,1.0921271657225160e0,8.1879751611967242e8\n",
    "mainterm --d 5 --n 65536": "d,n,prime_cutoff,singular,main_term\n"
                                "5,65536,101,8.6697430722672442e-1,1.9140999207876357e8\n",
}


@pytest.mark.parametrize("command", SERIES_GOLDEN)
def test_series_output_is_byte_identical(command, capsys):
    code, out, err = run_cli(command.split(), capsys)
    assert (code, err) == (0, "")
    assert out == SERIES_GOLDEN[command]


# stdout of the series commands at a large prime n, captured before the
# tables of unramified factors were grown by one array pass per row
LARGE_SERIES_GOLDEN = {
    "singular --d 5 --n 1000003": "d,n,prime_cutoff,value\n5,1000003,101,1.3771576395489524e0\n",
    "mainterm --d 5 --n 9999991": "d,n,prime_cutoff,singular,main_term\n"
                                  "5,9999991,101,1.5029220593773327e0,6.2542372896532922e11\n",
}


@pytest.mark.parametrize("command", LARGE_SERIES_GOLDEN)
def test_series_output_at_a_large_prime_is_byte_identical(command, capsys):
    code, out, err = run_cli(command.split(), capsys)
    assert (code, err) == (0, "")
    assert out == LARGE_SERIES_GOLDEN[command]


# sha256 of the stdout of the census-backed commands; it must not change by
# one byte.  The equidist digest was captured before the census was built on
# sign classes; the theta-coeffs and growth digests when the coefficients
# were first read off the orbit census (f summed over each orbit), which
# moved some rows by at most 4.4e-17 r_d(n) max|f|
CENSUS_GOLDEN = {
    "theta-coeffs --p 3 --d 2 --nmax 50 --kind random-cusp --seed 1":
        "6a888a12592be567a9489b8f0348f83e54f015fe53d84c8d3ce43ba332770052",
    "equidist --d 5 --p 3 --a 1 --kmin 6 --kmax 10":
        "b8dca645acc5b289e081d4c403437d0943c89aa2b1e65205a4c6b5575311c769",
    "growth --d 5 --p 3 --nmax 2000 --seed 4":
        "032829bcc78d7eff51aafb19723740fe0ddb1616633bf9db6e357ceeda200255",
}


@pytest.mark.parametrize("command", CENSUS_GOLDEN)
def test_census_output_is_byte_identical(command, capsys):
    code, out, err = run_cli(command.split(), capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_GOLDEN[command]


def _enumerated_coefficient(f, n: int) -> complex:
    """c_n = sum of f(x mod p) over the points of Q(x,x) = n, by enumeration."""
    terms = []
    enumerate_sphere(f.d, n, lambda x: terms.append(f.values[encode_residues(x, f.p)]))
    return complex(sum(terms))


# commands whose expanded census, 1001 x 5^8 cells, exceeds CENSUS_CELL_CAP;
# their orbit table holds 1001 x 45 cells.  Each maps to its test function,
# its first n and the column that reads c_n
REACH = {
    "growth --d 8 --p 5 --nmax 1000 --seed 1": (lambda: theta.random_cusp_function(5, 8, 1), 1, "abs_c"),
    "theta-coeffs --p 5 --d 8 --nmax 1000": (lambda: theta.random_even_function(5, 8, 0), 0, "c"),
}


@pytest.mark.parametrize("command", REACH)
def test_coefficient_commands_reach_past_the_expanded_census(command, capsys):
    code, out, err = run_cli(command.split() + ["--format", "json"], capsys)
    assert (code, err) == (0, "")
    rows = [json.loads(line) for line in out.splitlines()]
    build, first, column = REACH[command]
    f = build()
    assert [row["n"] for row in rows] == list(range(first, 1001))
    for row in rows[:3]:
        want = _enumerated_coefficient(f, row["n"])
        got = abs(want) if column == "abs_c" else want
        value = float(row[column]) if column == "abs_c" else complex(row[column].replace("i", "j"))
        assert abs(value - got) <= 1e-12 * max(count_range(8, row["n"])[-1], 1) * f.max_abs


# sha256 of the stdout of the Gauss-sum, theta, cusp and S(r, w) commands and
# of both output formats, captured before the theta tail, the phase sums and
# the field formats each got one helper; it must not change by one byte
PHASE_SUM_GOLDEN = {
    "gauss --q 27 --amax 8":
        "c07361705632a029abd3f7c9663638483c4de59c6858d727486f606545dbe1d5",
    "acoeff --d 4 --p 3 --hmax 4 --nmax 20":
        "fe356e48966f0ed7c814099a915229fb9022024a962c0b84cc6dba9e56020441",
    "theta-verify --p 3 --d 2 --tau 0+1i --eps 1e-12 --seed 7":
        "ee86f0f377b90e7878c615602b2f9fd2486577e2a98316c44366656f383464ac",
    "cusp-check --p 5 --d 3 --kind random-cusp --seed 2":
        "69925d5e1bf5c1444403aeb3f7ce8d83adc7ff613f31f254a98aae9d121b5108",
    "srw --p 3 --d 2 --rmax 3 --kind random-cusp":
        "613199d6b8f9ec10e2d4f2cecd1f32f95410350d23aee10f4cc865337ecbf425",
    "density --p 2 --d 5 --n 96":  # the stdout then, less its last row
        "b7ebb18b2f6f6fc6fa78a0743d50e596b69dec0af0b2bf90265cbe0bcf41d615",
    "theta-verify --p 5 --d 4 --tau 0.3+0.2i --seed 3":
        "e0c400f54419c3a597196d070b496ad76c4d41255dc9a186a65d34551429e117",
    "srw --p 5 --d 3 --rmax 3 --kind random-even --seed 4":
        "ad585526ca1a473d0b988d58a0085ec131edeca813be5d8fff2124a32a897e5a",
    "theta-verify --p 5 --d 4 --tau 0.3+0.2i --seed 3 --format json":
        "025ac02580f7f18212aa9cebef2597ec323e362b0f9b9a4742c7b017e9c7d99c",
    "theta-verify --p 7 --d 2 --tau 0.2+0.7i --seed 5":
        "6841f3979754aa27f9f16048ef91a4a4c3100fd17842f3e7f0614456faee0fb8",
    "theta-verify --p 11 --d 2 --tau 0+1i --seed 1":
        "80d64f3d333486338ba943fe0b4ae9f3febc26fa3a849595d7b75eb275fd673e",
    "theta-verify --p 13 --d 2 --tau 0.4+0.9i --seed 2":
        "9b6f926f9283cc9370e7572711798e34cf84bf43c1a3084f3ab9a400637d7bbb",
    "theta-verify --p 3 --d 3 --tau 0.1+0.6i --seed 4":
        "1d5858e8234112f51f86e06eb22a08fa5115e9a7093bc64553878e5cf44c28c3",
    "theta-verify --p 5 --d 5 --tau 0+1i --seed 6":
        "f99b51b39837f731d76e5af8c7f7c242e2da56f64c892d988fbafd6f31f20b12",
    "theta-verify --p 3 --d 4 --tau 0.01+0.05i --seed 8":
        "23094fae20518c215c62d2ccc7ef004ac2fcb1968aa36917392eab0af6393e13",
    "theta-verify --p 7 --d 3 --tau 0.3+0.5i --seed 9 --format json":
        "d850777bd5ee3367c368d05847d3b7d7a93212b9b5b92668c1b0a9be08ed5369",
}


@pytest.mark.parametrize("command", PHASE_SUM_GOLDEN)
def test_phase_sum_output_is_byte_identical(command, capsys):
    code, out, err = run_cli(command.split(), capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PHASE_SUM_GOLDEN[command]


def test_one_parser_serves_every_call_in_a_process(capsys):
    # the parser is built once; no call may leave a flag or an error behind
    command = "density --p 2 --d 5 --n 96"
    golden = PHASE_SUM_GOLDEN[command]
    code, out, _ = run_cli(command.split() + ["--format", "json"], capsys)
    assert code == 0 and all(json.loads(line)["p"] == 2 for line in out.splitlines())
    code, out, err = run_cli(command.split(), capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == golden  # CSV again
    assert run_cli(["density", "--p", "2", "--d", "5"], capsys)[0] == 1  # no --n
    assert run_cli(["no-such-command"], capsys)[0] == 1
    code, out, err = run_cli(command.split(), capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == golden
    assert _build_parser() is _build_parser()


def test_write_failure_maps_to_exit_one(capsys):
    code, _, _ = run_cli(
        ["repnum", "--d", "4", "--nmax", "2", "--out", "/nonexistent-dir/x.csv"], capsys
    )
    assert code == 1


COMMANDS = ("repnum", "quadric", "gauss", "acoeff", "density", "singular", "mainterm", "diffcheck",
            "theta-coeffs", "theta-verify", "cusp-check", "srw", "equidist", "growth")


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listing = capsys.readouterr().out
    for name in COMMANDS:
        assert f"    {name} " in listing
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: quadsum {name} ")


def test_malformed_tau_is_reported_while_parsing(capsys):
    code, _, err = run_cli(["theta-verify", "--p", "3", "--tau", "bogus"], capsys)
    assert code == 1
    assert err == "quadsum: tau must look like 're+imi', got 'bogus'\n"


def _readme_commands() -> list[list[str]]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("quadsum ")]


def test_readme_cli_commands_run(capsys):
    commands = _readme_commands()
    assert sorted(argv[0] for argv in commands) == sorted(COMMANDS)
    for argv in commands:
        code, out, err = run_cli(argv, capsys)
        assert code == 0, (argv, err)
        assert out


def _child_stdout(argv, threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "MKL_NUM_THREADS": threads, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    code = "import sys; from quadsum.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          check=True).stdout


@pytest.mark.parametrize("command", ["theta-coeffs --p 7 --d 6 --nmax 5000 --seed 1",
                                     "growth --d 6 --p 7 --nmax 5000 --seed 1"])
def test_census_coefficients_do_not_depend_on_the_blas_thread_count(command):
    # theta_coeffs adds the orbit columns in orbit order with no BLAS call,
    # so one thread and two print the same bytes
    argv = shlex.split(command)
    one = _child_stdout(argv, "1")
    assert one and _child_stdout(argv, "2") == one


def test_bench_selftest_passes():
    # the self-test corrupts library results the benchmark's oracles check,
    # so a change that blunts one of those oracles fails here
    root = Path(__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "bench/selftest.py"], cwd=root, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "selftest passed" in out.stdout.splitlines()
