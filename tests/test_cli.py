import csv
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from sextic_qes import (
    Eigenfunction,
    QesIndex,
    build_recurrence_matrix,
    count_nodes,
    eval_psi,
    norm_and_inner,
    reduce,
    solve_constraint,
    spectrum,
)
from sextic_qes.cli import _parse_range, main
from sextic_qes.params import potential_v2

from conftest import mp_coefficients, rounding_bound, run_python

GOLDEN = Path(__file__).parent / "golden"

TABLE1_ARGS = ["table", "--lambda", "0.5", "--eta", "0.03", "--N", "3", "--parity", "even"]
TABLE2_ARGS = ["table", "--lambda", "0.5", "--eta", "0.03", "--N", "3", "--parity", "odd"]


@pytest.fixture
def runner():
    return CliRunner()


def test_table1_golden_bytes(runner):
    result = runner.invoke(main, TABLE1_ARGS)
    assert result.exit_code == 0
    assert result.stdout == (GOLDEN / "table1.txt").read_text()


def test_table2_golden_bytes(runner):
    result = runner.invoke(main, TABLE2_ARGS)
    assert result.exit_code == 0
    assert result.stdout == (GOLDEN / "table2.txt").read_text()
    # the auto-solved coupling is reported out-of-band
    assert "-0.1375" in result.stderr


def test_table_determinism(runner):
    out1 = runner.invoke(main, TABLE1_ARGS).stdout
    out2 = runner.invoke(main, TABLE1_ARGS).stdout
    assert out1 == out2


def test_table_trivial_n0(runner):
    result = runner.invoke(main, ["table", "--lambda", "0", "--eta", "3", "--N", "0"])
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 2  # header + one row
    assert lines[1].split() == ["0", "0.000000"]


def test_table_constraint_violation_exit_code(runner):
    result = runner.invoke(
        main,
        ["table", "--omega2", "0.1", "--lambda", "0.5", "--eta", "0.03", "--N", "3"],
    )
    assert result.exit_code == 3
    assert "constraint" in result.stderr


def test_table_paper_caption_omega(runner):
    # caption's omega2 accepted without enforcement; coefficients unchanged
    result = runner.invoke(
        main,
        ["table", "--omega2", "0.0625", "--lambda", "0.5", "--eta", "0.03", "--N", "3",
         "--parity", "odd", "--paper-caption-omega"],
    )
    assert result.exit_code == 0
    assert result.stdout == (GOLDEN / "table2.txt").read_text()


def test_table_json_roundtrip(runner):
    result = runner.invoke(main, TABLE1_ARGS + ["--format", "json"])
    doc = json.loads(result.stdout)
    assert doc["config"]["omega2"] == pytest.approx(0.0625)
    assert doc["constraint"]["gamma"] == 15
    assert len(doc["states"]) == 4
    assert doc["states"][0]["energy"] == pytest.approx(0.360920, abs=1e-6)


def test_table_csv_header(runner):
    result = runner.invoke(main, TABLE1_ARGS + ["--format", "csv"])
    rows = list(csv.reader(result.stdout.splitlines()))
    assert rows[0] == ["m", "A1", "A2", "A3", "E"]
    assert len(rows) == 5


def test_constraint_command_table1(runner):
    result = runner.invoke(
        main, ["constraint", "--lambda", "0.5", "--eta", "0.03", "--N", "3"]
    )
    assert result.exit_code == 0
    assert "omega2=0.0625" in result.stdout
    assert "gamma=15" in result.stdout


def test_constraint_command_n2(runner):
    result = runner.invoke(
        main, ["constraint", "--lambda", "0.5", "--eta", "0.03", "--N", "2"]
    )
    assert "omega2=0.4625" in result.stdout


def test_constraint_command_trivial(runner):
    result = runner.invoke(main, ["constraint", "--lambda", "0", "--eta", "3", "--N", "0"])
    assert "omega2=-3" in result.stdout


def test_constraint_command_tiny_eta(runner):
    # lam = 0 and omega2 < 0: eta = 3 omega2^2 / gamma^2, far below any scan range
    result = runner.invoke(
        main, ["constraint", "--omega2", "-1e-20", "--lambda", "0", "--N", "0"]
    )
    assert result.exit_code == 0
    assert "eta=3.333333333e-41" in result.stdout


@pytest.mark.parametrize("lam", ["1e-20", "1e-60"])
def test_constraint_command_tiny_lambda(runner, lam):
    # omega2 < 0 and lam -> 0: eta tends to the lam = 0 value 3 omega2^2 / gamma^2
    result = runner.invoke(main, ["constraint", "--omega2", "-1", "--lambda", lam, "--N", "0"])
    assert result.exit_code == 0
    assert "eta=0.3333333333" in result.stdout


def test_constraint_command_needs_two(runner):
    result = runner.invoke(main, ["constraint", "--lambda", "0.5", "--N", "2"])
    assert result.exit_code == 2


def test_spectrum_command(runner):
    result = runner.invoke(
        main, ["spectrum", "--lambda", "0.5", "--eta", "0.03", "--N", "3"]
    )
    assert result.exit_code == 0
    assert "nodes=0" in result.stdout
    assert "nodes=6" in result.stdout


def test_export_json_spot_value(runner, tmp_path):
    out = tmp_path / "spec.json"
    result = runner.invoke(
        main,
        ["export", "--lambda", "0.5", "--eta", "0.03", "--N", "3", "--out", str(out)],
    )
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert len(doc["states"]) == 4
    assert doc["states"][0]["energy"] == pytest.approx(0.360920, abs=1e-6)
    assert doc["states"][0]["nodes"] == 0


def test_export_csv_sample_grid(runner, tmp_path):
    out = tmp_path / "samples.csv"
    result = runner.invoke(
        main,
        ["export", "--lambda", "0.5", "--eta", "0.03", "--N", "0", "--format", "csv",
         "--samples", "-6:6:0.01", "--out", str(out)],
    )
    assert result.exit_code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["x", "psi_m0"]
    assert len(rows) == 1202  # header + 1201 samples
    mid = rows[1 + 600]
    assert float(mid[0]) == pytest.approx(0.0, abs=1e-12)
    assert float(mid[1]) == pytest.approx(1.0)  # psi(0) = 1 before normalization


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_samples_equal_pointwise_eval(runner, tmp_path, fmt):
    # the samples have the bits of one eval_psi call on the whole grid; a call per point
    # sums its basis in another order, so it is within the kernel's rounding bound of them
    out = tmp_path / f"samples.{fmt}"
    args = ["--lambda", "-0.6", "--eta", "0.05", "--N", "3", "--parity", "odd"]
    result = runner.invoke(
        main, ["export", *args, "--format", fmt, "--samples", "-6:6:0.01", "--out", str(out)]
    )
    assert result.exit_code == 0
    p = solve_constraint(QesIndex(3, 1), lam=-0.6, eta=0.05)[0]
    spec = spectrum(reduce(p), QesIndex(3, 1))
    xs = -6.0 + 0.01 * np.arange(1201)
    fs = [Eigenfunction(state=st, reduced=spec.reduced) for st in spec.states]
    expect = [eval_psi(f, xs).tolist() for f in fs]
    if fmt == "json":
        got = json.loads(out.read_text())["samples"]["psi"]
    else:
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        got = [[float(v) for v in col] for col in list(zip(*rows))[1:]]
    assert got == expect
    bound = rounding_bound(3, 1, spec.reduced.a, spec.reduced.b, xs)
    for f, psi in zip(fs, expect):
        g = Eigenfunction(state=replace(f.state, coeffs=np.abs(f.state.coeffs)), reduced=f.reduced)
        scale = np.abs(eval_psi(g, xs))
        single = np.array([float(eval_psi(f, x)) for x in xs])
        assert np.all(np.abs(single - psi) <= 2.0 * bound * scale)


def test_export_empty_sample_grid(runner, tmp_path):
    out = tmp_path / "empty.csv"
    result = runner.invoke(
        main,
        ["export", "--lambda", "0.5", "--eta", "0.03", "--N", "0", "--format", "csv",
         "--samples", "1:0:0.1", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert out.read_text() == "x,psi_m0\n"  # header only


def test_verify_command_table1(runner):
    result = runner.invoke(
        main, ["verify", "--lambda", "0.5", "--eta", "0.03", "--N", "3"]
    )
    assert result.exit_code == 0
    assert result.stdout.startswith("4/4 matched")


def test_verify_command_wrong_omega(runner):
    result = runner.invoke(
        main,
        ["verify", "--omega2", "0.1", "--lambda", "0.5", "--eta", "0.03", "--N", "3"],
    )
    assert result.exit_code == 3


def test_verify_command_n16_odd_shows_box(runner):
    # the box follows the degree 2N + eps; the weight's width alone left the
    # top level at error 1.7e-5 and exit 5
    result = runner.invoke(
        main, ["verify", "--lambda", "0.5", "--eta", "0.03", "--N", "16", "--parity", "odd"]
    )
    assert result.exit_code == 0, result.output
    summary, box = result.stdout.splitlines()[:2]
    assert summary.startswith("17/17 matched")
    assert re.fullmatch(r"  box L=\d+\.\d{6}, \d+ points, max convergence estimate \S+e-\d+", box)


def test_verify_command_box_cutting_the_top_tail_exits_5(runner):
    # the weight's e^-40 width passes the potential rule, V(L) >= E_max + 25,
    # so it is kept, but it cuts the tail of the top state of N = 16 odd
    idx = QesIndex(16, 1)
    p = solve_constraint(idx, lam=0.5, eta=0.03)[0]
    half_width = 5.4229
    e_max = max(st.energy for st in spectrum(reduce(p), idx).states)
    assert potential_v2(p, half_width) / 2.0 >= e_max + 25.0
    result = runner.invoke(
        main,
        ["verify", "--lambda", "0.5", "--eta", "0.03", "--N", "16", "--parity", "odd",
         "--half-width", repr(half_width)],
    )
    assert result.exit_code == 5, result.output
    lines = result.stdout.splitlines()
    assert lines[0].startswith("16/17 matched")
    assert lines[1].startswith("  box L=5.422900, ")
    assert [line.endswith("MISMATCH") for line in lines[2:]] == [False] * 16 + [True]


def test_verify_command_estimate_follows_the_matched_levels(runner):
    # the two levels past N + 1 used to set the estimate: 4.019e-05
    result = runner.invoke(
        main, ["verify", "--lambda", "0.5", "--eta", "0.03", "--N", "45", "--grid-points", "201"]
    )
    assert result.exit_code == 0, result.output
    assert result.stdout.splitlines()[1].endswith("max convergence estimate 9.869e-07")


def test_verify_command_accepts_couplings_it_solved(runner):
    # at eta ~ 1e-6 gamma = sqrt(3/eta) (3 lam^2/(16 eta) - omega2) rounds by
    # ~1e-7, beyond 1e-8 max(1, g): the solved omega2 used to exit 3
    result = runner.invoke(
        main,
        ["verify", "--lambda", "2.9663546915999577", "--eta", "1.2655601725453689e-06",
         "--N", "2", "--parity", "odd"],
    )
    assert result.exit_code == 0, result.output
    assert result.stdout.startswith("3/3 matched")


def test_verify_command_n5(runner):
    result = runner.invoke(
        main, ["verify", "--lambda", "0.5", "--eta", "0.03", "--N", "5"]
    )
    assert result.exit_code == 0
    assert result.stdout.startswith("6/6 matched")


def test_scan_n1_even(runner):
    result = runner.invoke(
        main,
        ["scan", "--scan", "lambda=0.1:1.0:0.1", "--eta", "0.03", "--N", "1"],
    )
    assert result.exit_code == 0
    rows = list(csv.reader(result.stdout.splitlines()))
    assert rows[0] == ["lambda", "eta", "omega2", "E0", "E1", "error"]
    assert len(rows) == 11
    for row in rows[1:]:
        lam, eta = float(row[0]), float(row[1])
        a = 0.25 * lam * math.sqrt(3 / eta)
        b = math.sqrt(eta / 3)
        assert float(row[3]) == pytest.approx(1.5 * a - math.sqrt(a * a + 2 * b), rel=1e-10)
        assert row[5] == ""


def test_scan_single_point_matches_table(runner):
    result = runner.invoke(
        main, ["scan", "--scan", "lambda=0.5:0.5:1", "--eta", "0.03", "--N", "3"]
    )
    rows = list(csv.reader(result.stdout.splitlines()))
    assert len(rows) == 2
    energies = [float(v) for v in rows[1][3:7]]
    assert energies == pytest.approx([0.360920, 2.512128, 5.524957, 9.101994], abs=1e-6)


def test_scan_negative_lambda_region(runner):
    # a < 0 rows are present, from whichever solver path handles them
    result = runner.invoke(
        main, ["scan", "--scan", "lambda=-0.5:-0.1:0.2", "--eta", "0.03", "--N", "2"]
    )
    rows = list(csv.reader(result.stdout.splitlines()))
    assert len(rows) == 4
    for row in rows[1:]:
        assert row[6] == ""
        assert all(v != "" for v in row[3:6])


def test_scan_two_axes_deterministic(runner):
    args = [
        "scan", "--scan", "lambda=0.1:0.3:0.1", "--scan", "eta=0.01:0.03:0.01", "--N", "1",
    ]
    r1 = runner.invoke(main, args)
    r2 = runner.invoke(main, args)
    assert r1.exit_code == 0
    assert r1.stdout == r2.stdout
    assert len(r1.stdout.splitlines()) == 10  # header + 3x3 grid


def test_commands_run_without_scipy(tmp_path):
    # a cold start pays for numpy and click only, and no command loads scipy or numpy.polynomial
    code = f"""
import sys
import sextic_qes
from sextic_qes.cli import main

block = ["--lambda", "0.5", "--eta", "0.03", "--N", "3"]
main(["table", *block], standalone_mode=False)
main(["spectrum", *block, "--format", "json"], standalone_mode=False)
main(["constraint", *block], standalone_mode=False)
main(["export", *block, "--format", "csv", "--samples", "-6:6:0.01",
      "--out", {str(tmp_path / "samples.csv")!r}], standalone_mode=False)
main(["scan", "--scan", "lambda=0.1:1.0:0.1", "--eta", "0.03", "--N", "1"], standalone_mode=False)
main(["verify", *block, "--grid-points", "4001"], standalone_mode=False)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("numpy.polynomial"))
assert not loaded, loaded
"""
    result = run_python("-c", code)
    assert result.returncode == 0, result.stderr
    assert "4/4 matched" in result.stdout


PAPER_BLOCK = ["--lambda", "0.5", "--eta", "0.03", "--N", "3"]

# documented failures: each ends in its exit code and one error line, never a traceback
BAD_INPUTS = [
    (["spectrum", "--lambda", "1", "--eta", "-1", "--N", "2"], 2),
    (["spectrum", "--omega2", "1", "--lambda", "1", "--eta", "-1", "--N", "2"], 2),
    (["constraint", "--lambda", "1", "--eta", "-1", "--N", "2"], 2),
    (["spectrum", "--lambda", "0.5", "--eta", "0.03", "--N", "-1"], 2),
    (["verify", *PAPER_BLOCK, "--grid-points", "100"], 2),
    (["verify", *PAPER_BLOCK, "--grid-points", "2000"], 2),
    (["verify", *PAPER_BLOCK, "--half-width", "-1"], 2),
    (["verify", "--lambda", "0.5", "--eta", "0.03", "--N", "60", "--grid-points", "201"], 2),
    (["scan", "--scan", "lambda=0.1:1:0", "--eta", "0.03", "--N", "1"], 2),
    (["export", *PAPER_BLOCK, "--samples", "0:1:0", "--out", "x.csv"], 2),
    (["export", *PAPER_BLOCK, "--samples", "0:1:nan", "--out", "x.csv"], 2),
    (["spectrum", "--lambda", "0.5", "--eta", "0.03", "--N", "30"], 4),  # m = 28's norm is not certain
    (["constraint", "--omega2", "-100", "--eta", "0.03", "--N", "0"], 4),  # NoSolutionError
    (["spectrum", "--omega2", "0.1", *PAPER_BLOCK], 3),
    (["table", *PAPER_BLOCK, "--out", "missing-dir/x.txt"], 6),
]


@pytest.mark.parametrize("args, code", BAD_INPUTS)
def test_bad_input_exits_with_its_code(runner, tmp_path, monkeypatch, args, code):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == code
    assert isinstance(result.exception, SystemExit)  # nothing escaped as a traceback
    assert "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines() if line.lower().startswith("error:")]
    assert len(errors) == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["spectrum", "export"])
def test_node_count_failure_exits_4(tmp_path, command):
    # the sum A_n t^n cancels in the top states, where rounding bounds the
    # norm^2 of m = 32 only to 0.8 of itself; the node count of every state
    # is known, and the subprocess turns a hang into a failure
    out = ["--out", str(tmp_path / "spec.json")] if command == "export" else []
    result = run_python("-m", "sextic_qes.cli", command, "--lambda", "0.5", "--eta", "0.03", "--N", "40", *out)
    assert result.returncode == 4
    assert result.stderr.startswith("error: the norm of state m=32 is not certain to one digit")
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""


def test_underflowed_top_coefficients_leave_the_refusal_to_the_norm(runner):
    # A_90 of m = 0 ... 4 underflows to 0.0 (a^2/b = 519,756); their signed
    # zeros still give the node count, so the only refusal is the norm's at m = 28
    result = runner.invoke(main, ["spectrum", "--lambda", "3", "--eta", "3.1623e-4", "--N", "90"])
    assert result.exit_code == 4
    assert result.stderr.startswith("error: the norm of state m=28 is not certain to one digit")
    assert result.stderr.count("\n") == 1
    assert result.stdout == ""


# a = -7.9 and -9.5: psi^2 overflows a double (a^2/b = 1976 and 2846), and the norm with it
NON_FINITE_NORM = [
    ["spectrum", "--lambda", "-1", "--eta", "0.003", "--N", "0", "--format", "json"],
    ["spectrum", "--lambda", "-1.2", "--eta", "0.003", "--N", "1"],
    ["export", "--lambda", "-1.2", "--eta", "0.003", "--N", "1", "--format", "json", "--out", "x.json"],
]


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings must not reach the user
@pytest.mark.parametrize("args", NON_FINITE_NORM)
def test_non_finite_norm_exits_4(runner, tmp_path, monkeypatch, args):
    # exit 0 printed "norm": NaN, which is not JSON, or norm=nan
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args)
    assert result.exit_code == 4
    assert result.stdout == ""
    assert re.fullmatch(r"error: the norm of state m=0 is not finite: .*\(a\^2/b = (1976\.42|2846\.05)\)\n", result.stderr)
    assert not (tmp_path / "x.json").exists()


# psi itself is not finite: near the wells at a^2/b = 2846 it overflows (inf for m = 0
# at x = 17 and 18, and for m = 1 at x = 17); exit 0 wrote inf, which is not JSON
NON_FINITE_SAMPLES = [
    (["--lambda", "-1.2", "--eta", "0.003", "--N", "1", "--format", "csv", "--samples", "16:18:1"], "17.0", "2846.05"),
]


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings must not reach the user
@pytest.mark.parametrize("args, x, ratio", NON_FINITE_SAMPLES)
def test_non_finite_samples_exit_4(runner, tmp_path, monkeypatch, args, x, ratio):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["export", *args, "--out", "x.out"])
    assert result.exit_code == 4
    assert result.stdout == ""
    assert result.stderr == (
        f"error: the sample of state m=0 at x = {x} is not finite: psi overflows a double (a^2/b = {ratio})\n"
    )
    assert not (tmp_path / "x.out").exists()


@pytest.mark.filterwarnings("error")  # numpy's overflow warnings must not reach the user
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_samples_where_the_weight_underflows_are_zero(runner, tmp_path, fmt):
    # at x = 1e80 t^N overflows and W underflows to 0, and at 1e200 t itself overflows;
    # psi is 0.0 at both, where exit 4 refused the NaN that t^N W gave
    out = tmp_path / f"x.{fmt}"
    args = ["--lambda", "0.5", "--eta", "0.03", "--N", "3", "--format", fmt, "--samples", "1e80:1e200:1e200"]
    result = runner.invoke(main, ["export", *args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    if fmt == "json":
        samples = json.loads(out.read_text())["samples"]
        assert samples["x"] == [1e80, 1e200] and samples["psi"] == [[0.0, 0.0]] * 4
    else:
        assert out.read_text().splitlines()[1:] == ["1e+80,0.0,0.0,0.0,0.0", "1e+200,0.0,0.0,0.0,0.0"]


def test_spectrum_counts_no_node_beyond_the_turning_point(runner):
    # Sturm sequences counted a sign change of the float polynomial at
    # x = 14.6, where psi = -1e-261, and printed nodes=2 for the ground state
    result = runner.invoke(main, ["spectrum", "--lambda", "0.25", "--eta", "0.001", "--N", "9"])
    assert result.exit_code == 0
    nodes = [line.split("nodes=")[1].split()[0] for line in result.stdout.splitlines()[1:]]
    assert nodes == [str(2 * m) for m in range(10)]


def test_spectrum_at_negative_a_obeys_the_node_law(runner):
    # the forward recurrence printed 9, 3 and 3 nodes for m = 6, 7 and 8
    result = runner.invoke(main, ["spectrum", "--lambda", "-1", "--eta", "0.01", "--N", "8", "--parity", "odd"])
    assert result.exit_code == 0
    nodes = [line.split("nodes=")[1].split()[0] for line in result.stdout.splitlines()[1:]]
    assert nodes == [str(2 * m + 1) for m in range(9)]


def test_spectrum_prints_the_small_top_coefficient_at_large_a2_over_b(runner):
    # a = 13.7, a^2/b ~ 10,300: the forward recurrence printed A_10 = -3.1e-13
    result = runner.invoke(main, ["spectrum", "--lambda", "1", "--eta", "1e-3", "--N", "10", "--format", "json"])
    assert result.exit_code == 0
    ground = json.loads(result.stdout)["states"][0]
    idx = QesIndex(10, 0)
    m = build_recurrence_matrix(reduce(solve_constraint(idx, lam=1.0, eta=1e-3)[0]), idx)
    top = mp_coefficients(m, 2.0 * ground["energy"])[10]
    assert top == pytest.approx(1.7827e-29, rel=1e-4, abs=0)
    assert ground["coefficients"][10] == pytest.approx(top, rel=1e-10, abs=0)


def test_table_at_a2_over_b_92400_matches_the_mpmath_eigenvectors(runner):
    # the forward recurrence overflowed here and exited 4
    result = runner.invoke(main, ["table", "--lambda", "-3", "--eta", "0.001", "--N", "20", "--format", "json"])
    assert result.exit_code == 0
    idx = QesIndex(20, 0)
    m = build_recurrence_matrix(reduce(solve_constraint(idx, lam=-3.0, eta=0.001)[0]), idx)
    for state in json.loads(result.stdout)["states"]:
        ref = mp_coefficients(m, 2.0 * state["energy"])
        assert np.max(np.abs(np.array(state["coefficients"]) / ref - 1.0)) <= 1e-13


def test_export_csv_samples_need_no_node_counts(runner, tmp_path):
    # the sample file holds no node counts or norms, so a block whose top
    # states' norms are not certain (N = 40) still exports its samples
    out = tmp_path / "s.csv"
    args = ["export", "--lambda", "0.5", "--eta", "0.03", "--N", "40", "--format", "csv", "--samples", "0:1:0.5"]
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["x"] + [f"psi_m{m}" for m in range(41)]
    assert [row[0] for row in rows[1:]] == ["0.0", "0.5", "1.0"]


@pytest.mark.parametrize(
    "text, points",
    [
        ("0:1:0.25", [0.0, 0.25, 0.5, 0.75, 1.0]),
        ("1:0:-0.5", [1.0, 0.5, 0.0]),
        ("2:2:1", [2.0]),
        ("1:0:0.5", []),
        ("0:1:-0.5", []),
    ],
)
def test_range_rule(text, points):
    assert _parse_range(text, "bad range").tolist() == points


@pytest.mark.parametrize(
    "text", ["0:1:0", "0:1:nan", "0:1:inf", "0:1:-inf", "nan:1:1", "0:inf:1", "-1e308:1e308:1e-300", "0:1", "a:b:c"]
)
def test_range_rule_rejects(text):
    with pytest.raises(ValueError, match="^bad range$"):
        _parse_range(text, "bad range")


def test_scan_empty_range_prints_header_only(runner):
    # a range that runs against its STEP has no points
    result = runner.invoke(main, ["scan", "--scan", "lambda=1:0:0.1", "--eta", "0.03", "--N", "1"])
    assert result.exit_code == 0
    assert result.stdout == "lambda,eta,omega2,E0,E1,error\n"


def test_scan_negative_step(runner):
    result = runner.invoke(main, ["scan", "--scan", "lambda=1:0.1:-0.1", "--eta", "0.03", "--N", "1"])
    assert result.exit_code == 0
    rows = list(csv.DictReader(result.stdout.splitlines()))
    assert [float(r["lambda"]) for r in rows] == (1.0 - 0.1 * np.arange(10)).tolist()
    assert all(r["error"] == "" for r in rows)


def test_export_descending_samples(runner, tmp_path):
    # a negative STEP runs downwards
    out = tmp_path / "samples.csv"
    result = runner.invoke(
        main, ["export", *PAPER_BLOCK, "--format", "csv", "--samples", "1:0:-0.1", "--out", str(out)]
    )
    assert result.exit_code == 0
    xs = [float(row[0]) for row in list(csv.reader(out.read_text().splitlines()))[1:]]
    assert xs == (1.0 - 0.1 * np.arange(11)).tolist()


@pytest.mark.parametrize(
    "lam, eta, n, parity", [("0.5", "0.03", 3, "even"), ("-0.6", "0.05", 3, "odd"), ("1.0", "0.1", 5, "even")]
)
def test_outputs_carry_library_values(runner, tmp_path, lam, eta, n, parity):
    # every number round-trips to the bits the library computes in this process
    idx = QesIndex(n, 0 if parity == "even" else 1)
    spec = spectrum(reduce(solve_constraint(idx, lam=float(lam), eta=float(eta))[0]), idx)
    expect = []
    for st in spec.states:
        f = Eigenfunction(state=st, reduced=spec.reduced)
        expect.append(
            {
                "m": st.label,
                "energy": st.energy,
                "coefficients": [float(c) for c in st.coeffs],
                "nodes": count_nodes(f).count,
                "norm": math.sqrt(norm_and_inner(f, f)),
            }
        )
    block = ["--lambda", lam, "--eta", eta, "--N", str(n), "--parity", parity]

    text = runner.invoke(main, ["spectrum", *block, "--format", "json"]).stdout
    assert [{k: s[k] for k in expect[0]} for s in json.loads(text)["states"]] == expect
    runner.invoke(main, ["export", *block, "--out", str(tmp_path / "spec.json")])
    assert (tmp_path / "spec.json").read_text() == text

    text = runner.invoke(main, ["spectrum", *block, "--format", "csv"]).stdout
    rows = [
        {
            "m": int(r["m"]),
            "energy": float(r["energy"]),
            "coefficients": [float(r[f"A{i}"]) for i in range(n + 1)],
            "nodes": int(r["nodes"]),
            "norm": float(r["norm"]),
        }
        for r in csv.DictReader(text.splitlines())
    ]
    assert rows == expect
    runner.invoke(main, ["export", *block, "--format", "csv", "--out", str(tmp_path / "spec.csv")])
    assert (tmp_path / "spec.csv").read_text() == text

    table = csv.DictReader(runner.invoke(main, ["table", *block, "--format", "csv"]).stdout.splitlines())
    assert [[float(r[f"A{i}"]) for i in range(1, n + 1)] + [float(r["E"])] for r in table] == [
        e["coefficients"][1:] + [e["energy"]] for e in expect
    ]
