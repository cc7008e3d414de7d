import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import sextic_qes
from sextic_qes import Eigenfunction, QesIndex, eval_psi, reduce, solve_constraint, spectrum
from sextic_qes.cli import main

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


def test_table_force_general_same_bytes(runner):
    result = runner.invoke(main, TABLE1_ARGS + ["--force-general"])
    assert result.exit_code == 0
    assert result.stdout == (GOLDEN / "table1.txt").read_text()


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
    # the whole-grid evaluation gives the bits of one eval_psi call per point
    out = tmp_path / f"samples.{fmt}"
    args = ["--lambda", "-0.6", "--eta", "0.05", "--N", "3", "--parity", "odd"]
    result = runner.invoke(
        main, ["export", *args, "--format", fmt, "--samples", "-6:6:0.01", "--out", str(out)]
    )
    assert result.exit_code == 0
    p = solve_constraint(QesIndex(3, 1), lam=-0.6, eta=0.05)[0]
    spec = spectrum(reduce(p), QesIndex(3, 1))
    xs = -6.0 + 0.01 * np.arange(1201)
    expect = [
        [float(eval_psi(Eigenfunction(state=st, reduced=spec.reduced), x)) for x in xs]
        for st in spec.states
    ]
    if fmt == "json":
        assert json.loads(out.read_text())["samples"]["psi"] == expect
    else:
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert [[float(v) for v in col] for col in list(zip(*rows))[1:]] == expect


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


def test_verify_command_n5(runner):
    result = runner.invoke(
        main, ["verify", "--lambda", "0.5", "--eta", "0.03", "--N", "5", "--force-general"]
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
    # a cold start pays for numpy and click only; scipy loads with verify alone
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
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
main(["verify", *block, "--grid-points", "4001"], standalone_mode=False)
assert "scipy.linalg" in sys.modules
"""
    src_dir = str(Path(sextic_qes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
    )
    assert result.returncode == 0, result.stderr
    assert "4/4 matched" in result.stdout
