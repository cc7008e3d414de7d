"""Tests of the benchmark itself: inputs, metric names, and the checker.

  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _key(item):
    if isinstance(item, workloads.CliItem):
        return (item.command, item.parity, tuple(item.argv))
    return (item.n_cap, item.parity, item.lam, item.eta, item.omega2, item.solve, item.points)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic(name):
    first = [_key(it) for it in workloads.make(name, 7).items]
    assert first == [_key(it) for it in workloads.make(name, 7).items]
    assert first != [_key(it) for it in workloads.make(name, 8).items]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _small(name, n_items=2):
    wl = workloads.make(name, 3)
    wl.items = wl.items[:n_items]
    wl.prepare()
    return wl


def test_every_printed_metric_is_declared():
    wl = _small("verify-oracle")
    values, _ = worker.end_to_end(wl, *worker.measure(wl, 0.0))
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    # run.py adds setup_s, timed across fresh interpreters
    assert set(values) | {"setup_s"} == set(e2e)
    assert all(v > 0 for v in values.values())

    import sextic_qes.cli  # noqa: F401

    tracer = Tracer()
    tally, plain, traced, counts = worker.measure_traced(wl, 0.0, tracer)
    values = worker.per_layer(wl, tracer, tally, plain, traced, counts)
    values.update(worker.cli_metrics(wl, plain))
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    assert values["oracle.verify_qes.ms_per_call"] > 0
    # oracle binds params.reduce by name; the wrapper reaches it there too
    assert counts.get("oracle.verify_qes>params.reduce", 0) > 0


def test_tracer_restores_the_package():
    import sextic_qes.oracle as oracle
    import sextic_qes.params as params

    before = (params.reduce, oracle.reduce)
    tracer = Tracer()
    tracer.run_op("op", lambda: oracle.reduce(params.CouplingParams(0.0625, 0.5, 0.03)))
    assert (params.reduce, oracle.reduce) == before
    assert tracer.calls("params.reduce") == 1


def _paper_item(parity=0):
    lam, eta, n = 0.5, 0.03, 3
    return workloads.Item(n, parity, lam, eta, checks.omega2_for(lam, eta, n, parity), solve="eta")


def test_checker_passes_a_correct_low_n_record():
    wl = _small("certify-lowN", 0)
    item = _paper_item()
    assert wl.check(item, wl.op(item)) == (set(), pytest.approx([0.0] * 4, abs=1e-12))


def _with_state(spec, m, **changes):
    states = list(spec.states)
    states[m] = dataclasses.replace(states[m], **changes)
    return dataclasses.replace(spec, states=states)


def test_checker_fails_a_perturbed_energy():
    wl = _small("certify-lowN", 0)
    item = _paper_item(parity=1)
    sols, spec, nodes, norms = wl.op(item)
    bad = _with_state(spec, 2, energy=spec.states[2].energy * (1 + 1e-6))
    failed, errs = wl.check(item, (sols, bad, nodes, norms))
    assert "energies" in failed
    assert errs[2] > checks.ENERGY_TOL


def test_checker_fails_a_perturbed_coefficient():
    wl = _small("certify-lowN", 0)
    item = _paper_item()
    sols, spec, nodes, norms = wl.op(item)
    coeffs = spec.states[1].coeffs.copy()
    coeffs[2] *= 1 + 1e-6
    failed, errs = wl.check(item, (sols, _with_state(spec, 1, coeffs=coeffs), nodes, norms))
    assert "ode_residual" in failed
    assert errs[1] > checks.RESIDUAL_TOL


def test_checker_fails_a_perturbed_oracle_level():
    wl = _small("verify-oracle", 0)
    item = _paper_item()
    item.points = 2001
    item.couplings = wl.params.CouplingParams(item.omega2, item.lam, item.eta)
    item.spec = wl.qes_core.spectrum(wl.params.reduce(item.couplings), wl.params.QesIndex(3, 0))
    report = wl.op(item)
    assert wl.check(item, report)[0] == set()
    matches = list(report.matches)
    matches[0] = dataclasses.replace(matches[0], oracle_energy=matches[0].oracle_energy + 1e-4)
    failed, _ = wl.check(item, dataclasses.replace(report, matches=matches))
    assert failed == {"oracle_match"}


def test_checker_fails_a_perturbed_cli_table():
    wl = workloads.CliPaper(1)
    wl.prepare()
    item = next(it for it in wl.items if it.command == "table" and it.parity == "even")
    code, stdout = wl.in_process_op(item)
    assert wl.check(item, (code, stdout)) == (set(), [])
    assert wl.check(item, (code, stdout.replace("0.360920", "0.360921")))[0] == {"cli_output"}


def test_reference_matches_published_table1():
    a, b = checks.weight_ab(0.5, 0.03)
    energies = checks.reference_energies(a, b, 3, 0)
    coeffs = checks.reference_coefficients(a, b, 3, 0)
    assert energies[0] == pytest.approx(0.360920, abs=1e-6)
    assert coeffs[3][1:] == pytest.approx([-8.476994, 8.344491, -1.708197], abs=1e-6)


def test_support_width_contains_the_envelope_peak():
    a, b = checks.weight_ab(-1.0, 10**-2.5)  # a < 0: the weight peaks away from 0
    x_peak = (-a / b) ** 0.5
    assert checks.support_half_width(a, b, 0) > x_peak
    assert checks.support_half_width(a, b, 200) > checks.support_half_width(a, b, 0)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_counts_sturm_warnings_instead_of_printing(recwarn):
    import numpy as np
    import sextic_qes.wavefunction as wf
    from sextic_qes import QesState, ReducedParams

    # (t - 1)^2 has a double root, so its Sturm chain degenerates
    state = QesState(energy=0.0, coeffs=np.array([1.0, -2.0, 1.0]), parity=0, expected_nodes=0, label=0)
    f = wf.Eigenfunction(state=state, reduced=ReducedParams(a=1.25, b=0.1, c=-1.0, gamma=11.0))
    tracer = Tracer()
    tracer.run_op("op", lambda: wf.count_nodes(f))  # looked up while the wrappers are bound
    assert tracer.counters["wavefunction.count_nodes.degenerate_warnings"] > 0
    assert len(recwarn) == 0
