"""The benchmark's workloads: inputs made from the seed, the timed op, its checks.

Each workload draws a fixed list of inputs (one pass) from
``random.Random(seed)``.  N and parity run over a fixed grid, so every seed
covers the same structure; the couplings are Latin-hypercube samples, so
their spread is the same for every seed and only their placement moves.
The package sees only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
GOLDEN = ROOT / "tests" / "golden"

LAM_RANGE = (-1.0, 1.5)          # includes a < 0 (lam < 0)
LOG10_ETA_RANGE = (-2.5, 0.0)    # eta log-uniform in [10^-2.5, 1]


def package_env() -> dict:
    """The environment for a fresh interpreter that imports the package from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def _strata(rng: random.Random, k: int) -> list[float]:
    """The centres of k equal strata of [0, 1), in random order."""
    order = list(range(k))
    rng.shuffle(order)
    return [(i + 0.5) / k for i in order]


def _with_couplings(rng: random.Random, cells: list[dict]) -> list["Item"]:
    """One Item per cell; the cells of each N get a (lam, log10 eta) Latin hypercube.

    Op cost depends on N and on the couplings.  Every N sees the same lam
    values and the same eta values for every seed; the seed pairs them and
    assigns them to parities.  That keeps each N's cost spread, and the latency
    quantiles, alike from seed to seed.
    """
    (l0, l1), (e0, e1) = LAM_RANGE, LOG10_ETA_RANGE
    by_n: dict[int, list[dict]] = {}
    for cell in cells:
        by_n.setdefault(cell["n_cap"], []).append(cell)
    items = []
    for group in by_n.values():
        for cell, u, v in zip(group, _strata(rng, len(group)), _strata(rng, len(group))):
            lam, eta = l0 + (l1 - l0) * u, 10.0 ** (e0 + (e1 - e0) * v)
            omega2 = checks.omega2_for(lam, eta, cell["n_cap"], cell["parity"])
            items.append(Item(lam=lam, eta=eta, omega2=omega2, **cell))
    return items


@dataclass(eq=False)
class Item:
    """One op's input.  Fields after ``solve`` are filled in by ``prepare``."""

    n_cap: int
    parity: int
    lam: float
    eta: float
    omega2: float
    solve: str = "omega2"      # certify-lowN: the coupling solve_constraint solves for
    points: int = 0            # verify-oracle: finite-difference grid points
    x: np.ndarray | None = None
    couplings: object = None
    spec: object = None


def _state_failures(spec, n_cap, parity, lam, eta) -> tuple[set, list[float]]:
    """Check state count, labels and energies against the independent reference.

    Returns (failed checks, per-state energy errors).
    """
    states = list(spec.states)
    if len(states) != n_cap + 1 or [st.label for st in states] != list(range(n_cap + 1)):
        return {"states"}, [math.inf] * (n_cap + 1)
    a, b = checks.weight_ab(lam, eta)
    ref = checks.reference_energies(a, b, n_cap, parity)
    scale = max(1.0, float(np.max(np.abs(ref))))
    errs = [abs(st.energy - e) / scale for st, e in zip(states, ref)]
    return ({"energies"} if not all(e <= checks.ENERGY_TOL for e in errs) else set()), errs


class Workload:
    name = ""
    generator: dict = {}
    calibration = "vector"  # the worker's kernel that tracks this op's speed best

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.items = self.generate(rng)
        rng.shuffle(self.items)

    def generate(self, rng: random.Random) -> list:
        raise NotImplementedError

    def prepare(self) -> None:
        from sextic_qes import oracle, params, qes_core, wavefunction

        self.params, self.qes_core = params, qes_core
        self.wavefunction, self.oracle = wavefunction, oracle

    def warmup(self) -> None:
        for item in self.items[:2]:
            self.op(item)

    def op(self, item):
        raise NotImplementedError

    def in_process_op(self, item):
        """The op as the traced run executes it (in this process)."""
        return self.op(item)

    def root(self, item) -> str:
        return "op"

    def expected_states(self, item) -> int:
        return item.n_cap + 1

    def check(self, item, out) -> tuple[set, list[float]]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CertifyLowN(Workload):
    name = "certify-lowN"
    generator = {
        "N": [0, 12], "parity": [0, 1], "solve_for": ["omega2", "eta"], "repeats": 4,
        "lambda": list(LAM_RANGE), "log10_eta": list(LOG10_ETA_RANGE), "sampling": "centred latin-hypercube per N",
    }

    def generate(self, rng):
        return _with_couplings(rng, [
            {"n_cap": n, "parity": parity, "solve": solve}
            for _ in range(self.generator["repeats"])
            for n in range(13)
            for parity in (0, 1)
            for solve in ("omega2", "eta")
        ])

    def op(self, it):
        params, wf = self.params, self.wavefunction
        idx = params.QesIndex(it.n_cap, it.parity)
        if it.solve == "omega2":
            sols = params.solve_constraint(idx, lam=it.lam, eta=it.eta)
        else:
            sols = params.solve_constraint(idx, omega_sq=it.omega2, lam=it.lam)
        spec = self.qes_core.spectrum(params.reduce(sols[0]), idx)
        nodes, norms = [], []
        for st in spec.states:
            f = wf.Eigenfunction(state=st, reduced=spec.reduced)
            nodes.append(wf.count_nodes(f).count)
            norms.append(wf.norm_and_inner(f, f))
        return sols, spec, nodes, norms

    def check(self, it, out):
        sols, spec, nodes, norms = out
        g = checks.required_gamma(it.n_cap, it.parity)
        if not sols or any(
            not abs(checks.gamma_of(p.omega_sq, p.lam, p.eta) - g) <= checks.GAMMA_TOL * g for p in sols
        ):
            return {"gamma"}, [math.inf] * (it.n_cap + 1)
        p = sols[0]
        failed, errs = _state_failures(spec, it.n_cap, it.parity, p.lam, p.eta)
        if "states" in failed:
            return failed, errs
        wf = self.wavefunction
        x = checks.support_grid(p.lam, p.eta, it.n_cap, it.parity)
        for m, st in enumerate(spec.states):
            f = wf.Eigenfunction(state=st, reduced=spec.reduced)
            psi = wf.eval_psi(f, x)
            rel = checks.relative_residual(
                x, psi, wf.ode_residual(f, st.energy, x), st.energy, p.omega_sq, p.lam, p.eta
            )
            if not rel <= checks.RESIDUAL_TOL:
                failed.add("ode_residual")
            if nodes[m] != 2 * m + it.parity:
                failed.add("nodes")
            trap = checks.trapezoid_norm_sq(x, psi)
            if not abs(norms[m] - trap) <= checks.NORM_TOL * abs(trap):
                failed.add("norm")
            errs[m] = max(errs[m], rel)
        return failed, errs


class SweepHighN(Workload):
    name = "sweep-highN"
    generator = {
        "N": [20, 100], "parity": [0, 1], "repeats": 1,
        "lambda": list(LAM_RANGE), "log10_eta": list(LOG10_ETA_RANGE), "sampling": "centred latin-hypercube per N",
        "support_points": checks.SUPPORT_POINTS, "support_tol": checks.SUPPORT_TOL,
    }

    def generate(self, rng):
        return _with_couplings(rng, [
            {"n_cap": n, "parity": parity} for n in range(20, 101) for parity in (0, 1)
        ])

    def prepare(self):
        super().prepare()
        for it in self.items:
            it.x = checks.support_grid(it.lam, it.eta, it.n_cap, it.parity)

    def op(self, it):
        params, wf = self.params, self.wavefunction
        r = params.reduce(params.CouplingParams(it.omega2, it.lam, it.eta))
        spec = self.qes_core.spectrum(r, params.QesIndex(it.n_cap, it.parity))
        psis, residuals = [], []
        for st in spec.states:
            f = wf.Eigenfunction(state=st, reduced=spec.reduced)
            psis.append(wf.eval_psi(f, it.x))
            residuals.append(wf.ode_residual(f, st.energy, it.x))
        return spec, psis, residuals

    def check(self, it, out):
        spec, psis, residuals = out
        failed, errs = _state_failures(spec, it.n_cap, it.parity, it.lam, it.eta)
        if "states" in failed:
            return failed, errs
        for m, st in enumerate(spec.states):
            rel = checks.relative_residual(
                it.x, psis[m], residuals[m], st.energy, it.omega2, it.lam, it.eta
            )
            if not rel <= checks.RESIDUAL_TOL:
                failed.add("ode_residual")
            errs[m] = max(errs[m], rel)
        return failed, errs


class VerifyOracle(Workload):
    name = "verify-oracle"
    calibration = "scalar"
    generator = {
        "N": [0, 20], "parity": [0, 1], "grid_points": [2001, 4001, 8001], "repeats": 1,
        "lambda": list(LAM_RANGE), "log10_eta": list(LOG10_ETA_RANGE), "sampling": "centred latin-hypercube per N",
    }

    def generate(self, rng):
        return _with_couplings(rng, [
            {"n_cap": n, "parity": parity, "points": points}
            for _ in range(self.generator["repeats"])
            for n in range(21)
            for parity in (0, 1)
            for points in self.generator["grid_points"]
        ])

    def prepare(self):
        super().prepare()
        params = self.params
        for it in self.items:
            it.couplings = params.CouplingParams(it.omega2, it.lam, it.eta)
            it.spec = self.qes_core.spectrum(
                params.reduce(it.couplings), params.QesIndex(it.n_cap, it.parity)
            )

    def op(self, it):
        # as `sextic-qes verify --grid-points P`: default box, P points
        oracle = self.oracle
        if it.points == 2001:
            return oracle.verify_qes(it.spec, it.couplings)
        e_max = max(st.energy for st in it.spec.states)
        return oracle.verify_qes(it.spec, it.couplings, oracle.default_grid(it.couplings, e_max, points=it.points))

    def check(self, it, report):
        n = it.n_cap + 1
        if len(report.matches) != n:
            return {"states"}, [math.inf] * n
        a, b = checks.weight_ab(it.lam, it.eta)
        ref = checks.reference_energies(a, b, it.n_cap, it.parity)
        failed, errs = set(), []
        for match, st, e in zip(report.matches, it.spec.states, ref):
            err = abs(match.oracle_energy - e)
            if match.qes_energy != st.energy:
                failed.add("states")
            if not (err < checks.MATCH_TOL and match.converged):
                failed.add("oracle_match")
            errs.append(err / max(1.0, abs(e)))
        return failed, errs


PAPER_LAM, PAPER_ETA, PAPER_N = "0.5", "0.03", "3"
PAPER_OMEGA2 = {"even": "0.0625", "odd": "-0.1375"}  # the constraint's values (README)


def cli_commands() -> list[tuple[str, str, list[str]]]:
    """The README commands at the paper couplings, both parities: (name, parity, argv)."""
    cmds = []
    for parity in ("even", "odd"):
        block = ["--lambda", PAPER_LAM, "--eta", PAPER_ETA, "--N", PAPER_N, "--parity", parity]
        export_out = str(SCRATCH / f"export-{parity}.csv")
        cmds += [
            ("table", parity, ["table", *block]),
            ("spectrum", parity, ["spectrum", *block, "--format", "json"]),
            ("constraint", parity,
             ["constraint", "--omega2", PAPER_OMEGA2[parity], "--lambda", PAPER_LAM, "--N", PAPER_N,
              "--parity", parity]),
            ("export", parity,
             ["export", *block, "--format", "csv", "--samples", "-6:6:0.01", "--out", export_out]),
            ("verify", parity, ["verify", *block, "--grid-points", "4001"]),
            ("scan", parity,
             ["scan", "--scan", "lambda=0.1:1.0:0.1", "--eta", PAPER_ETA, "--N", "1", "--parity", parity]),
        ]
    return cmds


def run_cli_in_process(main, argv: list[str]) -> tuple[int, str]:
    """main(argv, standalone_mode=False) with stdout captured; (exit code, stdout)."""
    out = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            main.main(argv, prog_name="sextic-qes", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # click usage errors carry exit_code
            code = getattr(exc, "exit_code", 1)
    return code, out.getvalue()


@dataclass(eq=False)
class CliItem:
    command: str
    parity: str
    argv: list[str]
    reference: str = ""
    reference_file: str | None = None


class CliPaper(Workload):
    name = "cli-paper"
    generator = {
        "commands": ["table", "spectrum", "constraint", "export", "verify", "scan"],
        "parity": ["even", "odd"], "lambda": 0.5, "eta": 0.03, "N": 3, "repeats": 2,
    }

    def generate(self, rng):
        # two repeats, so one pass has ten samples beyond its median
        return [
            CliItem(name, parity, argv)
            for _ in range(self.generator["repeats"])
            for name, parity, argv in cli_commands()
        ]

    def prepare(self):
        super().prepare()
        import sextic_qes.cli as cli

        self.cli = cli
        self.env = package_env()
        SCRATCH.mkdir(exist_ok=True)
        self.golden = {
            "even": (GOLDEN / "table1.txt").read_text(),
            "odd": (GOLDEN / "table2.txt").read_text(),
        }
        a, b = checks.weight_ab(float(PAPER_LAM), float(PAPER_ETA))
        n = int(PAPER_N)
        self.ref_states = {
            parity: (checks.reference_energies(a, b, n, eps), checks.reference_coefficients(a, b, n, eps))
            for parity, eps in (("even", 0), ("odd", 1))
        }
        done: dict[tuple, CliItem] = {}
        for it in self.items:
            ref = done.setdefault(tuple(it.argv), it)
            if ref is not it:
                it.reference, it.reference_file = ref.reference, ref.reference_file
                continue
            argv = list(it.argv)
            if it.command == "export":
                ref_out = SCRATCH / f"reference-export-{it.parity}.csv"
                argv[-1] = str(ref_out)
            code, it.reference = run_cli_in_process(cli.main, argv)
            if code != 0:
                raise RuntimeError(f"in-process reference failed ({code}): {' '.join(argv)}")
            if it.command == "export":
                it.reference_file = ref_out.read_text()

    def warmup(self):
        self.op(self.items[0])

    def op(self, it):
        proc = subprocess.run(
            [sys.executable, "-m", "sextic_qes.cli", *it.argv],
            capture_output=True, text=True, cwd=ROOT, env=self.env, timeout=120,
        )
        return proc.returncode, proc.stdout

    def in_process_op(self, it):
        return run_cli_in_process(self.cli.main, it.argv)

    def root(self, it):
        return f"cli.{it.command}"

    def expected_states(self, it):
        return int(PAPER_N) + 1 if it.command == "spectrum" else 0

    def check(self, it, out):
        code, stdout = out
        failed, errs = set(), []
        if code != 0 or stdout != it.reference:
            failed.add("cli_output")
        if it.command == "table" and stdout != self.golden[it.parity]:
            failed.add("cli_output")
        if it.command == "export":
            path = Path(it.argv[-1])
            if not path.is_file() or path.read_text() != it.reference_file:
                failed.add("cli_output")
            path.unlink(missing_ok=True)
        if it.command == "constraint":
            eps = 0 if it.parity == "even" else 1
            try:
                eta = float(stdout.split()[0].removeprefix("eta="))
                g = checks.gamma_of(float(PAPER_OMEGA2[it.parity]), float(PAPER_LAM), eta)
            except (ValueError, IndexError, ZeroDivisionError):
                g = math.nan
            target = checks.required_gamma(int(PAPER_N), eps)
            if not abs(g - target) <= checks.GAMMA_TOL * target:
                failed.add("gamma")
        if it.command == "spectrum":
            errs = self._spectrum_errors(it.parity, stdout)
            if not all(e <= checks.ENERGY_TOL for e in errs):
                failed.add("energies")
        return failed, errs

    def _spectrum_errors(self, parity: str, stdout: str) -> list[float]:
        """Per state: worst of the energy and coefficient errors against the reference."""
        ref_e, ref_c = self.ref_states[parity]
        try:
            states = json.loads(stdout)["states"]
            energies = [float(s["energy"]) for s in states]
            coeffs = [np.asarray(s["coefficients"], dtype=float) for s in states]
        except (ValueError, KeyError, TypeError):
            return [math.inf] * len(ref_e)
        if len(energies) != len(ref_e) or any(c.shape != rc.shape for c, rc in zip(coeffs, ref_c)):
            return [math.inf] * len(ref_e)
        scale = max(1.0, float(np.max(np.abs(ref_e))))
        return [
            max(abs(e - re) / scale, float(np.max(np.abs(c - rc)) / np.max(np.abs(rc))))
            for e, re, c, rc in zip(energies, ref_e, coeffs, ref_c)
        ]

    def peak_rss_mb(self):
        # the largest CLI process this worker started
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (CliPaper, CertifyLowN, SweepHighN, VerifyOracle)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
