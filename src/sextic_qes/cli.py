"""Command-line interface: tables, spectra, constraint solving, export, verify, scan.

Exit codes: 0 success, 2 usage error (click), 3 constraint violation,
4 solver failure, 5 verification mismatch, 6 I/O error.

All data outputs are deterministic: no timestamps, fixed column order,
locale-independent formatting.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click
import numpy as np

from . import oracle as oracle_mod
from . import params as params_mod
from . import qes_core, wavefunction
from .errors import (
    ConstraintViolationError,
    NoSolutionError,
    QesError,
    SolverError,
    VerificationError,
)
from .params import CouplingParams, QesIndex

EXIT_CONSTRAINT = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5
EXIT_IO = 6

_PARITY = {"even": 0, "odd": 1}


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _coupling_options(f):
    f = click.option("--omega2", type=float, default=None, help="Quadratic coupling w^2.")(f)
    f = click.option("--lambda", "lam", type=float, default=None, help="Quartic coupling.")(f)
    f = click.option("--eta", type=float, default=None, help="Sextic coupling (> 0).")(f)
    f = click.option("--N", "n_cap", type=int, required=True, help="Polynomial degree index N.")(f)
    f = click.option(
        "--parity", type=click.Choice(["even", "odd"]), default="even", show_default=True
    )(f)
    return f


def _resolve_couplings(
    omega2, lam, eta, idx: QesIndex, enforce: bool = True
) -> tuple[CouplingParams, bool]:
    """Return couplings satisfying the constraint; solve for the missing one.

    Only the linear omega2 case is auto-solved; solving for lam or eta is the
    business of the `constraint` command.  Returns (couplings, was_solved).
    """
    given = [v is not None for v in (omega2, lam, eta)]
    if given == [False, True, True]:
        sols = params_mod.solve_constraint(idx, omega_sq=None, lam=lam, eta=eta)
        return sols[0], True
    if not all(given):
        _fail(2, "need --lambda and --eta (with --omega2 optional; it is auto-solved)")
    p = CouplingParams(omega2, lam, eta)
    if enforce:
        res = params_mod.gamma_residual(p, idx)
        if abs(res) > 1e-8 * max(1.0, params_mod.constraint_gamma(idx)):
            _fail(
                EXIT_CONSTRAINT,
                f"couplings violate the constraint: gamma={params_mod.reduce(p).gamma:.10g}, "
                f"required {params_mod.constraint_gamma(idx):g} (N={idx.n_cap}, parity={idx.parity})",
            )
    return p, False


def _spectrum_for(p: CouplingParams, idx: QesIndex, force_general: bool) -> qes_core.QesSpectrum:
    r = params_mod.reduce(p)
    try:
        return qes_core.spectrum(r, idx, force_general=force_general)
    except SolverError as exc:
        _fail(EXIT_SOLVER, str(exc))


def _format_table(spec: qes_core.QesSpectrum) -> str:
    """Fixed 6-decimal table in the layout of the published tables."""
    n = spec.index.n_cap
    headers = ["m"] + [f"A{i}" for i in range(1, n + 1)] + ["E"]
    lines = [("  ".join(f"{h:>11}" for h in headers)).rstrip()]
    for st in spec.states:
        cells = [f"{st.label:>11d}"]
        for i in range(1, n + 1):
            cells.append(f"{st.coeffs[i]:>+11.6f}")
        cells.append(f"{st.energy:>11.6f}")
        lines.append("  ".join(cells))
    return "\n".join(lines) + "\n"


def _state_records(spec: qes_core.QesSpectrum, with_nodes: bool = True) -> list[dict]:
    records = []
    for st in spec.states:
        rec = {
            "m": st.label,
            "parity": st.parity,
            "energy": st.energy,
            "coefficients": [float(c) for c in st.coeffs],
        }
        if with_nodes:
            f = wavefunction.Eigenfunction(state=st, reduced=spec.reduced)
            rec["nodes"] = wavefunction.count_nodes(f).count
            rec["norm"] = float(np.sqrt(wavefunction.norm_and_inner(f, f)))
        records.append(rec)
    return records


def _config_dict(p: CouplingParams, idx: QesIndex) -> dict:
    return {
        "omega2": p.omega_sq,
        "lambda": p.lam,
        "eta": p.eta,
        "N": idx.n_cap,
        "parity": idx.parity,
    }


def _constraint_dict(p: CouplingParams, idx: QesIndex) -> dict:
    r = params_mod.reduce(p)
    return {
        "gamma": params_mod.constraint_gamma(idx),
        "a": r.a,
        "b": r.b,
        "c": r.c,
    }


def _write_output(text: str, out: str | None):
    try:
        if out:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        else:
            click.echo(text, nl=False)
    except OSError as exc:
        _fail(EXIT_IO, str(exc))


@click.group()
@click.version_option(version="0.1.0", prog_name="sextic-qes")
def main():
    """Exact spectra of the sextic doubly anharmonic oscillator."""


@main.command("table")
@_coupling_options
@click.option("--force-general", is_flag=True, help="Use the tridiagonal solver even for N <= 3.")
@click.option(
    "--paper-caption-omega",
    is_flag=True,
    help="Accept an omega2 that violates the constraint (coefficients depend only on a, b).",
)
@click.option("--format", "fmt", type=click.Choice(["human", "csv", "json"]), default="human", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_table(omega2, lam, eta, n_cap, parity, force_general, paper_caption_omega, fmt, out):
    """Print the coefficient/eigenvalue table for one (N, parity) block."""
    idx = QesIndex(n_cap=n_cap, parity=_PARITY[parity])
    p, solved = _resolve_couplings(omega2, lam, eta, idx, enforce=not paper_caption_omega)
    if paper_caption_omega:
        click.echo(
            "note: constraint not enforced; table uses the closure values of (c, gamma)",
            err=True,
        )
    elif solved:
        click.echo(f"note: omega2 solved from the constraint: {p.omega_sq:.10g}", err=True)
    spec = _spectrum_for(p, idx, force_general)

    if fmt == "human":
        text = _format_table(spec)
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["m"] + [f"A{i}" for i in range(1, n_cap + 1)] + ["E"])
        for st in spec.states:
            w.writerow([st.label] + [repr(float(c)) for c in st.coeffs[1:]] + [repr(st.energy)])
        text = buf.getvalue()
    else:
        text = json.dumps(
            {
                "config": _config_dict(p, idx),
                "constraint": _constraint_dict(p, idx),
                "states": _state_records(spec, with_nodes=False),
            },
            indent=2,
        ) + "\n"
    _write_output(text, out)


@main.command("spectrum")
@_coupling_options
@click.option("--force-general", is_flag=True)
@click.option("--format", "fmt", type=click.Choice(["human", "csv", "json"]), default="human", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_spectrum(omega2, lam, eta, n_cap, parity, force_general, fmt, out):
    """Print energies, coefficients, node counts and norms at full precision."""
    idx = QesIndex(n_cap=n_cap, parity=_PARITY[parity])
    p, _ = _resolve_couplings(omega2, lam, eta, idx)
    spec = _spectrum_for(p, idx, force_general)
    records = _state_records(spec)

    if fmt == "human":
        lines = [f"omega2={p.omega_sq:.10g} lambda={p.lam:.10g} eta={p.eta:.10g}"]
        for rec in records:
            coeffs = ", ".join(f"{c:.12g}" for c in rec["coefficients"])
            lines.append(
                f"m={rec['m']}  E={rec['energy']:.12g}  nodes={rec['nodes']}  "
                f"norm={rec['norm']:.12g}  A=[{coeffs}]"
            )
        text = "\n".join(lines) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["m", "parity", "energy", "nodes", "norm"] + [f"A{i}" for i in range(n_cap + 1)])
        for rec in records:
            w.writerow(
                [rec["m"], rec["parity"], repr(rec["energy"]), rec["nodes"], repr(rec["norm"])]
                + [repr(c) for c in rec["coefficients"]]
            )
        text = buf.getvalue()
    else:
        text = json.dumps(
            {
                "config": _config_dict(p, idx),
                "constraint": _constraint_dict(p, idx),
                "states": records,
            },
            indent=2,
        ) + "\n"
    _write_output(text, out)


@main.command("constraint")
@click.option("--omega2", type=float, default=None)
@click.option("--lambda", "lam", type=float, default=None)
@click.option("--eta", type=float, default=None)
@click.option("--N", "n_cap", type=int, required=True)
@click.option("--parity", type=click.Choice(["even", "odd"]), default="even", show_default=True)
def cmd_constraint(omega2, lam, eta, n_cap, parity):
    """Solve the coupling constraint for the one omitted coupling."""
    idx = QesIndex(n_cap=n_cap, parity=_PARITY[parity])
    given = sum(v is not None for v in (omega2, lam, eta))
    if given != 2:
        _fail(2, "provide exactly two of --omega2, --lambda, --eta")
    try:
        sols = params_mod.solve_constraint(idx, omega_sq=omega2, lam=lam, eta=eta)
    except NoSolutionError as exc:
        _fail(EXIT_SOLVER, str(exc))
    name = "omega2" if omega2 is None else ("lambda" if lam is None else "eta")
    for p in sols:
        r = params_mod.reduce(p)
        value = {"omega2": p.omega_sq, "lambda": p.lam, "eta": p.eta}[name]
        click.echo(
            f"{name}={value:.10g}  gamma={params_mod.constraint_gamma(idx):g}  "
            f"a={r.a:.10g}  b={r.b:.10g}  c={r.c:.10g}"
        )


def _parse_samples(spec: str) -> np.ndarray:
    try:
        lo, hi, step = (float(v) for v in spec.split(":"))
    except ValueError:
        _fail(2, f"bad sample spec {spec!r}, expected MIN:MAX:STEP")
    if step <= 0 or hi < lo:
        return np.empty(0)
    n = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(n)


@main.command("export")
@_coupling_options
@click.option("--force-general", is_flag=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json", show_default=True)
@click.option("--samples", default=None, help="Wavefunction sample grid MIN:MAX:STEP.")
@click.option("--out", type=click.Path(), required=True)
def cmd_export(omega2, lam, eta, n_cap, parity, force_general, fmt, samples, out):
    """Write the spectrum (and optional wavefunction samples) to a file."""
    idx = QesIndex(n_cap=n_cap, parity=_PARITY[parity])
    p, _ = _resolve_couplings(omega2, lam, eta, idx)
    spec = _spectrum_for(p, idx, force_general)
    records = _state_records(spec)
    xs = _parse_samples(samples) if samples is not None else None
    funcs = [wavefunction.Eigenfunction(state=st, reduced=spec.reduced) for st in spec.states]

    if fmt == "json":
        doc = {
            "config": _config_dict(p, idx),
            "constraint": _constraint_dict(p, idx),
            "states": records,
        }
        if xs is not None:
            doc["samples"] = {
                "x": [float(v) for v in xs],
                "psi": [wavefunction.eval_psi(f, xs).tolist() for f in funcs],
            }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        if xs is not None:
            w.writerow(["x"] + [f"psi_m{st.label}" for st in spec.states])
            psi = [wavefunction.eval_psi(f, xs).tolist() for f in funcs]
            for x, row in zip(xs.tolist(), zip(*psi)):
                w.writerow([repr(x)] + [repr(v) for v in row])
        else:
            w.writerow(
                ["m", "parity", "energy", "nodes", "norm"] + [f"A{i}" for i in range(n_cap + 1)]
            )
            for rec in records:
                w.writerow(
                    [rec["m"], rec["parity"], repr(rec["energy"]), rec["nodes"], repr(rec["norm"])]
                    + [repr(c) for c in rec["coefficients"]]
                )
        text = buf.getvalue()
    _write_output(text, out)


@main.command("verify")
@_coupling_options
@click.option("--force-general", is_flag=True)
@click.option("--grid-points", type=int, default=2001, show_default=True)
@click.option("--half-width", type=float, default=None, help="Override the automatic box size.")
def cmd_verify(omega2, lam, eta, n_cap, parity, force_general, grid_points, half_width):
    """Check every exact level against the finite-difference spectrum."""
    idx = QesIndex(n_cap=n_cap, parity=_PARITY[parity])
    p, _ = _resolve_couplings(omega2, lam, eta, idx)
    spec = _spectrum_for(p, idx, force_general)
    grid = None
    if half_width is not None:
        grid = oracle_mod.GridSpec(half_width=half_width, points=grid_points)
    elif grid_points != 2001:
        e_max = max(st.energy for st in spec.states)
        grid = oracle_mod.default_grid(p, e_max, points=grid_points)
    try:
        report = oracle_mod.verify_qes(spec, p, grid)
    except ConstraintViolationError as exc:
        _fail(EXIT_CONSTRAINT, str(exc))
    except VerificationError as exc:
        _fail(EXIT_VERIFY, str(exc))
    n_ok = sum(m.converged for m in report.matches)
    click.echo(f"{n_ok}/{len(report.matches)} matched, max err {report.max_abs_error:.3e}")
    for m in report.matches:
        flag = "ok" if m.converged else "MISMATCH"
        click.echo(
            f"  E_exact={m.qes_energy:.10f}  E_numeric={m.oracle_energy:.10f}  "
            f"err={m.abs_error:.3e}  {flag}"
        )
    if not report.all_matched:
        sys.exit(EXIT_VERIFY)


def _parse_scan(spec: str) -> tuple[str, np.ndarray]:
    try:
        name, rng = spec.split("=")
        lo, hi, step = (float(v) for v in rng.split(":"))
    except ValueError:
        _fail(2, f"bad scan spec {spec!r}, expected NAME=START:STOP:STEP")
    if name not in ("lambda", "eta", "omega2"):
        _fail(2, f"unknown scan coupling {name!r}")
    n = int(round((hi - lo) / step)) + 1
    return name, lo + step * np.arange(max(n, 1))


@main.command("scan")
@click.option("--scan", "scans", multiple=True, required=True, help="NAME=START:STOP:STEP (1 or 2).")
@click.option("--lambda", "lam", type=float, default=None)
@click.option("--eta", type=float, default=None)
@click.option("--N", "n_cap", type=int, required=True)
@click.option("--parity", type=click.Choice(["even", "odd"]), default="even", show_default=True)
@click.option("--force-general", is_flag=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_scan(scans, lam, eta, n_cap, parity, force_general, out):
    """Sweep one or two couplings; omega2 is constraint-solved at each point.

    Per-point failures are recorded in the error column and the scan continues.
    """
    if len(scans) > 2:
        _fail(2, "at most two scan ranges")
    idx = QesIndex(n_cap=n_cap, parity=_PARITY[parity])
    axes = [_parse_scan(s) for s in scans]
    fixed = {"lambda": lam, "eta": eta}
    for name, _ in axes:
        if name == "omega2":
            _fail(2, "omega2 is constraint-solved; scan over lambda and/or eta")
        fixed.pop(name, None)
    if any(v is None for v in fixed.values()):
        missing = [k for k, v in fixed.items() if v is None]
        _fail(2, f"missing fixed coupling(s): {', '.join(missing)}")

    grids = [axis[1] for axis in axes]
    names = [axis[0] for axis in axes]
    mesh = [(v,) for v in grids[0]] if len(grids) == 1 else [
        (u, v) for u in grids[0] for v in grids[1]
    ]

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(
        ["lambda", "eta", "omega2"] + [f"E{i}" for i in range(n_cap + 1)] + ["error"]
    )
    for point in mesh:
        vals = dict(fixed)
        for name, v in zip(names, point):
            vals[name] = float(v)
        row_lam, row_eta = vals["lambda"], vals["eta"]
        try:
            p = params_mod.solve_constraint(idx, omega_sq=None, lam=row_lam, eta=row_eta)[0]
            spec = qes_core.spectrum(params_mod.reduce(p), idx, force_general=force_general)
            energies = [repr(float(st.energy)) for st in spec.states]
            w.writerow([repr(row_lam), repr(row_eta), repr(p.omega_sq)] + energies + [""])
        except QesError as exc:
            w.writerow([repr(row_lam), repr(row_eta), ""] + [""] * (n_cap + 1) + [str(exc)])
    _write_output(buf.getvalue(), out)


if __name__ == "__main__":
    main()
