"""Command-line interface: tables, spectra, constraint solving, export, verify, scan.

Exit codes: 0 success, 2 usage error, 3 constraint violation, 4 solver
failure, 5 verification mismatch, 6 I/O error.  `_EXIT_CODES` maps the
package's errors to them in one place.

All data outputs are deterministic: no timestamps, fixed column order,
locale-independent formatting.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys

import click
import numpy as np

from . import oracle as oracle_mod
from . import params as params_mod
from . import qes_core, wavefunction
from .errors import ConstraintViolationError, InvalidCouplingError, QesError, SolverError, VerificationError
from .params import CouplingParams, QesIndex

# Exit code of each documented failure; the first class that matches wins.
_EXIT_CODES = (
    (InvalidCouplingError, 2),
    (ValueError, 2),  # bad arguments: N, grid, range, missing couplings
    (ConstraintViolationError, 3),
    (VerificationError, 5),
    (QesError, 4),  # solver failures
    (OSError, 6),
)
EXIT_VERIFY = 5

_EPS = {"even": 0, "odd": 1}

_omega2 = click.option("--omega2", type=float, default=None, help="Quadratic coupling w^2.")
_lam = click.option("--lambda", "lam", type=float, default=None, help="Quartic coupling.")
_eta = click.option("--eta", type=float, default=None, help="Sextic coupling (> 0).")
_n_cap = click.option("--N", "n_cap", type=click.IntRange(min=0), required=True, help="Polynomial degree index N.")
_parity = click.option("--parity", type=click.Choice(["even", "odd"]), default="even", show_default=True)


def _format(choices: list[str], default: str):
    return click.option("--format", "fmt", type=click.Choice(choices), default=default, show_default=True)


def _out(required: bool = False):
    return click.option("--out", type=click.Path(), required=required)


def _options(*options):
    """Apply click options in the order given, which is their order in --help."""

    def apply(f):
        for option in reversed(options):
            f = option(f)
        return f

    return apply


_BLOCK = (_omega2, _lam, _eta, _n_cap, _parity)


def _solve_block(
    omega2, lam, eta, n_cap: int, parity: str, enforce: bool = True
) -> tuple[CouplingParams, qes_core.QesSpectrum, bool]:
    """Couplings satisfying the constraint (unless not enforce), and their spectrum.

    Only the linear omega2 case is auto-solved; solving for lam or eta is the
    business of the `constraint` command.  Returns (couplings, spectrum, was_solved).
    """
    idx = QesIndex(n_cap=n_cap, parity=_EPS[parity])
    given = [v is not None for v in (omega2, lam, eta)]
    solved = given == [False, True, True]
    if solved:
        p = params_mod.solve_constraint(idx, omega_sq=None, lam=lam, eta=eta)[0]
    elif not all(given):
        raise ValueError("need --lambda and --eta (with --omega2 optional; it is auto-solved)")
    else:
        p = CouplingParams(omega2, lam, eta)
    r = params_mod.reduce(p)
    if enforce and not solved:
        params_mod.check_constraint(r, idx)
    return p, qes_core.spectrum(r, idx), solved


def _format_table(spec: qes_core.QesSpectrum) -> str:
    """Fixed 6-decimal table in the layout of the published tables."""
    n = spec.index.n_cap
    headers = ["m"] + [f"A{i}" for i in range(1, n + 1)] + ["E"]
    lines = [("  ".join(f"{h:>11}" for h in headers)).rstrip()]
    for st in spec.states:
        cells = (f"{c:>+11.6f}" for c in st.coeffs[1:])
        lines.append("  ".join([f"{st.label:>11d}", *cells, f"{st.energy:>11.6f}"]))
    return "\n".join(lines) + "\n"


def _state_records(spec: qes_core.QesSpectrum, with_nodes: bool = True) -> list[dict]:
    records = []
    for st in spec.states:
        rec = {"m": st.label, "parity": st.parity, "energy": st.energy}
        rec["coefficients"] = [float(c) for c in st.coeffs]
        if with_nodes:
            f = wavefunction.Eigenfunction(state=st, reduced=spec.reduced)
            rec["nodes"] = wavefunction.count_nodes(f).count
            rec["norm"] = float(np.sqrt(wavefunction._finite_norm_sq(f)))  # SolverError if not finite
        records.append(rec)
    return records


def _json(p: CouplingParams, spec: qes_core.QesSpectrum, records: list[dict], **extra) -> str:
    """The JSON document of table, spectrum and export (README, "JSON schema")."""
    idx, r = spec.index, params_mod.reduce(p)
    doc = {
        "config": {"omega2": p.omega_sq, "lambda": p.lam, "eta": p.eta, "N": idx.n_cap, "parity": idx.parity},
        "constraint": {"gamma": params_mod.constraint_gamma(idx), "a": r.a, "b": r.b, "c": r.c},
        "states": records,
        **extra,
    }
    return json.dumps(doc, indent=2) + "\n"


def _csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _states_csv(records: list[dict], n_cap: int) -> str:
    return _csv(
        ["m", "parity", "energy", "nodes", "norm"] + [f"A{i}" for i in range(n_cap + 1)],
        (
            [rec["m"], rec["parity"], repr(rec["energy"]), rec["nodes"], repr(rec["norm"])]
            + [repr(c) for c in rec["coefficients"]]
            for rec in records
        ),
    )


def _psi_samples(spec: qes_core.QesSpectrum, xs: np.ndarray) -> list[list[float]]:
    """psi of each state at xs, or SolverError naming the first state and x where it is
    not finite: psi overflows a double near the wells once a^2/b is large, or at huge |x|."""
    r, rows = spec.reduced, []
    for st in spec.states:
        psi = wavefunction.eval_psi(wavefunction.Eigenfunction(state=st, reduced=r), xs)  # silent where not finite
        (bad,) = (~np.isfinite(psi)).nonzero()
        if bad.size:
            raise SolverError(
                f"the sample of state m={st.label} at x = {float(xs[bad[0]])!r} is not finite: "
                f"psi overflows a double (a^2/b = {r.a * r.a / r.b:.6g})"
            )
        rows.append(psi.tolist())
    return rows


def _parse_range(text: str, error: str) -> np.ndarray:
    """The points MIN + k*STEP, k = 0 .. round((MAX - MIN)/STEP), of MIN:MAX:STEP.

    A negative count gives no points, so the sign of STEP sets the direction.
    STEP 0 and non-finite values raise ValueError(error).
    """
    try:
        lo, hi, step = (float(v) for v in text.split(":"))
        if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step) and step != 0.0):
            raise ValueError
        n = int(round((hi - lo) / step)) + 1
    except (ValueError, OverflowError):
        raise ValueError(error) from None
    return lo + step * np.arange(max(n, 0))


def _write_output(text: str, out: str | None):
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


class _Cli(click.Group):
    """Turns the errors in _EXIT_CODES into one `error:` line and their exit code."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except tuple(cls for cls, _ in _EXIT_CODES) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for cls, code in _EXIT_CODES if isinstance(exc, cls)))


@click.group(cls=_Cli)
@click.version_option(version="0.1.0", prog_name="sextic-qes")
def main():
    """Exact spectra of the sextic doubly anharmonic oscillator."""


@main.command("table")
@_options(*_BLOCK)
@click.option(
    "--paper-caption-omega",
    is_flag=True,
    help="Accept an omega2 that violates the constraint (coefficients depend only on a, b).",
)
@_options(_format(["human", "csv", "json"], "human"), _out())
def cmd_table(omega2, lam, eta, n_cap, parity, paper_caption_omega, fmt, out):
    """Print the coefficient/eigenvalue table for one (N, parity) block."""
    p, spec, solved = _solve_block(omega2, lam, eta, n_cap, parity, not paper_caption_omega)
    if paper_caption_omega:
        click.echo("note: constraint not enforced; table uses the closure values of (c, gamma)", err=True)
    elif solved:
        click.echo(f"note: omega2 solved from the constraint: {p.omega_sq:.10g}", err=True)

    if fmt == "human":
        text = _format_table(spec)
    elif fmt == "csv":
        text = _csv(
            ["m"] + [f"A{i}" for i in range(1, n_cap + 1)] + ["E"],
            ([st.label] + [repr(float(c)) for c in st.coeffs[1:]] + [repr(st.energy)] for st in spec.states),
        )
    else:
        text = _json(p, spec, _state_records(spec, with_nodes=False))
    _write_output(text, out)


@main.command("spectrum")
@_options(*_BLOCK, _format(["human", "csv", "json"], "human"), _out())
def cmd_spectrum(omega2, lam, eta, n_cap, parity, fmt, out):
    """Print energies, coefficients, node counts and norms at full precision."""
    p, spec, _ = _solve_block(omega2, lam, eta, n_cap, parity)
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
        text = _states_csv(records, n_cap)
    else:
        text = _json(p, spec, records)
    _write_output(text, out)


@main.command("constraint")
@_options(_omega2, _lam, _eta, _n_cap, _parity)
def cmd_constraint(omega2, lam, eta, n_cap, parity):
    """Solve the coupling constraint for the one omitted coupling."""
    idx = QesIndex(n_cap=n_cap, parity=_EPS[parity])
    if sum(v is not None for v in (omega2, lam, eta)) != 2:
        raise ValueError("provide exactly two of --omega2, --lambda, --eta")
    sols = params_mod.solve_constraint(idx, omega_sq=omega2, lam=lam, eta=eta)
    name = "omega2" if omega2 is None else ("lambda" if lam is None else "eta")
    for p in sols:
        r = params_mod.reduce(p)
        value = {"omega2": p.omega_sq, "lambda": p.lam, "eta": p.eta}[name]
        click.echo(
            f"{name}={value:.10g}  gamma={params_mod.constraint_gamma(idx):g}  "
            f"a={r.a:.10g}  b={r.b:.10g}  c={r.c:.10g}"
        )


@main.command("export")
@_options(*_BLOCK, _format(["csv", "json"], "json"))
@click.option("--samples", default=None, help="Wavefunction sample grid MIN:MAX:STEP.")
@_out(required=True)
def cmd_export(omega2, lam, eta, n_cap, parity, fmt, samples, out):
    """Write the spectrum (and optional wavefunction samples) to a file."""
    p, spec, _ = _solve_block(omega2, lam, eta, n_cap, parity)
    records = _state_records(spec, with_nodes=samples is None or fmt == "json")  # CSV samples omit them
    if samples is None:
        _write_output(_json(p, spec, records) if fmt == "json" else _states_csv(records, n_cap), out)
        return
    xs = _parse_range(samples, f"bad sample spec {samples!r}, expected MIN:MAX:STEP")
    psi = _psi_samples(spec, xs)
    if fmt == "json":
        text = _json(p, spec, records, samples={"x": xs.tolist(), "psi": psi})
    else:
        text = _csv(
            ["x"] + [f"psi_m{st.label}" for st in spec.states],
            ([repr(x)] + [repr(v) for v in row] for x, row in zip(xs.tolist(), zip(*psi))),
        )
    _write_output(text, out)


@main.command("verify")
@_options(*_BLOCK)
@click.option(
    "--grid-points", type=int, default=2001, show_default=True,
    help="Most points on [-L, L] the oracle may use.",
)
@click.option("--half-width", type=float, default=None, help="Override the automatic box size.")
def cmd_verify(omega2, lam, eta, n_cap, parity, grid_points, half_width):
    """Check every exact level against the sinc-collocation spectrum."""
    p, spec, _ = _solve_block(omega2, lam, eta, n_cap, parity)
    if half_width is not None:
        grid = oracle_mod.GridSpec(half_width=half_width, points=grid_points)
    else:
        e_max = max(st.energy for st in spec.states)
        grid = oracle_mod.default_grid(p, e_max, points=grid_points)
    report = oracle_mod.verify_qes(spec, p, grid)
    n_ok = sum(m.converged for m in report.matches)
    click.echo(f"{n_ok}/{len(report.matches)} matched, max err {report.max_abs_error:.3e}")
    click.echo(
        f"  box L={report.half_width:.6f}, {report.points} points, "
        f"max convergence estimate {max(report.convergence_estimate):.3e}"
    )
    for m in report.matches:
        flag = "ok" if m.converged else "MISMATCH"
        click.echo(
            f"  E_exact={m.qes_energy:.10f}  E_numeric={m.oracle_energy:.10f}  "
            f"err={m.abs_error:.3e}  {flag}"
        )
    if not report.all_matched:
        sys.exit(EXIT_VERIFY)  # the report above names the mismatched levels


def _parse_scan(spec: str) -> tuple[str, np.ndarray]:
    name, _, rng = spec.partition("=")
    grid = _parse_range(rng, f"bad scan spec {spec!r}, expected NAME=START:STOP:STEP")
    if name == "omega2":
        raise ValueError("omega2 is constraint-solved; scan over lambda and/or eta")
    if name not in ("lambda", "eta"):
        raise ValueError(f"unknown scan coupling {name!r}")
    return name, grid


@main.command("scan")
@click.option("--scan", "scans", multiple=True, required=True, help="NAME=START:STOP:STEP (1 or 2).")
@_options(_lam, _eta, _n_cap, _parity, _out())
def cmd_scan(scans, lam, eta, n_cap, parity, out):
    """Sweep one or two couplings; omega2 is constraint-solved at each point.

    Per-point failures are recorded in the error column and the scan continues.
    """
    if len(scans) > 2:
        raise ValueError("at most two scan ranges")
    axes = [_parse_scan(s) for s in scans]
    fixed = {"lambda": lam, "eta": eta}
    for name, _ in axes:
        fixed.pop(name, None)
    missing = [k for k, v in fixed.items() if v is None]
    if missing:
        raise ValueError(f"missing fixed coupling(s): {', '.join(missing)}")

    rows = []
    for point in itertools.product(*(grid for _, grid in axes)):
        vals = {**fixed, **{name: float(v) for (name, _), v in zip(axes, point)}}
        row_lam, row_eta = vals["lambda"], vals["eta"]
        try:
            p, spec, _ = _solve_block(None, row_lam, row_eta, n_cap, parity)
            energies = [repr(float(st.energy)) for st in spec.states]
            rows.append([repr(row_lam), repr(row_eta), repr(p.omega_sq)] + energies + [""])
        except QesError as exc:
            rows.append([repr(row_lam), repr(row_eta), ""] + [""] * (n_cap + 1) + [str(exc)])
    header = ["lambda", "eta", "omega2"] + [f"E{i}" for i in range(n_cap + 1)] + ["error"]
    _write_output(_csv(header, rows), out)


if __name__ == "__main__":
    main()
