"""One benchmark process: set up a workload, time its ops, check every result.

Started by run.py.  It prints ``READY`` once set-up (package import, input
generation, warm-up) is done, so the parent can time set-up from a fresh
interpreter, and then, unless ``--mode setup``, one JSON line with the raw
metric values.

  python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--mode setup]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
from scipy.linalg import eigh_tridiagonal

import checks
import workloads

ROOT = workloads.ROOT
SRC = ROOT / "src"
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
# Op times are scaled to a machine on which the workload's calibration kernel
# takes its reference time.  The kernel runs twice before every op and its
# second, warm run is timed; each op is scaled by the median kernel time of
# the CAL_WINDOW ops on either side.  On a shared 2-core host the speed of the
# same code drifted by +-20% over tens of seconds, and not alike for all code:
# across twelve fresh processes the spread (std/mean) of op time fell from
# 0.19 to 0.06 on sweep-highN and certify-lowN when divided by the vector
# kernel, and from 0.044 to 0.015 on verify-oracle with the scalar kernel.
CAL_WINDOW = 25
CLI_PROBES = 3  # fresh interpreters per cli start-up metric, and in-process calls per command


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between order statistics (numpy's default method)."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten of n samples beyond it.

    n is the number of inputs in one pass, not the samples of the run, so a
    workload keeps its percentile however many passes a run makes.
    """
    return next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0), 100.0)


def call(fn, *args):
    """(result, None) or (None, exception); unexpected exceptions are logged."""
    try:
        return fn(*args), None
    except Exception as exc:  # the loop keeps going and counts the op as failed
        if not _is_documented(exc):
            traceback.print_exc(file=sys.stderr)
        return None, exc


def _is_documented(exc: Exception) -> bool:
    from sextic_qes.errors import QesError

    return isinstance(exc, QesError)


def evaluate(wl, item, out, exc) -> tuple[set, list[float]]:
    """Failed checks and per-state relative errors of one op."""
    lost = [float("inf")] * wl.expected_states(item)
    if exc is not None:
        return ({"raised"} if _is_documented(exc) else {"crashed"}), lost
    checked, check_exc = call(wl.check, item, out)
    if check_exc is not None:  # the output did not have the documented shape
        return {"crashed"}, lost
    return checked


def passes(wl, seconds: float):
    """(pass index, item) over whole passes of the inputs until `seconds` have passed.

    Whole passes weigh every input equally, so the latency mixture is the
    same however far the clock got.
    """
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        for item in wl.items:
            yield k, item
        k += 1


def vector_kernel() -> int:
    """Integer loop, numpy ufuncs on a 4001-point grid and a small dense eigensolve."""
    s = 0
    for i in range(30000):
        s += i % 7
    x = np.linspace(0.0, 4.0, 4001)
    for _ in range(40):
        x = np.exp(-0.5 * x * x) + np.sqrt(x + 1.0)
    np.linalg.eigvalsh(np.diag(np.arange(80.0)) + 0.01)
    return s


def _sextic(x: float) -> float:
    x2 = x * x
    return 0.5 * x2 + 0.25 * x2 * x2 + x2 * x2 * x2 / 6.0


_SCALAR_XS = [0.004 * i for i in range(1500)]
_TRIDIAG = (np.linspace(1.0, 3.0, 1200), np.full(1199, -0.5))


def scalar_kernel() -> int:
    """Float arithmetic per point in Python and a tridiagonal bisection eigensolve."""
    values = [_sextic(x) for x in _SCALAR_XS]
    t = np.linspace(0.0, 4.0, 1001)
    p = np.zeros_like(t)
    for c in range(30):
        p = p * t + c
    eigh_tridiagonal(*_TRIDIAG, select="i", select_range=(0, 8), eigvals_only=True)
    return len(values)


# name -> (kernel, its time on the reference machine in seconds)
KERNELS = {"vector": (vector_kernel, 0.0025), "scalar": (scalar_kernel, 0.004)}


def scaled(latencies: list[float], kernel: list[float], ref_s: float) -> list[float]:
    """Each latency times ref_s over the median kernel time around it."""
    return [
        t * ref_s / statistics.median(kernel[max(0, i - CAL_WINDOW): i + CAL_WINDOW + 1])
        for i, t in enumerate(latencies)
    ]


def measure(wl, seconds: float):
    """Closed loop, one client; returns the tally, op latencies and kernel times."""
    tally, latencies, kernel = checks.Tally(), [], []
    calibrate = KERNELS[wl.calibration][0]
    for k, item in passes(wl, seconds):
        calibrate()
        t0 = time.perf_counter()
        calibrate()
        t1 = time.perf_counter()
        out, exc = call(wl.op, item)
        latencies.append(time.perf_counter() - t1)
        kernel.append(t1 - t0)
        failed, errs = evaluate(wl, item, out, exc)
        tally.record(failed, errs, first_pass=k == 0)
    return tally, latencies, kernel


def end_to_end(wl, tally, latencies, kernel) -> tuple[dict, dict]:
    ref_s = KERNELS[wl.calibration][1]
    lat = scaled(latencies, kernel, ref_s)
    n = len(lat)
    tail_p = tail_percentile(len(wl.items))
    values = {
        "ops_per_s": n / sum(lat),
        "latency_p50_ms": 1e3 * percentile(lat, 50.0),
        "latency_tail_ms": 1e3 * percentile(lat, tail_p),
        "accuracy_digits": tally.accuracy_digits,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    info = {
        "latency_samples": n,
        "tail_percentile": tail_p,
        "unscaled": {
            "ops_per_s": n / sum(latencies),
            "latency_p50_ms": 1e3 * percentile(latencies, 50.0),
            "latency_tail_ms": 1e3 * percentile(latencies, tail_p),
        },
        "calibration": {
            "kernel": wl.calibration,
            "median_ms": 1e3 * statistics.median(kernel),
            "reference_ms": 1e3 * ref_s,
        },
    }
    return values, info


def measure_traced(wl, seconds: float, tracer):
    """Each input runs once untraced and once traced, in alternating order.

    Counts come from the first traced pass, so they repeat exactly for a seed;
    timings come from every traced op.
    """
    tally = checks.Tally()
    plain, traced = [], []
    first_pass = {}
    for i, (k, item) in enumerate(passes(wl, seconds)):
        if k == 1 and not first_pass:
            first_pass = tracer.snapshot_calls()
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if with_trace:
                out, exc = call(tracer.run_op, wl.root(item), wl.in_process_op, item)
                traced.append(time.perf_counter() - t0)
                checked = evaluate(wl, item, out, exc)
            else:
                call(wl.in_process_op, item)
                plain.append((item, time.perf_counter() - t0))
        tally.record(*checked, first_pass=k == 0)
    return tally, plain, traced, first_pass or tracer.snapshot_calls()


def _fresh_ms(code: str) -> float:
    """Median wall time of `python -c code` (the code may print its own figure)."""
    samples = []
    env = workloads.package_env()
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, cwd=ROOT, env=env, check=True, timeout=120,
        )
        wall = time.perf_counter() - t0
        samples.append(float(proc.stdout) if proc.stdout.strip() else wall)
    return 1e3 * statistics.median(samples)


def cli_metrics(wl, plain) -> dict:
    """Start-up, import and in-process command times of the `cli` layer (untraced)."""
    values = {
        "cli.python_startup_ms": _fresh_ms("pass"),
        "cli.import_ms": _fresh_ms(
            "import time; t = time.perf_counter(); import sextic_qes.cli; "
            "print(time.perf_counter() - t)"
        ),
    }
    per_cmd: dict[str, list[float]] = {}
    if isinstance(wl, workloads.CliPaper):
        for item, dt in plain:
            per_cmd.setdefault(item.command, []).append(dt)
    else:
        import sextic_qes.cli as cli

        for name, parity, argv in workloads.cli_commands():
            if parity != "even":
                continue
            workloads.run_cli_in_process(cli.main, argv)  # warm-up
            for _ in range(CLI_PROBES):
                t0 = time.perf_counter()
                workloads.run_cli_in_process(cli.main, argv)
                per_cmd.setdefault(name, []).append(time.perf_counter() - t0)
    for name in ("table", "spectrum", "constraint", "export", "verify", "scan"):
        values[f"cli.{name}.ms"] = 1e3 * statistics.median(per_cmd[name])
    return values


def per_layer(wl, tracer, tally, plain, traced, counts) -> dict:
    t = tracer
    op_s = sum(traced)
    plain_s = sum(dt for _, dt in plain)
    norm_calls = counts.get("wavefunction.norm_and_inner", 0)
    grids = t.counters["oracle.grids"]
    values = {
        "params.solve_constraint.omega2.ms_per_call": t.ms_per_call("params.solve_constraint.omega2"),
        "params.solve_constraint.eta.ms_per_call": t.ms_per_call("params.solve_constraint.eta"),
        "params.self_share": t.self_s("params") / op_s,
        "qes_core.spectrum.calls": counts.get("qes_core.spectrum", 0),
        "qes_core.spectrum.ms_per_call": t.ms_per_call("qes_core.spectrum"),
        "qes_core.spectrum.self_share": t.self_s("qes_core.spectrum") / op_s,
        "qes_core.spectrum_closed_form.calls": counts.get("qes_core.spectrum_closed_form", 0),
        "qes_core.eigenvalues.ms_per_call": t.ms_per_call("qes_core.eigenvalues"),
        "qes_core.coefficients_from_energy.calls": counts.get("qes_core.coefficients_from_energy", 0),
        "qes_core.coefficients_from_energy.ms_per_call": t.ms_per_call("qes_core.coefficients_from_energy"),
        "qes_core.self_share": t.self_s("qes_core") / op_s,
        "wavefunction.eval_psi.calls": counts.get("wavefunction.eval_psi", 0),
        "wavefunction.eval_psi.points": counts.get("wavefunction.eval_psi.points", 0),
        "wavefunction.eval_psi.ms": 1e3 * t.total_s("wavefunction.eval_psi") / len(traced),
        "wavefunction.ode_residual.ms_per_call": t.ms_per_call("wavefunction.ode_residual"),
        "wavefunction.count_nodes.calls": counts.get("wavefunction.count_nodes", 0),
        "wavefunction.count_nodes.ms_per_call": t.ms_per_call("wavefunction.count_nodes"),
        "wavefunction.count_nodes.degenerate_warnings": counts.get(
            "wavefunction.count_nodes.degenerate_warnings", 0
        ),
        "wavefunction.norm_and_inner.calls": norm_calls,
        "wavefunction.norm_and_inner.ms_per_call": t.ms_per_call("wavefunction.norm_and_inner"),
        "wavefunction.norm_and_inner.eval_psi_calls_per_call": (
            counts.get("wavefunction.norm_and_inner>wavefunction.eval_psi", 0) / norm_calls
            if norm_calls else 0.0
        ),
        "wavefunction.self_share": t.self_s("wavefunction") / op_s,
        "oracle.verify_qes.ms_per_call": t.ms_per_call("oracle.verify_qes"),
        "oracle.lowest_eigenvalues_detail.ms_per_call": t.ms_per_call("oracle.lowest_eigenvalues_detail"),
        "oracle.default_grid.ms_per_call": t.ms_per_call("oracle.default_grid"),
        "oracle.potential_value.calls": counts.get("oracle.potential_value", 0),
        "oracle.grid_points": t.counters["oracle.grid_points_sum"] / grids if grids else 0.0,
        "oracle.half_width": t.counters["oracle.half_width_sum"] / grids if grids else 0.0,
        "oracle.self_share": t.self_s("oracle") / op_s,
        "trace.overhead_ms_per_op": 1e3 * (op_s / len(traced) - plain_s / len(plain)),
        "trace.overhead_share": op_s / plain_s - 1.0,
        "trace.spans": counts.get("trace.spans", 0),
        "checks.failed_share": tally.failed / tally.attempted,
        "checks.worst_digits": checks.digits(tally.worst_error),
    }
    for name in checks.CHECK_NAMES:
        values[f"checks.{name}.failed"] = tally.failures.get(name, 0)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("run", "setup"), default="run")
    args = ap.parse_args(argv)

    if not (SRC / "sextic_qes" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.make(args.workload, args.seed)
    wl.prepare()
    tracer = None
    if args.trace:
        import sextic_qes.cli  # noqa: F401  (its namespace gets the wrappers too)
        from tracer import Tracer

        tracer = Tracer()
    wl.warmup()
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    if tracer is None:
        tally, latencies, kernel = measure(wl, args.seconds)
        values, info = end_to_end(wl, tally, latencies, kernel)
    else:
        tally, plain, traced, counts = measure_traced(wl, args.seconds, tracer)
        values = per_layer(wl, tracer, tally, plain, traced, counts)
        values.update(cli_metrics(wl, plain))
        trace_dir = workloads.SCRATCH / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{wl.name}-seed{args.seed}.tsv"
        tracer.write(trace_file)
        info = {
            "trace_file": str(trace_file.relative_to(ROOT)),
            "spans_kept": len(tracer.span_start),
            "spans_dropped": tracer.counters["trace.dropped_spans"],
            "traced_ops": len(traced),
        }
    info.update(
        workload=wl.name,
        generator=wl.generator,
        inputs_per_pass=len(wl.items),
        check_failures=dict(tally.failures),
        worst_digits=checks.digits(tally.worst_error),
    )
    result = {
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "values": values,
        "info": info,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
