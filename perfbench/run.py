"""Run one sextic-qes benchmark workload and print its metrics as JSON.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the last stdout line holds every end-to-end metric of
BENCHMARK.json; with --trace 1 every per-layer metric.  The line before it
records the environment, the workload's generator parameters, the tail
percentile with its sample count, and the failures per check.

This parent uses the standard library only.  It pins BLAS/OpenMP threads to
1 and starts fresh worker interpreters: the worker that measures, and set-up
probes before and after it that stop at the first timed op.  Set-up time is
the median over all these fresh starts.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Extra fresh set-ups, half before and half after the measuring worker, which
# adds one more sample.  Set-up times came in two modes about 0.6 s and 0.9 s
# apart that changed within seconds, so the samples are many and spread out.
SETUP_PROBES = 8
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
PINNED_THREADS = "1"      # the program is single-threaded; <= nproc on any machine
RUN_TIMEOUT_S = 170       # the whole run must end within 180 s


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = PINNED_THREADS
    return env


def run_worker(args, mode: str, deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds until READY, its last stdout line)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready.strip() != "READY":
        raise WorkerError(f"worker ({mode}) exited with code {code}")
    lines = rest.strip().splitlines()
    return ready_s, (lines[-1] if lines else "")


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_openmp_threads": int(PINNED_THREADS),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="Run one sextic-qes benchmark workload.")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (ROOT / "src" / "sextic_qes" / "__init__.py").is_file():
        print(f"error: no sextic_qes package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + RUN_TIMEOUT_S
    probes = 0 if args.trace else SETUP_PROBES
    try:
        setup = [run_worker(args, "setup", deadline)[0] for _ in range(probes // 2)]
        ready_s, line = run_worker(args, "run", deadline)
        setup += [run_worker(args, "setup", deadline)[0] for _ in range(probes - probes // 2)]
        result = json.loads(line)
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = result["values"]
    if not args.trace:
        setup.append(ready_s)
        values["setup_s"] = statistics.median(setup)
    if set(values) != set(declared):
        print(
            f"error: metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json",
            file=sys.stderr,
        )
        return 1

    info = dict(result["info"], seed=args.seed, seconds=args.seconds, trace=args.trace,
                environment=environment())
    if not args.trace:
        info["setup_samples_s"] = setup
    print(json.dumps(info))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
