#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the sqcka package.

Usage (from the repository root)::

    python3 perfbench/run.py --workload session --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --quick          # every workload, small, all checks

One run builds the workload's inputs from ``--seed``, then repeats identical
passes over them for ``--seconds`` (at least one pass), checking each
pass's outputs after timing it.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports per-layer metrics from the traced ones, plus the tracing
overhead (median traced minus median untraced pass time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
nonzero when a check fails or an operation raises.  The package is imported
from ``src/`` next to this directory; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("session", "exact", "bound", "large-n")

#: Fresh processes timed from start to inputs ready; setup_s is their median.
SETUP_REPEATS = 5

#: The workload-specific name and unit of each workload's ops_per_s.
RATE_NAMES = {
    "session": ("session_rounds_per_s", "rounds/s"),
    "exact": ("exact_rounds_per_s", "round evaluations/s"),
    "bound": ("bound_attacks_per_s", "attacks/s"),
    "large-n": ("cli_commands_per_s", "commands/s"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="small inputs; without --workload, run all four once")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import sqcka from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "sqcka" / "__init__.py").is_file():
        print(f"perfbench: no sqcka sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import sqcka

    if not Path(sqcka.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported sqcka from {sqcka.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def setup(args, workdir: Path):
    """Inputs from the seed, and the first LAPACK/BLAS calls."""
    import numpy as np

    from workloads import WORKLOADS

    warm = np.random.default_rng(0).normal(size=(256, 256))
    np.linalg.eigvalsh(warm + warm.T)
    np.linalg.eigh((warm + 1j * warm.T) @ (warm + 1j * warm.T).conj().T)
    return WORKLOADS[args.workload](args.seed, args.quick, workdir)


def timed_setups(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        cmd.append("--quick")
    times = []
    for _ in range(1 if args.quick else SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: Popen.wait polls in 50 ms steps when given one
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info() -> dict:
    import numpy as np

    from sqcka import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "kernel_backend": _kernels.backend_name(),
        "numba_importable": bool(_kernels.HAVE_NUMBA),
    }


def run_workload(args) -> int:
    import spans
    from workloads import Attempts

    setup_samples = timed_setups(args)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = setup(args, workdir)
        attempt = Attempts()
        tracer = spans.Tracer()
        failures: list[str] = []
        plain_s, traced_s, rated_s, layer_passes = [], [], [], []
        start = time.perf_counter()
        while True:
            traced = args.trace == 1 and len(plain_s) > len(traced_s)
            if traced:
                mark = tracer.mark()
                tracer.install()
            t0 = time.perf_counter()
            try:
                out = wl.run_pass(attempt)
            finally:
                elapsed = time.perf_counter() - t0
                tracer.uninstall()
            if traced:
                traced_s.append(elapsed)
                layer_passes.append(tracer.layer_values(mark))
            else:
                plain_s.append(elapsed)
                rated_s.append(out[-1] if args.workload == "bound" else elapsed)
            failures += wl.check(out)
            done = time.perf_counter() - start >= args.seconds
            if done and (args.trace == 0 or traced_s):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    wall_s = statistics.median(plain_s)
    if args.trace == 0:
        rate = wl.work_units() / statistics.median(rated_s)
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "ops_per_s": (rate, "1/s"),
        }
        rate_name, rate_unit = RATE_NAMES[args.workload]
        print(f"{rate_name} = {rate:.6g} {rate_unit} (ops_per_s on {args.workload})")
    else:
        values = spans.median_layer_values(layer_passes)
        values["trace.overhead_s"] = statistics.median(traced_s) - wall_s
        metrics = {name: (values[name], unit) for name, unit, _ in spans.METRICS}
        tracer.write_spans(OUT / f"spans-{args.workload}.csv")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    info = machine_info()
    print("machine " + json.dumps(info, sort_keys=True))
    print(f"passes: {len(plain_s)} untraced, {len(traced_s)} traced; "
          f"seed {args.seed}; {len(failures)} check failures")
    print(f"untraced pass seconds (median {statistics.median(plain_s):.4f}): "
          + " ".join(f"{t:.4f}" for t in plain_s))
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempt.attempted,
        "failed": attempt.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct and attempt.failed == 0 else 1


def run_all_quick(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--quick",
                   "--workload", name, "--seed", str(args.seed), "--trace", str(trace)]
            proc = subprocess.run(cmd, timeout=300, capture_output=True, text=True)
            result = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"{name} trace={trace}: exit {proc.returncode} {result[:160]}")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    if args.workload is None:
        if not args.quick:
            raise SystemExit("perfbench: --workload is required without --quick")
        return run_all_quick(args)
    if args.setup_only:
        setup(args, OUT / "unused")
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
