"""One measured run in a fresh process: set up, run one sstac command, report.

Usage: python3 bench/worker.py '<spec json>'

The spec holds the config, the command (``run``, or ``sweep`` with its
parameter and values), the output directory, the calibration kernels and,
for a traced run, the layers to trace.  After set-up the worker times the
set-up calibration kernels once; with ``setup_only`` it stops there.  An
untraced run marks every entry into ``lap_marker`` and runs the workload's
calibration kernels at each mark.  The last line of standard output is a
JSON object with the set-up and run-phase times (the run phase without the
kernels), the marks and kernel times, the peak resident memory and, if the
run raised an SstacError, its class.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main() -> None:
    spec = json.loads(sys.argv[1])
    from sstac import harness, mdp
    from sstac.errors import SstacError

    config = harness.ExperimentConfig.from_dict(spec["config"])
    mdp.build_mdp(config.mdp)
    setup_s = time.perf_counter() - _T0
    from calibration import Kernels

    setup_kernel_s = Kernels(spec["setup_calibration"])() / 1e9
    if spec.get("setup_only"):
        print(json.dumps({"setup_s": setup_s, "setup_kernel_s": setup_kernel_s}))
        return

    tracer = laps = None
    if spec.get("trace_layers"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install("sstac", spec["trace_layers"])
    elif spec.get("lap_marker"):
        from tracer import Laps

        laps = Laps("sstac", spec["lap_marker"], Kernels(spec["calibration"]))

    error = None
    start_ns, start_cpu = time.perf_counter_ns(), time.process_time()
    try:
        if spec["sweep_values"]:
            harness.sweep_command(config, "K", spec["sweep_values"], out_dir=spec["out_dir"])
        else:
            harness.run_command(config, out_dir=spec["out_dir"])
    except SstacError as exc:
        error = type(exc).__name__
    end_ns, run_cpu_s = time.perf_counter_ns(), time.process_time() - start_cpu
    kernel_s = sum(laps.kernel_ns) / 1e9 if laps else 0.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.save(spec["spans_path"])
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "setup_kernel_s": setup_kernel_s,
                "run_s": (end_ns - start_ns) / 1e9 - kernel_s,
                "run_cpu_s": run_cpu_s - kernel_s,
                "peak_rss_mb": peak_rss_mb,
                "error": error,
                "marks_ns": [t - start_ns for t in laps.marks] if laps else None,
                "kernel_ns": laps.kernel_ns if laps else None,
                "end_ns": end_ns - start_ns,
                "env": {
                    "python": sys.version.split()[0],
                    "numpy": np.__version__,
                    "blas": blas.get("name"),
                    "blas_version": blas.get("version"),
                    "blas_threads": blas_threads(),
                },
            }
        )
    )


if __name__ == "__main__":
    main()
