"""The sstac benchmark: one workload, timed from outside in fresh processes.

Usage, from the repository root:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --self-test
    python3 bench/run.py --write-reference

A measured run is one fresh Python process (bench/worker.py) that imports
sstac, validates the config, builds the MDP (set-up) and then calls
``harness.run_command`` or ``harness.sweep_command`` (run phase).  Runs are
started one after another for about ``--seconds`` seconds, at least two of
them.  The host is shared and its speed moves, so the timings are
calibrated: at every outer iteration the worker runs fixed kernels
(calibration.py), and each stretch of the run phase is divided by the kernel
time next to it.  Every run passes a correctness gate: ``diag_checks`` on each trace,
``trace.csv`` bytes identical across the repeats of the seed, and, at the
reference seed, a max-abs difference of at most 1e-12 from the stored
reference trace.  ``--trace 1`` adds one traced run and reports per-layer
self time and call counts instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A result file with
the environment and every run is written to .bench_runs/results/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import reference_s
from workloads import LAYERS, SETUP_CALIBRATION, WORKLOADS, expected_calls

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
REFERENCE_DIR = BENCH / "reference"
REFERENCE_SEED = 0
REFERENCE_TOL = 1e-12
MIN_RUNS = 2
WORKER_TIMEOUT_S = 60
# Every worker of one invocation ends by this many seconds after it starts; the
# contract allows 180 s per invocation.
INVOCATION_LIMIT_S = 160
# Entered once per outer iteration by every algorithm; its entry times split a run phase into cycles.
LAP_MARKER = "diagnostics.error_decomposition"
# One BLAS thread: two gave no gain at these sizes and were noisier on a 2-core machine.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SSTAC_THREADS"}
    env.update(PINNED_THREADS, PYTHONPATH=str(SRC))
    return env


def spawn(spec: dict, timeout: float = WORKER_TIMEOUT_S) -> dict:
    """Run one worker process to completion, or kill it after ``timeout`` seconds, and return its report."""
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timeout after {timeout:.1f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"worker exit {proc.returncode}: {tail[0]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def max_abs_diff(reference_rows, rows) -> float:
    if len(reference_rows) != len(rows):
        return math.inf
    worst = 0.0
    for ref_row, row in zip(reference_rows, rows):
        for a, b in zip(ref_row, row):
            if a == b or (math.isnan(a) and math.isnan(b)):
                continue
            diff = abs(a - b)
            if math.isnan(diff):  # a NaN against a number, or infinities of opposite sign
                return math.inf
            worst = max(worst, diff)
    return worst


def reference_path(workload: str, run_id: str) -> Path:
    return REFERENCE_DIR / workload / f"{run_id}.csv.gz"


def read_reference(path: Path) -> tuple[list[str], list[list[float]]]:
    with gzip.open(path, "rt") as fh:
        lines = fh.read().splitlines()
    return lines[0].split(","), [[float(c) for c in line.split(",")] for line in lines[1:]]


class Gate:
    """Correctness checks shared by every run of one workload invocation."""

    def __init__(self, workload, config: dict, seed: int, tiny: bool):
        from sstac.harness import diag_checks
        from sstac.trace import load_trace

        self.diag_checks, self.load_trace = diag_checks, load_trace
        self.workload = workload
        self.use_reference = seed == REFERENCE_SEED and not tiny
        self.n_traces = len(workload.runs(config, tiny))
        self.first_bytes: dict[str, bytes] = {}
        self.references: dict[str, tuple] = {}
        self.reference_diff = None  # max-abs difference over every trace compared so far

    def check(self, out_dir: Path) -> list[str]:
        problems = []
        trace_dirs = sorted(p.parent for p in out_dir.glob("*/trace.csv"))
        if len(trace_dirs) != self.n_traces:
            problems.append(f"expected {self.n_traces} traces, found {len(trace_dirs)}")
        for trace_dir in trace_dirs:
            run_id = trace_dir.name
            data = (trace_dir / "trace.csv").read_bytes()
            if data != self.first_bytes.setdefault(run_id, data):
                problems.append(f"{run_id}: trace.csv bytes differ from the first run of this seed")
            trace = self.load_trace(trace_dir)
            problems += [f"{run_id}: diag {c.name}: {c.detail}" for c in self.diag_checks(trace) if not c.ok]
            if self.use_reference:
                path = reference_path(self.workload.name, run_id)
                if not path.is_file():
                    problems.append(f"{run_id}: no reference trace {path.relative_to(ROOT)}")
                    continue
                columns, rows = self.references.setdefault(run_id, read_reference(path))
                diff = max_abs_diff(rows, trace.rows) if columns == trace.columns else math.inf
                self.reference_diff = max(self.reference_diff or 0.0, diff)
                if not diff <= REFERENCE_TOL:
                    problems.append(f"{run_id}: max |diff| {diff:.3e} from the reference exceeds {REFERENCE_TOL:.0e}")
        return problems


def run_once(workload, config: dict, tiny: bool, gate: Gate, index: int, timeout: float, trace=False) -> dict:
    """One worker process, gated; its output directory is removed afterwards."""
    out_dir = OUT / "work" / f"{workload.name}-{index}"
    shutil.rmtree(out_dir, ignore_errors=True)
    spec = {
        "config": config,
        "sweep_values": workload.sweep_values(tiny),
        "out_dir": str(out_dir),
        "trace_layers": list(LAYERS) if trace else [],
        "spans_path": str(out_dir / "spans.npz"),
        "lap_marker": None if trace else LAP_MARKER,
        "calibration": list(workload.calibration),
        "setup_calibration": list(SETUP_CALIBRATION),
    }
    started = time.perf_counter()
    report = spawn(spec, timeout)
    report["process_s"] = time.perf_counter() - started
    report["iterations"] = sum(k + 1 for k in workload.runs(config, tiny))
    report["problems"] = [] if report["error"] else gate.check(out_dir)
    marks = report.get("marks_ns")
    if marks is not None and len(marks) != report["iterations"]:
        report["problems"].append(f"{len(marks)} marks of {LAP_MARKER}, expected {report['iterations']}")
    if trace and not report["error"]:
        from tracer import layer_times

        try:
            report["layers"] = layer_times(out_dir / "spans.npz")
        except ValueError as exc:
            report["error"] = f"trace: {exc}"
    shutil.rmtree(out_dir, ignore_errors=True)
    report["ok"] = not report["error"] and not report["problems"]
    return report


def calibrated_segments(report: dict) -> list[float]:
    """The run phase cut at the lap marks, each segment divided by the kernel time next to it.

    Segment j runs from the end of the kernel at mark j (or from the start)
    to mark j+1 (or to the end), so it holds only the program's own work; it
    is divided by the mean of the kernel times at the marks around it.
    """
    marks, kernel = report["marks_ns"], report["kernel_ns"]
    starts = [0] + [m + k for m, k in zip(marks, kernel)]
    ends = marks + [report["end_ns"]]
    beside = [[kernel[j] for j in (i - 1, i) if 0 <= j < len(kernel)] for i in range(len(ends))]
    return [(end - start) / statistics.fmean(ks) for start, end, ks in zip(starts, ends, beside)]


def calibrated_run_s(reports: list[dict], reference_s: float) -> float:
    """Run-phase time in seconds of the reference host, from repeats of the same run.

    Each segment is taken at its median over the repeats, so a segment that a
    short slow-down skewed in one repeat does not count.
    """
    segments = [calibrated_segments(r) for r in reports]
    return reference_s * sum(statistics.median(column) for column in zip(*segments))


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Measure one workload; returns the full result record."""
    workload = WORKLOADS[name]
    config = workload.config(seed, tiny)
    gate = Gate(workload, config, seed, tiny)
    started = time.perf_counter()

    def timeout() -> float:
        return max(0.1, min(WORKER_TIMEOUT_S, started + INVOCATION_LIMIT_S - time.perf_counter()))

    runs: list[dict] = []
    # Set-up-only processes around the runs, so that setup_s is a median of many samples.
    probe = {"config": config, "setup_only": True, "setup_calibration": list(SETUP_CALIBRATION)}
    probes = [spawn(probe, timeout())]
    while len(runs) < MIN_RUNS or (
        time.perf_counter() - started + statistics.median(r["process_s"] for r in runs) <= seconds
    ):
        runs.append(run_once(workload, config, tiny, gate, len(runs), timeout()))
        probes.append(spawn(probe, timeout()))
    completed = [r for r in runs if r["ok"]]
    setups = [p for p in probes if "setup_s" in p] + completed
    setup_reference_s = reference_s(SETUP_CALIBRATION)
    summary = {}
    if completed:
        run_s = calibrated_run_s(completed, reference_s(workload.calibration))
        summary = {
            "iters_per_s": completed[0]["iterations"] / run_s,
            "iters_per_s_wall": sum(r["iterations"] for r in completed) / sum(r["run_s"] for r in completed),
            "iters_per_s_per_run": quartiles([r["iterations"] / r["run_s"] for r in completed]),
            "run_s": quartiles([r["run_s"] for r in completed]),
            "setup_s": quartiles([r["setup_s"] * setup_reference_s / r["setup_kernel_s"] for r in setups]),
            "setup_s_wall": quartiles([r["setup_s"] for r in setups]),
            "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in completed]),
        }
    result = {
        "workload": name,
        "seed": seed,
        "tiny": tiny,
        "config": config,
        "sweep_K": workload.sweep_values(tiny),
        "runs": runs,
        "summary": summary,
    }
    if trace:
        traced = run_once(workload, config, tiny, gate, len(runs), timeout(), trace=True)
        if not traced["error"]:
            expected = expected_calls(workload, config, tiny)
            for layer in LAYERS:
                got = traced["layers"][layer]["calls"]
                if got != expected[layer]:
                    traced["problems"].append(f"{layer}: {got} calls, expected exactly {expected[layer]}")
            self_total = sum(v["self_s"] for v in traced["layers"].values())
            traced["remainder_s"] = traced["run_s"] - self_total
            if traced["remainder_s"] < 0:
                traced["problems"].append(f"layer self times {self_total} s exceed the traced wall {traced['run_s']} s")
            if summary:
                traced["overhead_s"] = traced["run_s"] - summary["run_s"]["median"]
            traced["ok"] = not traced["problems"]
        result["traced"] = traced
        runs = runs + [traced]
    result["reference_max_abs_diff"] = gate.reference_diff
    result["attempted"] = len(runs)
    result["failed"] = sum(not r["ok"] for r in runs)
    result["correct"] = result["failed"] == 0
    return result


def environment(result: dict) -> dict:
    worker_env_report = next((r["env"] for r in result["runs"] if "env" in r), {})
    return {
        **worker_env_report,
        "blas_threads_pinned": PINNED_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "SSTAC_THREADS": f"unset in workers (caller: {os.environ.get('SSTAC_THREADS', 'unset')})",
        "workload_seed": result["seed"],
    }


def metrics(result: dict, trace: bool) -> dict:
    if trace:
        traced = result["traced"]
        layers = traced.get("layers", {})
        out = {}
        for layer in LAYERS:
            entry = layers.get(layer, {"self_s": 0.0, "calls": 0})
            out[f"{layer}.self_s"] = {"value": entry["self_s"], "unit": "s"}
            out[f"{layer}.calls"] = {"value": entry["calls"], "unit": "count"}
        out["trace.wall_s"] = {"value": traced.get("run_s", 0.0), "unit": "s"}
        out["trace.remainder_s"] = {"value": traced.get("remainder_s", 0.0), "unit": "s"}
        out["trace.overhead_s"] = {"value": traced.get("overhead_s", 0.0), "unit": "s"}
        return out
    summary = result["summary"]
    if not summary:
        return {}
    return {
        "iters_per_s": {"value": summary["iters_per_s"], "unit": "1/s"},
        "setup_s": {"value": summary["setup_s"]["median"], "unit": "s"},
        "peak_rss_mb": {"value": summary["peak_rss_mb"]["median"], "unit": "MB"},
    }


def report(result: dict, trace: bool) -> None:
    env = result["env"]
    print(f"sstac benchmark: workload {result['workload']}, seed {result['seed']}, trace {int(trace)}")
    print(
        f"env: python {env.get('python')}, numpy {env.get('numpy')}, {env.get('blas')} {env.get('blas_version')}"
        f" with {env.get('blas_threads')} thread(s), nproc {env['nproc']}, SSTAC_THREADS unset"
    )
    summary = result["summary"]
    if summary:
        print(
            f"  iters_per_s: {summary['iters_per_s']:.6g} 1/s calibrated to the reference host,"
            f" {summary['iters_per_s_wall']:.6g} 1/s over the summed wall time of the runs"
        )
    keys = ("iters_per_s_per_run", "1/s"), ("run_s", "s"), ("setup_s", "s"), ("setup_s_wall", "s"), ("peak_rss_mb", "MB")
    for key, unit in keys:
        if key in summary:
            q = summary[key]
            print(f"  {key}: median {q['median']:.6g} {unit} [q1 {q['q1']:.6g}, q3 {q['q3']:.6g}], n={q['n']}")
    fail_ratio = result["failed"] / result["attempted"]
    print(f"runs: {result['attempted']} attempted, {result['failed']} failed, fail_ratio {fail_ratio:.3g}")
    if trace and "layers" in result["traced"]:
        traced = result["traced"]
        self_total = sum(v["self_s"] for v in traced["layers"].values())
        print(
            f"trace: layer self {self_total:.6g} s + remainder {traced['remainder_s']:.6g} s"
            f" = traced wall {traced['run_s']:.6g} s; overhead {traced.get('overhead_s', math.nan):.6g} s"
        )
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    diff = result["reference_max_abs_diff"]
    ref = f", reference max |diff| {diff:.3g} (limit {REFERENCE_TOL:.0e})" if diff is not None else ""
    verdict = "PASS" if result["correct"] else "FAIL"
    print(f"correctness: {verdict} (diag_checks, byte-identical repeats{', traced = untraced bytes' if trace else ''}{ref})")
    for line in problem_lines(result):
        print(f"  {line}")


def problem_lines(result: dict) -> list[str]:
    runs = result["runs"] + ([result["traced"]] if "traced" in result else [])
    return [r["error"] for r in runs if r["error"]] + [p for r in runs for p in r["problems"]]


def save_result(result: dict, trace: bool) -> Path:
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"BENCH_{result['workload']}_seed{result['seed']}_trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def self_test() -> int:
    """Tiny sizes (K=2) through every workload, untraced and traced."""
    bad = 0
    for name in WORKLOADS:
        result = run_workload(name, REFERENCE_SEED, 0.0, trace=True, tiny=True)
        bad += not result["correct"]
        verdict = "PASS" if result["correct"] else "FAIL"
        print(f"{verdict} self-test {name}: {result['attempted']} runs, {result['failed']} failed")
        for line in problem_lines(result):
            print(f"  {line}")
    return 1 if bad else 0


def write_reference() -> int:
    """Store the reference traces of every workload at the reference seed."""
    for name, workload in WORKLOADS.items():
        config = workload.config(REFERENCE_SEED)
        out_dir = OUT / "work" / f"{name}-reference"
        shutil.rmtree(out_dir, ignore_errors=True)
        spec = {
            "config": config,
            "sweep_values": workload.sweep_values(),
            "out_dir": str(out_dir),
            "setup_calibration": list(SETUP_CALIBRATION),
        }
        report_ = spawn(spec)
        if report_["error"]:
            print(f"{name}: {report_['error']}", file=sys.stderr)
            return 1
        for trace_csv in sorted(out_dir.glob("*/trace.csv")):
            path = reference_path(name, trace_csv.parent.name)
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(trace_csv.read_bytes())
            print(path.relative_to(ROOT))
        shutil.rmtree(out_dir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="K=2 on every workload, traced and untraced")
    parser.add_argument("--write-reference", action="store_true", help="regenerate bench/reference/")
    args = parser.parse_args(argv)

    if not (SRC / "sstac" / "__init__.py").is_file():
        print(f"bench: no sstac sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")

    trace = bool(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    result["env"] = environment(result)
    result["metrics"] = metrics(result, trace)
    report(result, trace)
    print(f"result file: {save_result(result, trace).relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
