"""Experiment configuration, run orchestration, sweeps, and trace checking."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import BALL_SLACK, ConfigError
from .features import tabular_features
from .linear_ac import run_linear_ac
from .loop import SETTINGS, check_setting
from .mdp import build_mdp
from .neural_ac import run_neural_ac
from .trace import MANIFEST_FILENAME, TRACE_FILENAME, RunTrace, load_trace, write_text

# Config keys each algorithm reads beyond mdp, algorithm, K, seeds, R and
# beta, mapped to whether a config must set them.
ALGORITHM_KEYS = {
    "linear_exact": {},
    "linear_sampled": {"N": True, "ridge": False},
    "neural": {"arch": True, "N_a": False, "N_c": False},
}
ALGORITHMS = tuple(ALGORITHM_KEYS)
_COMMON_KEYS = {"mdp", "algorithm", "K", "seeds", "R", "beta"}
_ARCH_KEYS = ("m", "H")  # d is fixed by the encoding


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description: the JSON config's checked settings, keyed by their SETTINGS names."""

    mdp: str
    algorithm: str
    seeds: tuple[int, ...]
    settings: dict  # the settings the config sets; arch's m and H are stored as m and H

    def to_dict(self) -> dict:
        doc = {"mdp": self.mdp, "algorithm": self.algorithm, "seeds": list(self.seeds)}
        doc.update((key, value) for key, value in self.settings.items() if key not in _ARCH_KEYS)
        if "m" in self.settings:
            doc["arch"] = {key: self.settings[key] for key in _ARCH_KEYS}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - _COMMON_KEYS.union(*ALGORITHM_KEYS.values())
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("mdp", "algorithm", "K"):
            if key not in doc:
                raise ConfigError(f"config is missing required key {key!r}")

        algorithm = doc["algorithm"]
        if algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
        reads = ALGORITHM_KEYS[algorithm]
        foreign = set(doc) - _COMMON_KEYS - set(reads)
        if foreign:
            raise ConfigError(f"algorithm {algorithm!r} does not read config keys {sorted(foreign)}")
        for key, required in reads.items():
            if required and key not in doc:
                raise ConfigError(f"algorithm {algorithm!r} requires config key {key!r}")
        settings = {key: check_setting(key, doc[key], ConfigError) for key in SETTINGS if key in doc}
        if "arch" in doc:
            arch = doc["arch"]
            if not isinstance(arch, dict) or not set(arch) <= set(_ARCH_KEYS):
                raise ConfigError("arch must be an object with keys among {m, H}; the input dimension is S + A")
            settings.update((key, check_setting(key, arch.get(key), ConfigError)) for key in _ARCH_KEYS)
        seeds = doc.get("seeds", [0])
        if not isinstance(seeds, list) or not seeds:  # by type, as Python reprs no int past 4,300 digits
            shown = repr(seeds) if isinstance(seeds, list) else f"type {type(seeds).__name__}"
            raise ConfigError(f"seeds must be a non-empty list of integers >= 0, got {shown}")
        seeds = tuple(check_setting("seed", seed, ConfigError) for seed in seeds)
        repeated = _first_repeat(seeds)
        if repeated is not None:
            raise ConfigError(f"seeds must be distinct; seed {repeated} is listed more than once")

        # mdp.build_mdp resolves the source, and execute_run reports a bad one.
        if not isinstance(doc["mdp"], str):
            raise ConfigError("mdp must be a builtin name, random(S,A,seed), or a JSON path")
        return cls(mdp=doc["mdp"], algorithm=algorithm, seeds=seeds, settings=settings)


def _first_repeat(values: list):
    return next((v for i, v in enumerate(values) if v in values[:i]), None)


def run_id(config: ExperimentConfig, seed: int) -> str:
    compact = config.mdp.replace(" ", "")  # as build_mdp reads random(S, A, seed)
    random_label = compact.replace("(", "-").replace(",", "-").rstrip(")")
    label = random_label if compact.startswith("random(") else Path(config.mdp).stem
    return f"{config.algorithm}-{label}-K{config.settings['K']}-seed{seed}"


def execute_run(config: ExperimentConfig, seed: int) -> RunTrace:
    """Run one seed of an experiment; adds what only the config knows to the run's manifest."""
    started = datetime.now(timezone.utc)
    t0 = time.perf_counter()
    try:
        mdp = build_mdp(config.mdp)
    except (OSError, ValueError, TypeError, OverflowError) as exc:  # unreadable, malformed or invalid MDP file
        raise ConfigError(f"cannot load MDP {config.mdp!r}: {exc}") from exc
    # A setting the config leaves unset keeps the driver's default.
    settings = {"seed": seed, **config.settings}
    if config.algorithm == "neural":
        driver, args = run_neural_ac, ()
    else:
        driver, args = run_linear_ac, (tabular_features(mdp.n_states, mdp.n_actions),)
        settings["mode"] = config.algorithm.removeprefix("linear_")
    try:
        trace = driver(mdp, *args, **settings)
    except MemoryError as exc:  # an allocation the sizes ask for is refused outright
        raise ConfigError(f"cannot allocate the run's arrays ({exc}); use smaller sizes (N, N_a, N_c, arch)") from exc
    trace.manifest.update(
        config=config.to_dict(),
        started_at=started.isoformat(),
        duration_s=time.perf_counter() - t0,
        run_id=run_id(config, seed),
    )
    return trace


def _execute_and_save(config: ExperimentConfig, seed: int, base: Path, suffix: str = "") -> RunTrace:
    """Run one seed and save its trace under ``base``, in the directory named by its run id plus ``suffix``."""
    trace = execute_run(config, seed)
    trace.manifest["run_id"] += suffix
    trace.save(base / trace.manifest["run_id"])
    return trace


def run_command(config: ExperimentConfig, out_dir: str | None = None) -> list[Path]:
    """Execute every seed of a config and persist each trace; returns the directories."""
    base = Path(out_dir or "runs")
    return [base / _execute_and_save(config, seed, base).manifest["run_id"] for seed in config.seeds]


SWEEPABLE = ("K", "N", "N_a", "N_c")
_SUMMARY_COLUMNS = ("param_value", "seed", "final_gap", "cum_regret", "regret_over_sqrtK")


def sweep_command(
    config: ExperimentConfig, param: str, values: list[int], out_dir: str | None = None
) -> tuple[Path, list[dict]]:
    """One run per (value, seed), run one after another.

    Each run is saved under its run id, plus ``-<param><value>`` unless the
    parameter is K (which the run id names already).  Writes summary.csv with
    one row per finished run, and returns its path plus rows.
    """
    if param not in SWEEPABLE:
        raise ConfigError(f"sweep parameter must be one of {SWEEPABLE}, got {param!r}")
    if not values:
        raise ConfigError("a sweep needs at least one value")
    repeated = _first_repeat(values)
    if repeated is not None:
        raise ConfigError(f"sweep values must be distinct; {param}={repeated} is listed more than once")
    base = Path(out_dir or "sweep")
    jobs = []
    for value in values:
        derived = ExperimentConfig.from_dict({**config.to_dict(), param: value})
        for seed in derived.seeds:
            jobs.append((value, seed, derived))

    results, summary, header = [], base / "summary.csv", ",".join(_SUMMARY_COLUMNS)
    write_text(summary, header + "\n")  # before the first run, so an unwritable summary costs no run
    for value, seed, derived in jobs:
        trace = _execute_and_save(derived, seed, base, suffix="" if param == "K" else f"-{param}{value}")
        final_gap, cum, K = trace.column("gap")[-1], trace.column("cum_regret")[-1], derived.settings["K"]
        results.append(dict(zip(_SUMMARY_COLUMNS, (value, seed, final_gap, cum, cum / math.sqrt(K)))))
        # Rewritten after every run, so a sweep that stops keeps its finished rows; repr round-trips every float.
        results.sort(key=lambda row: (row["param_value"], row["seed"]))
        lines = [header] + [",".join(repr(row[c]) for c in _SUMMARY_COLUMNS) for row in results]
        write_text(summary, "\n".join(lines) + "\n")
    return summary, results


# ---------------------------------------------------------------------------
# Trace checking (the `diag` verb)
# ---------------------------------------------------------------------------

_SERIES_SOURCE = {"gap": "gap", "e_norm": "e_sup", "eps_c": "eps_c_l2", "theta_kl": "theta_kl"}  # series: column
DIAG_SERIES = tuple(_SERIES_SOURCE)


@dataclass
class DiagCheck:
    name: str
    ok: bool
    detail: str = ""


# The columns diag_series_csv and diag_checks read.
_DIAG_COLUMNS = (
    *_SERIES_SOURCE.values(), "k", "cum_regret", "a_resid", "kl_to_opt", "eps_c_sup", "eps_a", "critic_norm"
)


def diag_checks(trace: RunTrace) -> list[DiagCheck]:
    """Recompute the stored-trace identities and report pass/fail per invariant.

    Each invariant bounds every row, so a NaN in a column it reads fails it.
    """
    col = {name: np.array(trace.column(name), dtype=float) for name in _DIAG_COLUMNS}
    checks = []

    def check(name: str, within_bound, detail) -> None:
        failed = np.flatnonzero(~np.asarray(within_bound))  # detail(k) names the first failing row k
        checks.append(DiagCheck(name, not failed.size, detail(int(failed[0])) if failed.size else ""))

    params = trace.manifest["params"]  # every run writes it; diag_command checks its type
    expected, found, k = params["K"] + 1, len(trace.rows), col["k"]
    if found != expected:
        check("row-count", False, lambda _: f"expected {expected} rows, found {found}")
    else:  # row i holds k = i; the rows, not the manifest's K, size the comparison
        check("row-count", k == np.arange(found), lambda i: f"row {i} has k={k[i]:g}, expected k={i}")
    cum = col["cum_regret"]
    running = np.concatenate(([0.0], cum[:-1])) + col["gap"]  # cum_regret_{k-1} + gap_k
    within = np.abs(running - cum) <= 1e-9 * np.maximum(1.0, np.abs(running))
    check("regret-consistency", within, lambda k: f"cum_regret mismatch at row k={k}")
    a_resid = col["a_resid"]  # a_resid and eps_c_sup are sup norms, so 0 bounds them below
    within = (0.0 <= a_resid) & (a_resid <= 1e-10)
    check("decomposition-identity", within, lambda k: f"A1+A2+A3 residual {a_resid[k]:.3e} at row k={k}")
    # The actor's KL steps telescope: theta_kl_0 + ... + theta_kl_k = KL_0 - kl_to_opt_k.
    theta_kl, kl_to_opt = col["theta_kl"], col["kl_to_opt"]
    within = np.abs(np.cumsum(theta_kl) - (theta_kl[0] + kl_to_opt[0] - kl_to_opt)) <= 1e-9
    check("kl-telescoping", within, lambda k: f"telescoped KL mismatch at row k={k}")
    if params["algorithm"] == "linear_exact":  # a critic the ball clipped is not its Bellman target, so eps_c > 0
        eps_sup, norm, edge = col["eps_c_sup"], col["critic_norm"], params["R"] * (1.0 - BALL_SLACK)
        within = (norm >= edge) | (norm < edge) & (0.0 <= eps_sup) & (eps_sup <= 1e-9)  # a NaN norm fails both
        check("exact-critic-eps-c", within, lambda k: f"eps_c sup norm {eps_sup[k]:.3e} at row k={k} outside [0, 1e-9]")
    if "gamma" in params:  # the per-row bound of the paper's regret ledger; a trace without gamma predates it
        gamma, beta, gap = params["gamma"], params["beta"], col["gap"]
        bound = gamma / (1.0 - gamma) * (beta * (theta_kl + col["eps_a"]) + 2.0 * col["e_sup"] / (1.0 - gamma)) + 1e-9
        check("regret-bound", gap <= bound, lambda k: f"gap {gap[k]:.6g} exceeds the bound {bound[k]:.6g} at row k={k}")
    return checks


def diag_series_csv(trace: RunTrace) -> str:
    """Long-format (series, iter, value) CSV for the four headline diagnostics."""
    lines = ["series,iter,value"]
    for series in DIAG_SERIES:
        for k, v in enumerate(trace.column(_SERIES_SOURCE[series])):  # diag_checks holds k to the row position
            lines.append(f"{series},{k},{v!r}")
    return "\n".join(lines) + "\n"


def diag_command(trace_dir) -> tuple[list[DiagCheck], Path]:
    trace_dir = Path(trace_dir)
    trace = load_trace(trace_dir)
    manifest_path, csv_path = trace_dir / MANIFEST_FILENAME, trace_dir / TRACE_FILENAME
    params = trace.manifest.get("params")
    if not (isinstance(params, dict) and type(params.get("K")) is int and isinstance(params.get("algorithm"), str)):
        raise ConfigError(f"{manifest_path}: 'params' must be an object with an integer 'K' and a string 'algorithm'")
    gamma, beta = params.get("gamma", 0.0), params.get("beta") if "gamma" in params else 1.0  # no gamma: an older trace
    if not (type(gamma) in (int, float) and 0 <= gamma < 1 and type(beta) in (int, float) and beta > 0):
        raise ConfigError(f"{manifest_path}: 'params' needs 'gamma' in [0, 1) and 'beta' > 0, got {gamma!r}, {beta!r}")
    if not (type(params.get("R")) in (int, float) and params["R"] >= 0):
        raise ConfigError(f"{manifest_path}: 'params' needs a number 'R' >= 0, got {params.get('R')!r}")
    missing = next((c for c in _DIAG_COLUMNS if c not in trace.columns), None)
    if missing is not None:
        raise ConfigError(f"{csv_path}: missing column {missing!r}")
    if not trace.rows:
        raise ConfigError(f"{csv_path}: no rows after the header")
    out_path = trace_dir / "diag_series.csv"
    write_text(out_path, diag_series_csv(trace))
    return diag_checks(trace), out_path
