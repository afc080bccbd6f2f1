"""Experiment configuration, run orchestration, sweeps, and trace checking."""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .features import tabular_features
from .linear_ac import run_linear_ac
from .mdp import build_mdp
from .neural_ac import run_neural_ac
from .trace import MANIFEST_FILENAME, TRACE_FILENAME, RunTrace, load_trace

# Config keys each algorithm reads beyond mdp, algorithm, K, seeds, R and
# beta, mapped to whether a config must set them.
ALGORITHM_KEYS = {
    "linear_exact": {},
    "linear_sampled": {"N": True, "ridge": False},
    "neural": {"arch": True, "N_a": False, "N_c": False},
}
ALGORITHMS = tuple(ALGORITHM_KEYS)
_COMMON_KEYS = {"mdp", "algorithm", "K", "seeds", "R", "beta"}

_ARCH_KEYS = {"m", "H"}

# Numeric config keys: (type, lower bound[, bound is exclusive]).
_NUMBERS = {
    "K": (int, 1), "N": (int, 1), "N_a": (int, 1), "N_c": (int, 1),
    "R": (float, 0.0), "beta": (float, 0.0, True), "ridge": (float, 0.0),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; mirrors the JSON config schema."""

    mdp: str
    algorithm: str
    K: int
    seeds: tuple[int, ...] = (0,)
    N: int | None = None
    N_a: int | None = None
    N_c: int | None = None
    arch: tuple[int, int] | None = None  # (m, H); d is fixed by the encoding
    R: float | None = None
    beta: float | None = None
    ridge: float | None = None

    def to_dict(self) -> dict:
        doc = {key: value for key, value in asdict(self).items() if value is not None}
        doc["seeds"] = list(self.seeds)
        if self.arch is not None:
            doc["arch"] = {"m": self.arch[0], "H": self.arch[1]}
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - {f.name for f in fields(cls)}
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
        numbers = {key: _number(doc, key, *spec) for key, spec in _NUMBERS.items() if key in doc}
        seeds = doc.get("seeds", [0])
        if not isinstance(seeds, list) or not seeds or not all(type(s) is int and s >= 0 for s in seeds):
            raise ConfigError(f"seeds must be a non-empty list of integers >= 0, got {seeds!r}")
        repeated = _first_repeat(seeds)
        if repeated is not None:
            raise ConfigError(f"seeds must be distinct; seed {repeated} is listed more than once")

        # mdp.build_mdp resolves the source, and execute_run reports a bad one.
        if not isinstance(doc["mdp"], str):
            raise ConfigError("mdp must be a builtin name, random(S,A,seed), or a JSON path")

        arch = None
        if "arch" in doc:
            arch_doc = doc["arch"]
            if not isinstance(arch_doc, dict) or not set(arch_doc) <= _ARCH_KEYS:
                raise ConfigError("arch must be an object with keys among {m, H}; the input dimension is S + A")
            arch = (_number(arch_doc, "m", int, 1), _number(arch_doc, "H", int, 1))

        return cls(mdp=doc["mdp"], algorithm=algorithm, seeds=tuple(seeds), arch=arch, **numbers)


def _number(doc: dict, key: str, kind: type, minimum, strict: bool = False):
    value = doc.get(key)
    if kind is int:
        if type(value) is not int or value < minimum:
            raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
        return value
    if type(value) not in (int, float):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    value = float(value)
    if not value >= minimum or (strict and value <= minimum):  # NaN fails the first test
        raise ConfigError(f"{key} must be {'>' if strict else '>='} {minimum}, got {value}")
    if math.isinf(value):  # JSON's Infinity token parses too
        raise ConfigError(f"{key} must be finite, got {value}")
    return value


def _first_repeat(values: list):
    return next((v for i, v in enumerate(values) if v in values[:i]), None)


def _mdp_label(source: str) -> str:
    compact = source.replace(" ", "")  # as build_mdp reads random(S, A, seed)
    if compact.startswith("random("):
        return compact.replace("(", "-").replace(",", "-").rstrip(")")
    return Path(source).stem


def run_id(config: ExperimentConfig, seed: int) -> str:
    return f"{config.algorithm}-{_mdp_label(config.mdp)}-K{config.K}-seed{seed}"


def execute_run(config: ExperimentConfig, seed: int) -> RunTrace:
    """Run one seed of an experiment; adds what only the config knows to the run's manifest."""
    started = datetime.now(timezone.utc)
    t0 = time.perf_counter()
    try:
        mdp = build_mdp(config.mdp)
    except (OSError, ValueError, TypeError) as exc:  # unreadable, malformed or invalid MDP file
        raise ConfigError(f"cannot load MDP {config.mdp!r}: {exc}") from exc
    if config.algorithm == "neural":
        driver, args = run_neural_ac, (mdp, *config.arch, config.K)
        settings = {"n_actor": config.N_a, "n_critic": config.N_c}
    else:
        driver, args = run_linear_ac, (mdp, tabular_features(mdp.n_states, mdp.n_actions), config.K)
        settings = {"mode": config.algorithm.removeprefix("linear_"), "N": config.N, "ridge": config.ridge}
    settings.update(seed=seed, radius=config.R, beta=config.beta)
    # A setting the config leaves unset (None) keeps the driver's default.
    try:
        trace = driver(*args, **{name: value for name, value in settings.items() if value is not None})
    except MemoryError as exc:  # an allocation the sizes ask for is refused outright
        raise ConfigError(f"cannot allocate the run's arrays ({exc}); use smaller sizes (N, N_a, N_c, arch)") from exc
    trace.manifest.update(
        config=config.to_dict(),
        started_at=started.isoformat(),
        duration_s=time.perf_counter() - t0,
        run_id=run_id(config, seed),
    )
    return trace


def run_command(config: ExperimentConfig, out_dir: str | None = None) -> list[Path]:
    """Execute every seed of a config and persist each trace; returns the directories."""
    base = Path(out_dir or "runs")
    dirs = []
    for seed in config.seeds:
        trace = execute_run(config, seed)
        dirs.append(trace.save(base / trace.manifest["run_id"]))
    return dirs


SWEEPABLE = tuple(key for key, (kind, *_) in _NUMBERS.items() if kind is int)
_SUMMARY_COLUMNS = ("param_value", "seed", "final_gap", "cum_regret", "regret_over_sqrtK")


def sweep_command(
    config: ExperimentConfig, param: str, values: list[int], out_dir: str | None = None
) -> tuple[Path, list[dict]]:
    """One run per (value, seed), run one after another.

    Each run is saved under its run id, plus ``-<param><value>`` unless the
    parameter is K (which the run id names already).  Writes summary.csv with
    one row per run and returns its path plus rows.
    """
    if param not in SWEEPABLE:
        raise ConfigError(f"sweep parameter must be one of {SWEEPABLE}, got {param!r}")
    repeated = _first_repeat(values)
    if repeated is not None:
        raise ConfigError(f"sweep values must be distinct; {param}={repeated} is listed more than once")
    base = Path(out_dir or "sweep")
    jobs = []
    for value in values:
        derived = ExperimentConfig.from_dict({**config.to_dict(), param: value})
        for seed in derived.seeds:
            jobs.append((value, seed, derived))

    results = []
    for value, seed, derived in jobs:
        trace = execute_run(derived, seed)
        if param != "K":
            trace.manifest["run_id"] += f"-{param}{value}"
        trace.save(base / trace.manifest["run_id"])
        final_gap, cum = trace.column("gap")[-1], trace.column("cum_regret")[-1]
        results.append(dict(zip(_SUMMARY_COLUMNS, (value, seed, final_gap, cum, cum / math.sqrt(derived.K)))))
    results.sort(key=lambda row: (row["param_value"], row["seed"]))
    base.mkdir(parents=True, exist_ok=True)
    # repr writes ints as str does and floats in their shortest round-trip form.
    lines = [",".join(_SUMMARY_COLUMNS)] + [",".join(repr(row[c]) for c in _SUMMARY_COLUMNS) for row in results]
    summary = base / "summary.csv"
    summary.write_text("\n".join(lines) + "\n")
    return summary, results


# ---------------------------------------------------------------------------
# Trace checking (the `diag` verb)
# ---------------------------------------------------------------------------

DIAG_SERIES = ("gap", "e_norm", "eps_c", "theta_kl")
_SERIES_SOURCE = {"gap": "gap", "e_norm": "e_sup", "eps_c": "eps_c_l2", "theta_kl": "theta_kl"}


@dataclass
class DiagCheck:
    name: str
    ok: bool
    detail: str = ""


# The columns diag_checks and diag_series_csv read.
_DIAG_COLUMNS = ("k", "gap", "cum_regret", "a_resid", "theta_kl", "kl_to_opt", "eps_c_sup", "e_sup", "eps_c_l2")


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
    expected, found = params["K"] + 1, len(trace.rows)
    check("row-count", found == expected, lambda _: f"expected {expected} rows, found {found}")
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
    if params["algorithm"] == "linear_exact":
        eps_sup = col["eps_c_sup"]
        within = (0.0 <= eps_sup) & (eps_sup <= 1e-9)
        check("exact-critic-eps-c", within, lambda k: f"eps_c sup norm {eps_sup[k]:.3e} at row k={k} outside [0, 1e-9]")
    return checks


def diag_series_csv(trace: RunTrace) -> str:
    """Long-format (series, iter, value) CSV for the four headline diagnostics."""
    lines = ["series,iter,value"]
    ks = trace.column("k")
    for series in DIAG_SERIES:
        values = trace.column(_SERIES_SOURCE[series])
        for k, v in zip(ks, values):
            lines.append(f"{series},{int(k)},{v!r}")
    return "\n".join(lines) + "\n"


def diag_command(trace_dir) -> tuple[list[DiagCheck], Path]:
    trace_dir = Path(trace_dir)
    trace = load_trace(trace_dir)
    manifest_path, csv_path = trace_dir / MANIFEST_FILENAME, trace_dir / TRACE_FILENAME
    params = trace.manifest.get("params")
    if not (isinstance(params, dict) and type(params.get("K")) is int and isinstance(params.get("algorithm"), str)):
        raise ConfigError(f"{manifest_path}: 'params' must be an object with an integer 'K' and a string 'algorithm'")
    missing = next((c for c in _DIAG_COLUMNS if c not in trace.columns), None)
    if missing is not None:
        raise ConfigError(f"{csv_path}: missing column {missing!r}")
    if not trace.rows:
        raise ConfigError(f"{csv_path}: no rows after the header")
    checks = diag_checks(trace)
    out_path = trace_dir / "diag_series.csv"
    out_path.write_text(diag_series_csv(trace))
    return checks, out_path
