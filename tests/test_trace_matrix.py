"""Byte identity of every trace in a fixed 64-case matrix.

Each case runs one driver (or one config through ``execute_run``) and is
pinned by the sha256 of its ``trace.csv`` text, or, for a case that raises,
by the error class and message.  The hashes live in
``data/trace_matrix.json``.  Regenerate that file only for a deliberate,
logged trace change:

    PYTHONPATH=src python tests/test_trace_matrix.py

which prints the name of every case whose outcome changed, and their count.
"""

import hashlib
import json
from functools import partial
from pathlib import Path

import pytest

from sstac import ExperimentConfig, build_mdp, execute_run, random_features, run_linear_ac, run_neural_ac, tabular_features

PINS = Path(__file__).parent / "data" / "trace_matrix.json"

MDPS = ("chain2", "gridworld5", "random(16,4,7)", "random(64,8,0)")
FEATURES = {
    "tabular": lambda mdp: tabular_features(mdp.n_states, mdp.n_actions),
    "random6": lambda mdp: random_features(mdp.n_states, mdp.n_actions, 6, seed=3),
}
MODES = {
    "exact": {"mode": "exact"},
    "sampled512-ridge": {"mode": "sampled", "N": 512, "ridge": 1e-3},
    "sampled4096": {"mode": "sampled", "N": 4096},
}
CONFIGS = {
    "gridworld5-exact-R-beta": {"mdp": "gridworld5", "algorithm": "linear_exact", "K": 5, "R": 25.0, "beta": 1.5},
    "random16-sampled": {"mdp": "random(16,4,7)", "algorithm": "linear_sampled", "K": 4, "N": 512, "ridge": 1e-3},
    "chain2-neural": {"mdp": "chain2", "algorithm": "neural", "K": 2, "arch": {"m": 8, "H": 2}, "N_a": 16, "N_c": 16},
    # The critic's ball projection is active: the logged critic_norm ends within 1% of R.
    "chain2-neural-active-ball": {
        "mdp": "chain2", "algorithm": "neural", "K": 3, "arch": {"m": 8, "H": 2}, "N_a": 100, "N_c": 100, "R": 0.3,
    },
    # The ball at radius 0 (every iterate projected to its centre) and at a radius every critic solve exceeds.
    "chain2-exact-R0": {"mdp": "chain2", "algorithm": "linear_exact", "K": 4, "R": 0.0},
    "gridworld5-exact-R1e-3": {"mdp": "gridworld5", "algorithm": "linear_exact", "K": 4, "R": 1e-3},
    "chain2-sampled-R0": {"mdp": "chain2", "algorithm": "linear_sampled", "K": 4, "N": 256, "R": 0.0},
    "gridworld5-sampled-R1e-3": {
        "mdp": "gridworld5", "algorithm": "linear_sampled", "K": 4, "N": 512, "ridge": 1e-3, "R": 1e-3,
    },
    "chain2-neural-R0": {
        "mdp": "chain2", "algorithm": "neural", "K": 2, "arch": {"m": 8, "H": 2}, "N_a": 16, "N_c": 16, "R": 0.0,
    },
}


def _linear(source, feature, mode, seed, **settings):
    mdp = build_mdp(source)
    return run_linear_ac(mdp, FEATURES[feature](mdp), 6, seed=seed, **MODES[mode], **settings).to_csv_text()


def _neural(source, seed):
    return run_neural_ac(build_mdp(source), 8, 2, 3, N_a=20, N_c=20, seed=seed).to_csv_text()


def _config(name):
    trace = execute_run(ExperimentConfig.from_dict(CONFIGS[name]), 0)
    return trace.manifest["run_id"] + "\n" + trace.to_csv_text()


CASES = {
    **{
        f"linear/{source}/{feature}/{mode}/seed{seed}": partial(_linear, source, feature, mode, seed)
        for source in MDPS
        for feature in FEATURES
        for mode in MODES
        for seed in (0, 1)
    },
    **{f"neural/{source}/seed{seed}": partial(_neural, source, seed) for source in MDPS[:3] for seed in (0, 1)},
    "linear/random(16,4,7)/random6/exact-R0/seed0": partial(_linear, "random(16,4,7)", "random6", "exact", 0, R=0.0),
    **{f"config/{name}": partial(_config, name) for name in CONFIGS},
}


def outcome(run) -> dict:
    try:
        text = run()
    except Exception as exc:  # a pinned failure is part of the contract too
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


def test_pins_cover_exactly_the_matrix():
    assert sorted(json.loads(PINS.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_pinned_hash(case):
    assert outcome(CASES[case]) == json.loads(PINS.read_text())[case]


if __name__ == "__main__":
    old = json.loads(PINS.read_text()) if PINS.exists() else {}
    new = {case: outcome(run) for case, run in sorted(CASES.items())}
    changed = sorted(case for case in old.keys() | new.keys() if old.get(case) != new.get(case))
    print("\n".join(changed + [f"{len(changed)} of {len(new)} cases changed"]))
    PINS.write_text(json.dumps(new, indent=1) + "\n")
