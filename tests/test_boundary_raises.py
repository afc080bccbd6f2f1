"""Each public entry point names the input it rejects: one case per raise, with its class and message."""

from pathlib import Path

import numpy as np
import pytest

from sstac import ConfigError, ContractViolationError, ParameterError, TabularMDP, chain2, load_trace
from sstac.deep_net import forward, init_params, project_ball
from sstac.features import FeatureMap, gram_matrix, random_features, tabular_features
from sstac.harness import ExperimentConfig
from sstac.mdp import apply_P_pi, check_policy_matrix, mdp_from_json, mdp_to_json
from sstac.neural_ac import run_neural_ac
from sstac.policy import kl, softmax_rows
from sstac.sampling import categorical

BASE_CFG = {"mdp": "chain2", "algorithm": "linear_exact", "K": 4}


def chain2_with(**fields):
    base = chain2()
    doc = {"transition": base.transition, "reward": base.reward, "gamma": base.gamma, "initial_dist": base.initial_dist}
    return TabularMDP(**{**doc, **fields})


def empty_trace():
    # Relative to the test's working directory, a fresh tmp_path.
    Path("run").mkdir()
    Path("run/trace.csv").write_text("")
    Path("run/manifest.json").write_text("{}")
    return load_trace("run")


CASES = {
    "deep_net-input-shape": (
        lambda: forward(init_params(3, 4, 1, seed=0), np.zeros(2)),
        ContractViolationError, "input must have shape (3,), got (2,)",
    ),
    "deep_net-negative-radius": (
        lambda: project_ball(init_params(3, 4, 1, seed=0), -1.0),
        ContractViolationError, "radius must be >= 0",
    ),
    "features-phi-rank": (
        lambda: FeatureMap(phi=np.zeros((2, 2))),
        ContractViolationError, "phi must have shape (S, A, d), got (2, 2)",
    ),
    "features-weights-shape": (
        lambda: tabular_features(2, 2).value_table(np.zeros(3)),
        ContractViolationError, "weights must have shape (4,), got (3,)",
    ),
    "features-zero-dim": (
        lambda: random_features(2, 2, 0, seed=0),
        ContractViolationError, "feature dimension must be >= 1",
    ),
    "features-rho-shape": (
        lambda: gram_matrix(tabular_features(2, 2), np.zeros(3)),
        ContractViolationError, "rho must have shape (2, 2), got (3,)",
    ),
    "harness-config-not-object": (
        lambda: ExperimentConfig.from_dict([BASE_CFG]),
        ConfigError, "config must be a JSON object",
    ),
    "harness-mdp-not-string": (
        lambda: ExperimentConfig.from_dict({**BASE_CFG, "mdp": 3}),
        ConfigError, "mdp must be a builtin name, random(S,A,seed), or a JSON path",
    ),
    "harness-number-not-number": (
        lambda: ExperimentConfig.from_dict({**BASE_CFG, "R": "1"}),
        ConfigError, "R must be a number, got '1'",
    ),
    "mdp-transition-shape": (
        lambda: chain2_with(transition=np.full((2, 2, 3), 1 / 3)),
        ContractViolationError, "transition must have shape (S, A, S), got (2, 2, 3)",
    ),
    "mdp-reward-shape": (
        lambda: chain2_with(reward=np.zeros(2)),
        ContractViolationError, "reward must have shape (2, 2), got (2,)",
    ),
    "mdp-initial-dist-shape": (
        lambda: chain2_with(initial_dist=np.ones(3) / 3),
        ContractViolationError, "initial_dist must have shape (2,), got (3,)",
    ),
    "mdp-negative-transition": (
        lambda: chain2_with(transition=np.tile([-0.5, 1.5], (2, 2, 1))),
        ContractViolationError, "transition has negative entries",
    ),
    "mdp-negative-initial-dist": (
        lambda: chain2_with(initial_dist=np.array([-0.5, 1.5])),
        ContractViolationError, "initial_dist has negative entries",
    ),
    "mdp-policy-shape": (
        lambda: check_policy_matrix(chain2(), np.full((2, 3), 1 / 3)),
        ContractViolationError, "policy must have shape (2, 2), got (2, 3)",
    ),
    "mdp-negative-policy": (
        lambda: check_policy_matrix(chain2(), np.array([[-0.5, 1.5], [0.5, 0.5]])),
        ContractViolationError, "policy has negative entries",
    ),
    "mdp-q-shape": (
        lambda: apply_P_pi(chain2(), np.full((2, 2), 0.5), np.zeros(3)),
        ContractViolationError, "q must have shape (2, 2), got (3,)",
    ),
    "mdp-json-transition-shape": (
        lambda: mdp_from_json({**mdp_to_json(chain2()), "n_states": 3}),
        ContractViolationError, "transition shape (2, 2, 2) does not match declared (3, 2, 3)",
    ),
    "neural_ac-inner-count": (
        lambda: run_neural_ac(chain2(), 8, 2, 1, n_actor=0),
        ParameterError, "inner iteration counts must be >= 1",
    ),
    "policy-nonfinite-logits": (
        lambda: softmax_rows(np.array([[np.nan, 0.0]])),
        ContractViolationError, "softmax requires finite logits",
    ),
    "policy-kl-shapes": (
        lambda: kl(np.full(2, 1 / 2), np.full(3, 1 / 3)),
        ContractViolationError, "shape mismatch: (2,) vs (3,)",
    ),
    "sampling-probs": (
        lambda: categorical(np.random.default_rng(0), np.array([0.5, 0.6]), 1),
        ContractViolationError, "categorical probabilities must be nonnegative and sum to 1",
    ),
    "trace-empty-csv": (
        empty_trace,
        ConfigError, "run/trace.csv is empty",
    ),
}


@pytest.mark.parametrize("call, error, message", CASES.values(), ids=CASES.keys())
def test_rejected_input_raises_named_error(tmp_path, monkeypatch, call, error, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
