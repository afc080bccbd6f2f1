"""Each public entry point names the input it rejects: one case per raise, with its class and message."""

from pathlib import Path

import numpy as np
import pytest

from sstac import ConfigError, ContractViolationError, ParameterError, TabularMDP, chain2, load_trace
from sstac.deep_net import forward, init_params, project_ball
from sstac.features import FeatureMap, gram_matrix, random_features, tabular_features
from sstac.harness import ExperimentConfig
from sstac.mdp import apply_P_pi, check_policy_matrix, mdp_from_json
from sstac.linear_ac import run_linear_ac
from sstac.neural_ac import run_neural_ac
from sstac.policy import kl, softmax_rows
from sstac.sampling import sample_sa, sample_tuples

from conftest import mdp_doc

BASE_CFG = {"mdp": "chain2", "algorithm": "linear_exact", "K": 4}


def chain2_with(**fields):
    base = chain2()
    doc = {"transition": base.transition, "reward": base.reward, "gamma": base.gamma, "initial_dist": base.initial_dist}
    return TabularMDP(**{**doc, **fields})


def chain2_tuples(rho, policy_next):
    return sample_tuples(chain2(), rho, policy_next, np.random.default_rng(0), 4)


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
        ContractViolationError, "radius must be >= 0, got -1.0",
    ),
    "deep_net-zero-width": (
        lambda: init_params(3, 0, 1, seed=0),
        ContractViolationError, "d, m, and depth must all be >= 1, got 3, 0 and 1",
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
        ContractViolationError, "feature dimension must be >= 1, got 0",
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
        ContractViolationError, "transition entry (0, 0, 0) is -0.5, negative",
    ),
    "mdp-negative-initial-dist": (
        lambda: chain2_with(initial_dist=np.array([-0.5, 1.5])),
        ContractViolationError, "initial_dist entry (0,) is -0.5, negative",
    ),
    "mdp-policy-shape": (
        lambda: check_policy_matrix(chain2(), np.full((2, 3), 1 / 3)),
        ContractViolationError, "policy must have shape (2, 2), got (2, 3)",
    ),
    "mdp-negative-policy": (
        lambda: check_policy_matrix(chain2(), np.array([[-0.5, 1.5], [0.5, 0.5]])),
        ContractViolationError, "policy entry (0, 0) is -0.5, negative",
    ),
    "mdp-policy-row-sum": (
        lambda: check_policy_matrix(chain2(), np.array([[0.5, 0.5], [0.5, 0.75]])),
        ContractViolationError, "policy row (1,) sums to 1.25, expected 1",
    ),
    "mdp-nan-policy": (
        lambda: apply_P_pi(chain2(), np.array([[np.nan, np.nan], [0.5, 0.5]]), np.zeros((2, 2))),
        ContractViolationError, "policy entry (0, 0) is nan, not finite",
    ),
    "mdp-q-shape": (
        lambda: apply_P_pi(chain2(), np.full((2, 2), 0.5), np.zeros(3)),
        ContractViolationError, "q must have shape (2, 2), got (3,)",
    ),
    "mdp-json-transition-shape": (
        lambda: mdp_from_json({**mdp_doc(chain2()), "n_states": 3}),
        ContractViolationError, "transition shape (2, 2, 2) does not match declared (3, 2, 3)",
    ),
    "neural_ac-inner-count": (
        lambda: run_neural_ac(chain2(), 8, 2, 1, n_actor=0),
        ParameterError, "inner iteration counts must be >= 1, got N_a=0 and N_c=400",
    ),
    "linear_ac-zero-K": (
        lambda: run_linear_ac(chain2(), tabular_features(2, 2), 0),
        ParameterError, "K must be >= 1, got 0",
    ),
    "linear_ac-sampled-zero-N": (
        lambda: run_linear_ac(chain2(), tabular_features(2, 2), 2, mode="sampled", N=0),
        ParameterError, "N must be >= 1 in sampled mode, got 0",
    ),
    "policy-nonfinite-logits": (
        lambda: softmax_rows(np.array([[np.nan, 0.0]])),
        ContractViolationError, "logits entry (0, 0) is nan, not finite",
    ),
    "policy-kl-shapes": (
        lambda: kl(np.full(2, 1 / 2), np.full(3, 1 / 3)),
        ContractViolationError, "shape mismatch: (2,) vs (3,)",
    ),
    "sampling-sa-nan-rho": (
        lambda: sample_sa(np.array([[0.5, 0.5], [np.nan, 0.0]]), np.random.default_rng(0), 4),
        ContractViolationError, "rho entry (1, 0) is nan, not finite",
    ),
    "sampling-sa-negative-rho": (
        lambda: sample_sa(np.array([[0.5, 0.5], [0.25, -0.25]]), np.random.default_rng(0), 4),
        ContractViolationError, "rho entry (1, 1) is -0.25, negative",
    ),
    "sampling-sa-rho-sum": (
        lambda: sample_sa(np.array([[0.5, 0.5], [0.25, 0.0]]), np.random.default_rng(0), 4),
        ContractViolationError, "rho sums to 1.25, expected 1",
    ),
    "sampling-tuples-nan-policy": (
        lambda: chain2_tuples(np.full((2, 2), 0.25), np.array([[np.nan, np.nan], [0.5, 0.5]])),
        ContractViolationError, "policy entry (0, 0) is nan, not finite",
    ),
    "sampling-tuples-policy-shape": (
        lambda: chain2_tuples(np.full((2, 2), 0.25), np.full((3, 3), 1 / 3)),
        ContractViolationError, "policy must have shape (2, 2), got (3, 3)",
    ),
    "sampling-tuples-rho-shape": (
        lambda: chain2_tuples(np.full(4, 0.25), np.full((2, 2), 0.5)),
        ContractViolationError, "rho must have shape (2, 2), got (4,)",
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
