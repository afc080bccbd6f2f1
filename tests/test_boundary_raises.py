"""Each public entry point names the input it rejects: one case per raise, with its class and message."""

from pathlib import Path

import numpy as np
import pytest

from sstac import ConfigError, ContractViolationError, ParameterError, TabularMDP, chain2, load_trace
from sstac.deep_net import forward, forward_many, init_params, project_ball_inplace, sa_encoding_table
from sstac.features import FeatureMap, gram_matrix, random_features, tabular_features
from sstac.cli import main
from sstac.harness import ExperimentConfig, sweep_command
from sstac.mdp import apply_P_pi, check_policy_matrix, mdp_from_json
from sstac.linear_ac import critic_step_exact, critic_step_sampled, project_l2, run_linear_ac
from sstac.neural_ac import actor_inner_loop, run_neural_ac
from sstac.policy import kl, softmax_rows
from sstac.sampling import sample_sa, sample_tuples

from conftest import mdp_doc

BASE_CFG = {"mdp": "chain2", "algorithm": "linear_exact", "K": 4}


def chain2_with(**fields):
    base = chain2()
    doc = {"transition": base.transition, "reward": base.reward, "gamma": base.gamma, "initial_dist": base.initial_dist}
    return TabularMDP(**{**doc, **fields})


def chain2_tuples(rho, policy_next, n=4):
    return sample_tuples(chain2(), rho, policy_next, np.random.default_rng(0), n)


NAN_Q = np.array([[0.0, np.nan], [0.0, 0.0]])


def chain2_critic_exact(q_omega, radius=1.0):
    uniform = np.full((2, 2), 0.5)
    return critic_step_exact(q_omega, chain2(), uniform, tabular_features(2, 2), uniform / 2, radius=radius)


def chain2_critic_sampled(q_omega, n=4, features=None):
    rho, policy = np.full((2, 2), 0.25), np.full((2, 2), 0.5)
    batch = (sample_sa(rho, np.random.default_rng(0), n), chain2_tuples(rho, policy, n))
    return critic_step_sampled(q_omega, batch, features or tabular_features(2, 2), chain2().gamma, radius=1.0)


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
    "deep_net-batch-width": (
        lambda: forward_many(init_params(4, 8, 2, seed=0), np.zeros((3, 5))),
        ContractViolationError, "inputs must have shape (n, 4), got (3, 5)",
    ),
    "deep_net-batch-one-input": (
        lambda: forward_many(init_params(4, 8, 2, seed=0), np.zeros(4)),
        ContractViolationError, "inputs must have shape (n, 4), got (4,)",
    ),
    "deep_net-batch-nan": (
        lambda: forward_many(init_params(4, 8, 2, seed=0), np.array([[0.0, np.nan, 0.0, 0.0]])),
        ContractViolationError, "inputs entry (0, 1) is nan, not finite",
    ),
    "deep_net-negative-radius-inplace": (
        lambda: project_ball_inplace(init_params(3, 4, 1, seed=0), -1.0),
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
    "features-gram-transposed": (
        lambda: tabular_features(2, 3).gram(np.full((3, 2), 1 / 6)),
        ContractViolationError, "rho must have shape (2, 3), got (3, 2)",
    ),
    "features-weighted-sum-transposed": (
        lambda: tabular_features(2, 3).weighted_sum(np.zeros((3, 2))),
        ContractViolationError, "table must have shape (2, 3), got (3, 2)",
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
    "harness-seed-beyond-int-repr": (
        lambda: ExperimentConfig.from_dict({**BASE_CFG, "seeds": [-(10**5000)]}),
        ConfigError, "seed must be an integer >= 0, got a negative 16610-bit integer",
    ),
    "harness-sweep-no-values": (
        lambda: sweep_command(ExperimentConfig.from_dict(BASE_CFG), "K", []),
        ConfigError, "a sweep needs at least one value",
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
    "neural_ac-actor-negative-radius": (
        lambda: actor_inner_loop(
            init_params(4, 4, 1, seed=0), np.zeros((2, 2)), sa_encoding_table(2, 2), np.zeros((1, 2), dtype=int),
            radius=-1.0, alpha=0.5,
        ),
        ContractViolationError, "radius must be >= 0, got -1.0",
    ),
    "neural_ac-inner-count": (
        lambda: run_neural_ac(chain2(), 8, 2, 1, N_a=0),
        ParameterError, "N_a must be an integer >= 1, got 0",
    ),
    "neural_ac-float-inner-count": (
        lambda: run_neural_ac(chain2(), 8, 2, 1, N_a=4.5),
        ParameterError, "N_a must be an integer >= 1, got 4.5",
    ),
    "neural_ac-float-width": (
        lambda: run_neural_ac(chain2(), 2.5, 2, 1),
        ParameterError, "m must be an integer >= 1, got 2.5",
    ),
    "neural_ac-bool-width": (
        lambda: run_neural_ac(chain2(), True, 2, 1),
        ParameterError, "m must be an integer >= 1, got True",
    ),
    "neural_ac-zero-depth": (
        lambda: run_neural_ac(chain2(), 8, 0, 1),
        ParameterError, "H must be an integer >= 1, got 0",
    ),
    "neural_ac-negative-seed": (
        lambda: run_neural_ac(chain2(), 8, 2, 1, seed=-1),
        ParameterError, "seed must be an integer >= 0, got -1",
    ),
    "linear_ac-negative-seed": (
        lambda: run_linear_ac(chain2(), tabular_features(2, 2), 2, seed=-1),
        ParameterError, "seed must be an integer >= 0, got -1",
    ),
    "linear_ac-float-seed": (
        lambda: run_linear_ac(chain2(), tabular_features(2, 2), 2, seed=2.5),
        ParameterError, "seed must be an integer >= 0, got 2.5",
    ),
    "linear_ac-K-beyond-float-range": (
        lambda: run_linear_ac(chain2(), tabular_features(2, 2), 2**1024),
        ParameterError, "K must be <= 2**53, got a 1025-bit integer",
    ),
    "linear_ac-K-beyond-int-repr": (
        lambda: run_linear_ac(chain2(), tabular_features(2, 2), 10**5000),
        ParameterError, "K must be <= 2**53, got a 16610-bit integer",
    ),
    "linear_ac-zero-K": (
        lambda: run_linear_ac(chain2(), tabular_features(2, 2), 0),
        ParameterError, "K must be an integer >= 1, got 0",
    ),
    "linear_ac-float-K": (
        lambda: run_linear_ac(chain2(), tabular_features(2, 2), K=2.0),
        ParameterError, "K must be an integer >= 1, got 2.0",
    ),
    "linear_ac-bool-K": (
        lambda: run_linear_ac(chain2(), tabular_features(2, 2), K=True),
        ParameterError, "K must be an integer >= 1, got True",
    ),
    "linear_ac-string-R": (
        lambda: run_linear_ac(chain2(), tabular_features(2, 2), 2, R="1"),
        ParameterError, "R must be a number, got '1'",
    ),
    "linear_ac-project-negative-radius": (
        lambda: project_l2(np.zeros(2), -1.0),
        ContractViolationError, "radius must be >= 0, got -1.0",
    ),
    "linear_ac-exact-negative-radius": (
        lambda: chain2_critic_exact(np.zeros((2, 2)), radius=-1.0),
        ContractViolationError, "radius must be >= 0, got -1.0",
    ),
    "linear_ac-negative-ridge": (
        lambda: run_linear_ac(chain2(), tabular_features(2, 2), 2, mode="sampled", ridge=-1.0),
        ParameterError, "ridge must be >= 0.0, got -1.0",
    ),
    "linear_ac-exact-nan-q": (
        lambda: chain2_critic_exact(NAN_Q),
        ContractViolationError, "q_omega entry (0, 1) is nan, not finite",
    ),
    "linear_ac-sampled-nan-q": (
        lambda: chain2_critic_sampled(NAN_Q, features=random_features(2, 2, 3, seed=0)),
        ContractViolationError, "q_omega entry (0, 1) is nan, not finite",
    ),
    "linear_ac-sampled-q-shape": (
        lambda: chain2_critic_sampled(np.zeros(4)),
        ContractViolationError, "q_omega must have shape (2, 2), got (4,)",
    ),
    "linear_ac-sampled-empty-batch": (
        lambda: chain2_critic_sampled(np.zeros((2, 2)), n=0),
        ContractViolationError, "sample sets must be nonempty, got 0 and 0 draws",
    ),
    "linear_ac-sampled-empty-batch-dense": (
        lambda: chain2_critic_sampled(np.zeros((2, 2)), n=0, features=random_features(2, 2, 3, seed=0)),
        ContractViolationError, "sample sets must be nonempty, got 0 and 0 draws",
    ),
    "linear_ac-sampled-zero-N": (
        lambda: run_linear_ac(chain2(), tabular_features(2, 2), 2, mode="sampled", N=0),
        ParameterError, "N must be an integer >= 1, got 0",
    ),
    "linear_ac-sampled-float-N": (
        lambda: run_linear_ac(chain2(), tabular_features(2, 2), 2, mode="sampled", N=8.5),
        ParameterError, "N must be an integer >= 1, got 8.5",
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
    "sampling-sa-rho-rank": (
        lambda: sample_sa(np.full(4, 0.25), np.random.default_rng(0), 4),
        ContractViolationError, "rho must be an (S, A) table, got shape (4,)",
    ),
    "sampling-sa-negative-n": (
        lambda: sample_sa(np.full((2, 2), 0.25), np.random.default_rng(0), -1),
        ContractViolationError, "n must be >= 0, got -1",
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


def test_integer_literal_beyond_conversion_limit_exits_2(tmp_path, capsys):
    # json.loads raises a plain ValueError, not JSONDecodeError, for an integer of over 4,300 digits.
    config = tmp_path / "huge.json"
    config.write_text('{"mdp": "chain2", "algorithm": "linear_exact", "K": ' + "9" * 5000 + "}")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sstac: error: config: malformed JSON: ") and err.count("\n") == 1
    assert "5000 digits" in err
    assert not (tmp_path / "r").exists()
