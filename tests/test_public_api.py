"""The package's public surface: the exact top-level names, and value types that compare by identity."""

import importlib
import types

import pytest

import sstac
from sstac import chain2, random_features, tabular_features
from sstac.deep_net import init_params
from sstac.features import FeatureMap

# The names demos, tests and README import from ``sstac``; everything else imports from its module.
PUBLIC = {
    "ConditioningError",
    "ConfigError",
    "ContractViolationError",
    "ErgodicityError",
    "ExperimentConfig",
    "FeatureMap",
    "InfiniteDivergenceError",
    "ParameterError",
    "RunRng",
    "SstacError",
    "TabularMDP",
    "actor_inner_loop",
    "actor_step",
    "apply_P_pi",
    "bellman_eval",
    "build_mdp",
    "chain2",
    "critic_inner_loop",
    "critic_step_exact",
    "critic_step_sampled",
    "draw_batch",
    "error_decomposition",
    "exact_q_pi",
    "execute_run",
    "gram_min_singular",
    "gridworld5",
    "kl",
    "kl_regularized_argmax",
    "load_trace",
    "objective_J",
    "optimal_q",
    "random_features",
    "random_mdp",
    "run_linear_ac",
    "run_neural_ac",
    "run_optimum",
    "sample_sa",
    "sample_tuples",
    "softmax_rows",
    "stationary_dists",
    "tabular_features",
    "visitation_dist",
}

# Names the top level no longer re-exports, by the module that defines them.
MODULE_ONLY = {
    "deep_net": (
        "DnnParams",
        "forward",
        "forward_many",
        "gradient",
        "init_params",
        "linearization_gap",
        "sa_encoding_table",
    ),
    "mdp": ("load_mdp",),
    "linear_ac": ("project_l2",),
    "features": ("gram_matrix",),
    "sampling": ("RNG_ID",),
    "trace": ("RunTrace",),
    "harness": ("diag_checks", "run_command", "run_id", "sweep_command"),
}


def test_top_level_exports_exactly_the_public_names():
    exported = {
        name
        for name, value in vars(sstac).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC


@pytest.mark.parametrize("module", sorted(MODULE_ONLY))
def test_module_only_names_import_from_their_module(module):
    mod = importlib.import_module(f"sstac.{module}")
    for name in MODULE_ONLY[module]:
        assert hasattr(mod, name)
        assert name not in vars(sstac)


def test_gram_matrix_is_the_method_under_its_traced_name():
    assert sstac.features.gram_matrix is FeatureMap.gram


@pytest.mark.parametrize(
    "make",
    [chain2, lambda: tabular_features(3, 2), lambda: random_features(3, 2, 4, 0), lambda: init_params(2, 3, 1, 0)],
    ids=["TabularMDP", "FeatureMap-one-hot", "FeatureMap-random", "DnnParams"],
)
def test_array_holding_values_compare_and_hash_by_identity(make):
    x, rebuilt = make(), make()
    assert x == x and not x != x
    assert x != rebuilt and not x == rebuilt
    assert x in {x} and rebuilt not in {x}
    if hasattr(x, "clone"):
        assert x != x.clone()
