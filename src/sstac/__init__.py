"""Single-timescale actor-critic on tabular MDPs, with exact DP oracles."""

__version__ = "0.1.0"

from .errors import (
    ConditioningError,
    ConfigError,
    ContractViolationError,
    ErgodicityError,
    InfiniteDivergenceError,
    ParameterError,
    SstacError,
)
from .mdp import (
    TabularMDP,
    apply_P_pi,
    bellman_eval,
    build_mdp,
    chain2,
    exact_q_pi,
    gridworld5,
    load_mdp,
    objective_J,
    optimal_q,
    random_mdp,
    stationary_dists,
    visitation_dist,
)
from .features import FeatureMap, gram_matrix, gram_min_singular, random_features, tabular_features
from .policy import kl, kl_regularized_argmax, softmax_rows
from .sampling import RNG_ID, RunRng, sample_sa, sample_tuples
from .linear_ac import (
    actor_step,
    critic_step_exact,
    critic_step_sampled,
    draw_batch,
    project_l2,
    run_linear_ac,
)
from .deep_net import (
    DnnParams,
    forward,
    forward_many,
    gradient,
    init_params,
    linearization_gap,
    sa_encoding_table,
)
from .neural_ac import actor_inner_loop, critic_inner_loop, run_neural_ac
from .diagnostics import error_decomposition, run_optimum
from .trace import RunTrace, load_trace
from .harness import ExperimentConfig, diag_checks, execute_run, run_command, run_id, sweep_command
