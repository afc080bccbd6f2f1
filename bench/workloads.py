"""The benchmark's workloads, the layers it traces, and the exact call counts it expects.

Each workload is one sstac command (``run`` or ``sweep``) on a config that
the workload seed fills in.  The seed sets the run seeds and, where the MDP
is random, the MDP seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

# Public functions wrapped by the tracer, as ``<module>.<attribute path>``.
# Each is replaced at every module binding, because consumers import names
# directly (``linear_ac.gram_matrix``, ``harness.run_linear_ac``, ...).
LAYERS = (
    "harness.run_command",
    "harness.sweep_command",
    "harness.execute_run",
    "linear_ac.run_linear_ac",
    "linear_ac.actor_step",
    "linear_ac.critic_step_exact",
    "linear_ac.critic_step_sampled",
    "linear_ac.draw_batch",
    "neural_ac.run_neural_ac",
    "neural_ac.actor_inner_loop",
    "neural_ac.critic_inner_loop",
    "deep_net.gradient",
    "deep_net.project_ball_inplace",
    "deep_net.forward_many",
    "deep_net.linearization_gap",
    "features.gram_matrix",
    "features.gram_min_singular",
    "mdp.optimal_q",
    "mdp.exact_q_pi",
    "mdp.stationary_dists",
    "mdp.bellman_eval",
    "mdp.apply_P_pi",
    "policy.softmax_rows",
    "diagnostics.error_decomposition",
    "sampling.sample_sa",
    "sampling.sample_tuples",
    "trace.RunTrace.save",
)

_NEURAL = {"N_a": 400, "N_c": 400, "arch": {"m": 32, "H": 2}}

# Calibration kernels (calibration.py) timed beside set-up, which is mostly
# importing Python modules and numpy.
SETUP_CALIBRATION = ("python_loop", "matmul")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mdp: str  # "{seed}" is replaced by the workload seed
    algorithm: str
    K: int
    calibration: tuple[str, ...]  # kernels that slow down as this workload does
    extra: tuple = ()  # further config keys, as (key, value) pairs
    n_seeds: int = 1
    sweep_K: tuple[int, ...] = ()  # non-empty: the workload is `sstac sweep --param K`

    def config(self, seed: int, tiny: bool = False) -> dict:
        """The experiment config for a workload seed; ``tiny`` sets K=2."""
        return {
            "mdp": self.mdp.format(seed=seed),
            "algorithm": self.algorithm,
            "K": 2 if tiny else self.K,
            "seeds": [seed + i for i in range(self.n_seeds)],
            **dict(self.extra),
        }

    def sweep_values(self, tiny: bool = False) -> list[int]:
        if not self.sweep_K:
            return []
        return [1, 2] if tiny else list(self.sweep_K)

    def runs(self, config: dict, tiny: bool = False) -> list[int]:
        """K of every run the command executes."""
        ks = self.sweep_values(tiny) or [config["K"]]
        return [k for k in ks for _ in config["seeds"]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "linear-dense",
            "random(64,8): the 512-dim exact critic solve, Gram and Q^pi oracles dominate",
            "random(64,8,{seed})",
            "linear_exact",
            64,
            ("python_loop", "matmul"),
        ),
        Workload(
            "neural-sweep",
            "chain2 neural sweep K in {16,32} x 2 seeds: single-sample SGD and sweep orchestration",
            "chain2",
            "neural",
            16,
            ("small_numpy", "solve"),
            extra=tuple(_NEURAL.items()),
            n_seeds=2,
            sweep_K=(16, 32),
        ),
        Workload(
            "linear-sampled",
            "gridworld5 sampled critic, N=4096, ridge 1e-3: the only workload on the sampling layer",
            "gridworld5",
            "linear_sampled",
            256,
            ("python_loop", "matmul"),
            extra=(("N", 4096), ("ridge", 1e-3)),
        ),
    )
}


def expected_calls(workload: Workload, config: dict, tiny: bool = False) -> dict[str, int]:
    """Exact number of calls into every traced layer for one command.

    Derived by reading the run loops; a binding the tracer misses, or a loop
    that changes its calls, makes the traced run disagree with this.
    """
    calls = Counter()
    calls["harness.sweep_command" if workload.sweep_K else "harness.run_command"] = 1
    n_states, n_actions = _mdp_size(config["mdp"])
    sa = n_states * n_actions
    for K in workload.runs(config, tiny):
        it = K + 1
        calls["harness.execute_run"] += 1
        calls["trace.RunTrace.save"] += 1
        calls["mdp.optimal_q"] += 1
        calls["mdp.exact_q_pi"] += it
        calls["diagnostics.error_decomposition"] += it
        calls["features.gram_min_singular"] += it
        calls["policy.softmax_rows"] += 1 + it
        # error_decomposition: 4 direct apply_P_pi calls plus one inside bellman_eval.
        calls["mdp.bellman_eval"] += it
        calls["mdp.apply_P_pi"] += 5 * it
        if config["algorithm"] == "neural":
            n_a, n_c = config["N_a"], config["N_c"]
            calls["neural_ac.run_neural_ac"] += 1
            calls["neural_ac.actor_inner_loop"] += it
            calls["neural_ac.critic_inner_loop"] += it
            # One gradient per SGD step, one per linearization_gap (actor and critic, every pair).
            calls["deep_net.gradient"] += it * (n_a + n_c + 2 * sa)
            calls["deep_net.project_ball_inplace"] += it * (n_a + n_c)
            calls["deep_net.forward_many"] += 2 + 3 * it
            calls["deep_net.linearization_gap"] += 2 * sa * it
            calls["mdp.stationary_dists"] += 1 + 2 * it
            calls["features.gram_matrix"] += it
            calls["sampling.sample_sa"] += 2 * it
            calls["sampling.sample_tuples"] += it
            # critic_mse's Bellman target.
            calls["mdp.bellman_eval"] += it
            calls["mdp.apply_P_pi"] += it
            continue
        calls["linear_ac.run_linear_ac"] += 1
        calls["linear_ac.actor_step"] += it
        calls["mdp.stationary_dists"] += 1 + it
        if config["algorithm"] == "linear_exact":
            calls["linear_ac.critic_step_exact"] += it
            calls["features.gram_matrix"] += 2 * it
            calls["mdp.bellman_eval"] += it
            calls["mdp.apply_P_pi"] += it
        else:
            calls["linear_ac.critic_step_sampled"] += it
            calls["linear_ac.draw_batch"] += it
            calls["sampling.sample_sa"] += 2 * it
            calls["sampling.sample_tuples"] += it
            calls["features.gram_matrix"] += it
    return {layer: calls[layer] for layer in LAYERS}


def _mdp_size(source: str) -> tuple[int, int]:
    if source == "chain2":
        return 2, 2
    if source == "gridworld5":
        return 25, 4
    n_states, n_actions, _ = (int(x) for x in source[len("random(") : -1].split(","))
    return n_states, n_actions
