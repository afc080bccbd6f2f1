"""Single-timescale actor-critic with deep ReLU network approximation.

Each outer iteration runs two projected-SGD inner loops: the actor regresses
toward ``tilde_tau * (beta^{-1} Q + tau^{-1} f)`` under the previous policy's
stationary distribution, and the critic regresses toward the one-step
bootstrap target under the new policy's distribution, with the bootstrap
values frozen at loop entry.  Both loops warm-start from the current
parameters, keep every iterate inside the Frobenius ball around the shared
anchor initialization, and return the average of their iterates.
"""

from __future__ import annotations

import math

import numpy as np

from . import mdp as mdp_mod
from .deep_net import (
    DnnParams,
    forward_many,
    gradient,
    init_params,
    linearization_gap,
    project_ball_inplace,
    sa_encoding_table,
)
from .errors import ContractViolationError
from .features import FeatureMap
from .loop import run_settings, run_single_timescale
from .sampling import RunRng, sample_sa, sample_tuples
from .trace import RunTrace

_DEFAULT_R = 10.0  # the ball radius when a run sets none


def _sgd_averaged(
    work: DnnParams,
    radius: float,
    stepsize: float,
    inputs: np.ndarray,
    targets: np.ndarray,
) -> DnnParams:
    """Projected-SGD loop on the squared loss, one step per input, returning the average of the iterates.

    Step n moves ``work`` in place along the gradient at ``inputs[n]`` scaled by
    the residual (network output minus ``targets[n]``).  The layers, their
    gradients and the running sum are each one flat vector, so a step updates
    and accumulates every layer in one operation each.
    """
    n_steps = len(inputs)
    if n_steps == 0:
        raise ContractViolationError("an inner loop needs at least one draw")
    w = np.concatenate([layer.ravel() for layer in work.weights])
    g, acc = np.empty_like(w), np.zeros_like(w)
    work.weights, grads = _layer_views(w, work.weights), _layer_views(g, work.weights)
    for x, target in zip(inputs, targets.tolist()):
        value, _ = gradient(work, x, grads)
        g *= stepsize * (value - target)
        w -= g
        project_ball_inplace(work, radius)  # writes into the views of w
        acc += w
    acc /= n_steps
    return DnnParams(weights=_layer_views(acc, work.weights), sign_vector=work.sign_vector, anchor=work.anchor)


def _layer_views(flat: np.ndarray, layers: list[np.ndarray]) -> list[np.ndarray]:
    """Views of consecutive pieces of ``flat``, shaped as ``layers``."""
    ends = np.cumsum([layer.size for layer in layers])
    return [flat[end - layer.size : end].reshape(layer.shape) for layer, end in zip(layers, ends.tolist())]


def actor_inner_loop(
    actor: DnnParams,
    target_table: np.ndarray,
    encodings: np.ndarray,
    pairs: np.ndarray,
    *,
    radius: float,
    alpha: float,
) -> DnnParams:
    """Fit the actor energy to the KL-regularized target by projected SGD.

    ``pairs`` are (s, a) draws from the current policy's stationary
    distribution; ``target_table`` holds the frozen regression target.
    """
    inputs = encodings[pairs[:, 0], pairs[:, 1]]
    targets = target_table[pairs[:, 0], pairs[:, 1]]
    return _sgd_averaged(actor.clone(), radius, alpha, inputs, targets)


def critic_inner_loop(
    critic: DnnParams,
    tuples,
    encodings: np.ndarray,
    gamma: float,
    *,
    radius: float,
    eta: float,
) -> DnnParams:
    """One-step bootstrap regression by projected SGD with frozen targets.

    ``tuples`` is (s, a, r, s', a') with (s, a) from the new policy's
    stationary distribution; the bootstrap value comes from the critic
    snapshot taken at loop entry, so later iterates never move the target.
    """
    s, a, r, s_next, a_next = tuples
    snapshot = forward_many(critic, encodings.reshape(-1, encodings.shape[2])).reshape(encodings.shape[:2])
    targets = (1.0 - gamma) * r + gamma * snapshot[s_next, a_next]
    inputs = encodings[s, a]
    return _sgd_averaged(critic.clone(), radius, eta, inputs, targets)


def run_neural_ac(
    mdp: mdp_mod.TabularMDP,
    m: int,
    H: int,
    K: int,
    *,
    N_a: int = 400,
    N_c: int = 400,
    seed: int = 0,
    R: float | None = _DEFAULT_R,
    beta: float | None = None,
) -> RunTrace:
    """Run the deep neural actor-critic loop for iterations k = 0 .. K.

    The networks have width ``m`` and depth ``H``.  The stepsizes are
    ``N_a^{-1/2}`` and ``N_c^{-1/2}``; the temperature follows
    ``tau_{k+1}^{-1} = (k+1) / beta`` with ``beta = sqrt(K)`` unless
    overridden, and ``R=None`` means the default radius.  Deterministic
    per seed.  The trace's history holds only the final ``actor`` and
    ``critic`` networks.
    """
    n_states, n_actions = mdp.n_states, mdp.n_actions
    d = n_states + n_actions
    params = {"algorithm": "neural", **run_settings(K, beta, R, _DEFAULT_R, m=m, H=H, N_a=N_a, N_c=N_c, seed=seed)}
    beta, R = params["beta"], params["R"]
    alpha, eta = 1.0 / math.sqrt(params["N_a"]), 1.0 / math.sqrt(params["N_c"])
    params.update(d=d, alpha=alpha, eta=eta)
    encodings = sa_encoding_table(n_states, n_actions)
    enc_flat = encodings.reshape(-1, d)

    rng = RunRng(params["seed"])
    shared_init = init_params(d, params["m"], params["H"], rng.stream("init"))
    # One initialization for both networks, so they share its anchor and sign vector.
    actor, critic = shared_init.clone(), shared_init.clone()
    f_k = forward_many(actor, enc_flat).reshape(n_states, n_actions)
    actor_mse = None  # each actor fit's regression error, logged by the critic fit that follows it

    def actor_fit(k, pi_k, q_k):
        nonlocal actor, f_k, actor_mse
        inv_tau = k / beta
        target_actor = (q_k / beta + inv_tau * f_k) / (inv_tau + 1.0 / beta)

        _, rho_k = mdp_mod.stationary_dists(mdp, pi_k)
        pairs = sample_sa(rho_k, rng.stream("actor_loop"), N_a)
        actor = actor_inner_loop(actor, target_actor, encodings, pairs, radius=R, alpha=alpha)
        f_k = forward_many(actor, enc_flat).reshape(n_states, n_actions)
        actor_mse = float(np.sum(rho_k * (f_k - target_actor) ** 2))
        return f_k

    def critic_fit(pi_next, rho_next, q_k):
        nonlocal critic
        tuples = sample_tuples(mdp, rho_next, pi_next, rng.stream("critic_loop"), N_c)
        critic = critic_inner_loop(critic, tuples, encodings, mdp.gamma, radius=R, eta=eta)
        q_next = forward_many(critic, enc_flat).reshape(n_states, n_actions)

        logged = {
            "actor_norm": float(actor.anchor_distances().max()),
            "critic_norm": float(critic.anchor_distances().max()),
            "actor_mse": actor_mse,
            "critic_mse": float(np.sum(rho_next * (q_next - mdp_mod.bellman_eval(mdp, pi_next, q_k)) ** 2)),
            "actor_lin_gap": float(np.mean([linearization_gap(actor, x) for x in enc_flat])),
            "critic_lin_gap": float(np.mean([linearization_gap(critic, x) for x in enc_flat])),
        }
        return q_next, logged

    q_0 = forward_many(critic, enc_flat).reshape(n_states, n_actions)
    trace = run_single_timescale(mdp, actor_fit, critic_fit, q_0=q_0, features=FeatureMap(phi=encodings), params=params)
    trace.history.update(actor=actor, critic=critic)
    return trace
