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
from .errors import ContractViolationError, ParameterError, SstacError
from .features import FeatureMap
from .loop import resolve_beta, run_single_timescale
from .policy import softmax_rows
from .sampling import RunRng, sample_sa, sample_tuples
from .trace import RunTrace


def _sgd_averaged(
    start: DnnParams,
    radius: float,
    stepsize: float,
    inputs: np.ndarray,
    targets: np.ndarray,
) -> DnnParams:
    """Projected-SGD loop on the squared loss, one step per input, returning the average of the iterates.

    Step n moves along the gradient at ``inputs[n]`` scaled by the residual
    (network output minus ``targets[n]``).
    """
    n_steps = len(inputs)
    if n_steps == 0:
        raise ContractViolationError("an inner loop needs at least one draw")
    work = start
    acc = [np.zeros_like(w) for w in work.weights]
    for n in range(n_steps):
        value, grads = gradient(work, inputs[n])
        resid = value - targets[n]
        for h in range(work.depth):
            work.weights[h] -= stepsize * resid * grads[h]
        project_ball_inplace(work, radius)
        distance = float(work.anchor_distances().max())
        if distance > radius + 1e-9:
            raise SstacError(f"inner iterate escaped the projection ball: distance {distance!r} > radius {radius!r}")
        for h in range(work.depth):
            acc[h] += work.weights[h]
    averaged = [a / n_steps for a in acc]
    return DnnParams(weights=averaged, sign_vector=work.sign_vector, anchor=work.anchor)


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
    snapshot = forward_many(
        critic, encodings.reshape(-1, encodings.shape[2])
    ).reshape(encodings.shape[:2])
    targets = (1.0 - gamma) * r + gamma * snapshot[s_next, a_next]
    inputs = encodings[s, a]
    return _sgd_averaged(critic.clone(), radius, eta, inputs, targets)


def run_neural_ac(
    mdp: mdp_mod.TabularMDP,
    m: int,
    depth: int,
    K: int,
    *,
    n_actor: int = 400,
    n_critic: int = 400,
    seed: int = 0,
    radius: float = 10.0,
    beta: float | None = None,
) -> RunTrace:
    """Run the deep neural actor-critic loop for iterations k = 0 .. K.

    The stepsizes are ``n_actor^{-1/2}`` and ``n_critic^{-1/2}``; the
    temperature follows ``tau_{k+1}^{-1} = (k+1) / beta`` with
    ``beta = sqrt(K)`` unless overridden.  Deterministic per seed.  The
    trace's history holds only the final ``actor`` and ``critic`` networks.
    """
    beta_val = resolve_beta(K, beta, radius)
    if n_actor < 1 or n_critic < 1:
        raise ParameterError(f"inner iteration counts must be >= 1, got N_a={n_actor} and N_c={n_critic}")
    alpha_val = 1.0 / math.sqrt(n_actor)
    eta_val = 1.0 / math.sqrt(n_critic)

    n_states, n_actions = mdp.n_states, mdp.n_actions
    d = n_states + n_actions
    encodings = sa_encoding_table(n_states, n_actions)
    enc_flat = encodings.reshape(-1, d)

    rng = RunRng(seed)
    shared_init = init_params(d, m, depth, rng.stream("init"))
    # One initialization for both networks, so they share its anchor and sign vector.
    actor, critic = shared_init.clone(), shared_init.clone()
    f_k = forward_many(actor, enc_flat).reshape(n_states, n_actions)

    def step(k, pi_k, q_k):
        nonlocal actor, critic, f_k
        inv_tau, inv_tau_next = k / beta_val, (k + 1) / beta_val
        target_actor = (q_k / beta_val + inv_tau * f_k) / (inv_tau + 1.0 / beta_val)

        _, rho_k = mdp_mod.stationary_dists(mdp, pi_k)
        pairs = sample_sa(rho_k, rng.stream("actor_loop"), n_actor)
        actor = actor_inner_loop(actor, target_actor, encodings, pairs, radius=radius, alpha=alpha_val)

        f_next = forward_many(actor, enc_flat).reshape(n_states, n_actions)
        pi_next = softmax_rows(inv_tau_next * f_next)
        _, rho_next = mdp_mod.stationary_dists(mdp, pi_next)

        tuples = sample_tuples(mdp, rho_next, pi_next, rng.stream("critic_loop"), n_critic)
        critic = critic_inner_loop(critic, tuples, encodings, mdp.gamma, radius=radius, eta=eta_val)
        q_next = forward_many(critic, enc_flat).reshape(n_states, n_actions)

        logged = {
            "inv_tau": inv_tau_next,
            "actor_norm": float(actor.anchor_distances().max()),
            "critic_norm": float(critic.anchor_distances().max()),
            "actor_mse": float(np.sum(rho_k * (f_next - target_actor) ** 2)),
            "critic_mse": float(np.sum(rho_next * (q_next - mdp_mod.bellman_eval(mdp, pi_next, q_k)) ** 2)),
            "actor_lin_gap": float(np.mean([linearization_gap(actor, x) for x in enc_flat])),
            "critic_lin_gap": float(np.mean([linearization_gap(critic, x) for x in enc_flat])),
        }
        f_k = f_next
        return pi_next, rho_next, q_next, logged

    params = {
        "algorithm": "neural",
        "K": K,
        "m": m,
        "H": depth,
        "d": d,
        "N_a": n_actor,
        "N_c": n_critic,
        "seed": seed,
        "beta": beta_val,
        "radius": radius,
        "alpha": alpha_val,
        "eta": eta_val,
    }
    trace = run_single_timescale(
        mdp,
        K,
        step,
        q_0=forward_many(critic, enc_flat).reshape(n_states, n_actions),
        beta=beta_val,
        features=FeatureMap(phi=encodings),
        params=params,
    )
    trace.history.update(actor=actor, critic=critic)
    return trace
