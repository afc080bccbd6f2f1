"""The single-timescale iteration shared by the linear and neural actor-critic:
one actor and one critic step per k, scored by the exact oracles."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import mdp as mdp_mod
from .diagnostics import error_decomposition
from .errors import ParameterError, SstacError
from .policy import softmax_rows
from .sampling import RNG_ID
from .trace import RunTrace


def resolve_beta(K: int, beta: float | None, radius: float) -> float:
    """Validate the parameters every driver shares; returns beta, sqrt(K) by default."""
    if K < 1:
        raise ParameterError("K must be >= 1")
    beta_val = float(beta) if beta is not None else math.sqrt(K)
    if beta_val <= 0:
        raise ParameterError("beta must be positive")
    if not radius >= 0.0:
        raise ParameterError(f"radius must be >= 0, got {radius}")
    return beta_val


def run_single_timescale(
    mdp: mdp_mod.TabularMDP,
    K: int,
    step,
    *,
    q_0: np.ndarray,
    beta: float,
    features,
    columns: list[str],
    params: dict,
) -> RunTrace:
    """Run ``step`` for k = 0 .. K and score every update against the exact oracles.

    The run starts from the uniform pi_0 (tau_0^{-1} = 0) and the critic
    table ``q_0``.  The gap of each update is E_rho*[Q* - Q^{pi_{k+1}}]
    under the optimal policy's stationary measure rho* = nu* pi*.

    ``step(k, pi_k, q_k)`` makes one actor and one critic update and returns
    ``(pi_next, rho_next, q_next, inv_tau, actor_norm, critic_norm, *extra)``:
    the new policy, its stationary state-action distribution, the new critic
    table, then the values of the trace columns after ``kl_to_opt, a_resid``.
    An ``SstacError`` raised inside an iteration gains "at k=<k>: " in front
    of its message; its class and attributes are kept.
    """
    pi_k, q_k = softmax_rows(np.zeros((mdp.n_states, mdp.n_actions))), q_0
    q_star, pi_star = mdp_mod.optimal_q(mdp)
    nu_star, rho_star = mdp_mod.stationary_dists(mdp, pi_star)

    policies = [pi_k]
    rows: list[list[float]] = []
    cum_regret = 0.0
    for k in range(K + 1):
        try:
            pi_next, rho_next, q_next, *tail = step(k, pi_k, q_k)
            q_pi_next = mdp_mod.exact_q_pi(mdp, pi_next)
            diag, _ = error_decomposition(
                mdp,
                pi_k=pi_k,
                pi_next=pi_next,
                q_omega_k=q_k,
                q_omega_next=q_next,
                q_pi_next=q_pi_next,
                q_star=q_star,
                pi_star=pi_star,
                nu_star=nu_star,
                rho_next=rho_next,
                beta=beta,
                features=features,
            )
        except SstacError as exc:
            exc.args = (f"at k={k}: {exc}",)
            raise
        cum_regret += diag.gap
        # IterDiag's fields follow the trace columns, with cum_regret after gap.
        gap, *scores = dataclasses.astuple(diag)
        rows.append([k, gap, cum_regret, *scores, *tail])
        pi_k, q_k = pi_next, q_next
        policies.append(pi_k)

    history = {
        "policies": policies,
        "q_star": q_star,
        "pi_star": pi_star,
        "nu_star": nu_star,
        "rho_star": rho_star,
    }
    return RunTrace(manifest={"rng_id": RNG_ID, "params": params}, columns=columns, rows=rows, history=history)
