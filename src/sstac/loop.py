"""The single-timescale iteration shared by the linear and neural actor-critic:
one actor and one critic step per k, scored by the exact oracles."""

from __future__ import annotations

import math

import numpy as np

from . import __version__, mdp as mdp_mod
from .diagnostics import error_decomposition
from .errors import ParameterError, SstacError
from .policy import softmax_rows
from .sampling import RNG_ID
from .trace import RunTrace


def resolve_beta(K: int, beta: float | None, radius: float) -> float:
    """Validate the parameters every driver shares; returns beta, sqrt(K) by default."""
    if K < 1:
        raise ParameterError(f"K must be >= 1, got {K}")
    beta_val = float(beta) if beta is not None else math.sqrt(K)
    if not 0.0 < beta_val < math.inf:
        raise ParameterError(f"beta must be positive and finite, got {beta_val}")
    if not 0.0 <= radius < math.inf:
        raise ParameterError(f"radius must be finite and >= 0, got {radius}")
    return beta_val


def run_single_timescale(
    mdp: mdp_mod.TabularMDP,
    K: int,
    step,
    *,
    q_0: np.ndarray,
    beta: float,
    features,
    params: dict,
) -> RunTrace:
    """Run ``step`` for k = 0 .. K and score every update against the exact oracles.

    The run starts from the uniform pi_0 (tau_0^{-1} = 0) and the critic
    table ``q_0``.  The gap of each update is E_rho*[Q* - Q^{pi_{k+1}}]
    under the optimal policy's stationary measure rho* = nu* pi*.

    ``step(k, pi_k, q_k)`` makes one actor and one critic update and returns
    ``(pi_next, rho_next, q_next, logged)``: the new policy, its stationary
    state-action distribution, the new critic table, and a dict of the
    driver's own trace columns.  The trace columns are ``k``, the fields of
    ``IterDiag`` with ``cum_regret`` after ``gap``, then the keys of ``logged``.
    An ``SstacError`` raised inside an iteration gains "at k=<k>: " in front
    of its message; its class and attributes are kept.  The manifest holds
    what every run shares: ``rng_id``, ``version`` and the driver's ``params``.
    """
    pi_k, q_k = softmax_rows(np.zeros((mdp.n_states, mdp.n_actions))), q_0
    q_star, pi_star = mdp_mod.optimal_q(mdp)
    nu_star, _ = mdp_mod.stationary_dists(mdp, pi_star)

    rows: list[list[float]] = []
    cum_regret = 0.0
    for k in range(K + 1):
        try:
            pi_next, rho_next, q_next, logged = step(k, pi_k, q_k)
            q_pi_next = mdp_mod.exact_q_pi(mdp, pi_next)
            diag = error_decomposition(
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
        # "gap" keeps its place when vars(diag) repeats it, so cum_regret follows it.
        row = {"k": k, "gap": diag.gap, "cum_regret": cum_regret, **vars(diag), **logged}
        rows.append(list(row.values()))
        pi_k, q_k = pi_next, q_next

    manifest = {"rng_id": RNG_ID, "version": __version__, "params": params}
    return RunTrace(manifest=manifest, columns=list(row), rows=rows)
