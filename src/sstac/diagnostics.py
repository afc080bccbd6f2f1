"""Exact per-iteration error decomposition diagnostics.

Everything here is computed by exact expectation over the finite
state-action space; nothing is estimated from samples.
"""

from __future__ import annotations

import numpy as np

from . import mdp as mdp_mod
from .features import gram_min_singular
from .policy import kl

_ZERO = 1e-300  # guards log() of fully underflowed policy entries


def run_optimum(mdp: mdp_mod.TabularMDP) -> dict:
    """Q*, the greedy pi*, nu* and rho* = nu* pi* of ``mdp``, and (1 - gamma) r: one run's scoring state, solved once.

    ``error_decomposition`` keeps in it each ``pi_next`` with its KL rows to pi* and clamped log, which the next
    call reads only when its ``pi_k`` is that very object.  The bits are the same.
    """
    q_star, pi_star = mdp_mod.optimal_q(mdp)
    nu_star, rho_star = mdp_mod.stationary_dists(mdp, pi_star)
    return dict(q_star=q_star, pi_star=pi_star, nu_star=nu_star, rho_star=rho_star, base=(1.0 - mdp.gamma) * mdp.reward)


def error_decomposition(
    mdp: mdp_mod.TabularMDP,
    run: dict,
    *,
    pi_k: np.ndarray,
    pi_next: np.ndarray,
    q_omega_k: np.ndarray,
    q_omega_next: np.ndarray,
    rho_next: np.ndarray,
    beta: float,
    features,
) -> dict[str, float]:
    """All §-style analysis quantities for one update against ``run = run_optimum(mdp)``, as trace columns in order.

    Q^{pi_next} is solved here, first.  The decomposition tables a1, a2, a3 and the critic and tracking error
    tables are built and reduced here; none of them outlives the call.
    """
    gamma, pi_star, nu_star, rho_star = mdp.gamma, run["pi_star"], run["nu_star"], run["rho_star"]
    q_pi_next = mdp_mod.exact_q_pi(mdp, pi_next)
    t_next_q_omega_k = mdp_mod.bellman_eval(mdp, pi_next, q_omega_k)

    a1 = gamma * (mdp_mod.apply_P_pi(mdp, pi_star, q_omega_k) - mdp_mod.apply_P_pi(mdp, pi_next, q_omega_k))
    a2 = gamma * mdp_mod.apply_P_pi(mdp, pi_star, q_pi_next - q_omega_k)
    a3 = t_next_q_omega_k - q_pi_next
    identity = run["base"] + gamma * mdp_mod.apply_P_pi(mdp, pi_star, q_pi_next) - q_pi_next
    a_resid = float(np.abs(a1 + a2 + a3 - identity).max())

    eps_c = t_next_q_omega_k - q_omega_next
    e_table = q_omega_k - t_next_q_omega_k

    rows_k = run["rows"] if run.get("pi") is pi_k else (kl(pi_star, pi_k), np.log(np.maximum(pi_k, _ZERO)))
    rows_next = kl(pi_star, pi_next), np.log(np.maximum(pi_next, _ZERO))
    run.update(pi=pi_next, rows=rows_next)
    (kl_rows_prev, log_pi_k), (kl_rows_next, log_pi_next) = rows_k, rows_next

    mismatch = log_pi_next - log_pi_k - q_omega_k / beta
    eps_a_rows = np.abs((mismatch * (pi_star - pi_next)).sum(axis=1))
    eps_b_rows = np.abs((mismatch * (pi_k - pi_next)).sum(axis=1))
    mask = rho_star > 0  # phi_star = ||d rho* / d rho_next||_{rho_next,2}, infinite when rho_next misses rho*'s support
    missed = (mask & (rho_next <= 0)).any()

    return {
        "gap": float((rho_star * (run["q_star"] - q_pi_next)).sum()),  # E_rho*[Q* - Q^{pi_next}]
        "eps_c_l2": float(np.sqrt((rho_next * eps_c**2).sum())),  # critic statistical error, L2 under rho_next
        "eps_c_sup": float(np.abs(eps_c).max()),
        "e_sup": float(np.abs(e_table).max()),  # tracking error  ||Q_w_k - T^{pi_next} Q_w_k||_inf
        "theta_kl": float(nu_star @ (kl_rows_prev - kl_rows_next)),  # E_nu*[ KL(pi*||pi_k) - KL(pi*||pi_next) ]
        "eps_a": float(nu_star @ eps_a_rows),  # E_nu*[ |actor-error inner product vs pi*| ]
        "eps_b": float(nu_star @ eps_b_rows),  # E_nu*[ |actor-error inner product vs pi_k| ]
        "phi_star": float("inf") if missed else float(np.sqrt((rho_star[mask] ** 2 / rho_next[mask]).sum())),
        "sigma_star": float(gram_min_singular(features, rho_next)),  # min singular value of the Gram under rho_next
        "J_pi": float((mdp.initial_dist[:, None] * pi_next * q_pi_next).sum()),  # objective of pi_next
        "kl_to_opt": float(nu_star @ kl_rows_next),  # E_nu*[ KL(pi*||pi_next) ]
        "a_resid": a_resid,  # residual of the three-term decomposition identity
    }
