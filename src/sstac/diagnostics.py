"""Exact per-iteration error decomposition diagnostics.

Everything here is computed by exact expectation over the finite
state-action space; nothing is estimated from samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mdp as mdp_mod
from .features import gram_min_singular
from .policy import kl

_ZERO = 1e-300  # guards log() of fully underflowed policy entries


@dataclass
class IterDiag:
    """Scalar diagnostics for one coupled actor/critic update, named and ordered as trace columns."""

    gap: float  # E_rho*[Q* - Q^{pi_next}], rho* = nu* pi*
    eps_c_l2: float  # critic statistical error, L2 under rho_next
    eps_c_sup: float
    e_sup: float  # tracking error  ||Q_w_k - T^{pi_next} Q_w_k||_inf
    theta_kl: float  # E_nu*[ KL(pi*||pi_k) - KL(pi*||pi_next) ]
    eps_a: float  # E_nu*[ |actor-error inner product vs pi*| ]
    eps_b: float  # E_nu*[ |actor-error inner product vs pi_k| ]
    phi_star: float  # density-ratio norm ||d rho* / d rho_next||_{rho_next,2}
    sigma_star: float  # min singular value of the feature Gram under rho_next
    J_pi: float  # objective of pi_next
    kl_to_opt: float  # E_nu*[ KL(pi*||pi_next) ]
    a_resid: float  # residual of the three-term decomposition identity


def error_decomposition(
    mdp: mdp_mod.TabularMDP,
    *,
    pi_k: np.ndarray,
    pi_next: np.ndarray,
    q_omega_k: np.ndarray,
    q_omega_next: np.ndarray,
    q_pi_next: np.ndarray,
    q_star: np.ndarray,
    pi_star: np.ndarray,
    nu_star: np.ndarray,
    rho_next: np.ndarray,
    beta: float,
    features,
) -> IterDiag:
    """All §-style analysis quantities for one update, reduced to the scalars of ``IterDiag``.

    The decomposition tables a1, a2, a3 and the critic and tracking error
    tables are built and reduced here; none of them outlives the call.
    """
    gamma = mdp.gamma
    t_next_q_omega_k = mdp_mod.bellman_eval(mdp, pi_next, q_omega_k)

    a1 = gamma * (mdp_mod.apply_P_pi(mdp, pi_star, q_omega_k) - mdp_mod.apply_P_pi(mdp, pi_next, q_omega_k))
    a2 = gamma * mdp_mod.apply_P_pi(mdp, pi_star, q_pi_next - q_omega_k)
    a3 = t_next_q_omega_k - q_pi_next
    identity = (1.0 - gamma) * mdp.reward + gamma * mdp_mod.apply_P_pi(mdp, pi_star, q_pi_next) - q_pi_next
    a_resid = float(np.max(np.abs(a1 + a2 + a3 - identity)))

    eps_c = t_next_q_omega_k - q_omega_next
    e_table = q_omega_k - t_next_q_omega_k

    kl_rows_prev = kl(pi_star, pi_k)
    kl_rows_next = kl(pi_star, pi_next)
    theta_kl = float(nu_star @ (kl_rows_prev - kl_rows_next))
    kl_to_opt = float(nu_star @ kl_rows_next)

    log_ratio = np.log(np.maximum(pi_next, _ZERO)) - np.log(np.maximum(pi_k, _ZERO))
    mismatch = log_ratio - q_omega_k / beta
    eps_a_rows = np.abs((mismatch * (pi_star - pi_next)).sum(axis=1))
    eps_b_rows = np.abs((mismatch * (pi_k - pi_next)).sum(axis=1))

    rho_star = nu_star[:, None] * pi_star

    return IterDiag(
        gap=float(np.sum(rho_star * (q_star - q_pi_next))),
        eps_c_l2=float(np.sqrt(np.sum(rho_next * eps_c**2))),
        eps_c_sup=float(np.max(np.abs(eps_c))),
        e_sup=float(np.max(np.abs(e_table))),
        theta_kl=theta_kl,
        eps_a=float(nu_star @ eps_a_rows),
        eps_b=float(nu_star @ eps_b_rows),
        phi_star=density_ratio_l2(rho_star, rho_next),
        sigma_star=float(gram_min_singular(features, rho_next)),
        J_pi=float(np.sum(mdp.initial_dist[:, None] * pi_next * q_pi_next)),
        kl_to_opt=kl_to_opt,
        a_resid=a_resid,
    )


def density_ratio_l2(rho_star: np.ndarray, rho_base: np.ndarray) -> float:
    """Weighted L2 norm of the density ratio d rho* / d rho_base under rho_base."""
    mask = rho_star > 0
    if np.any(mask & (rho_base <= 0)):
        return float("inf")
    return float(np.sqrt(np.sum(rho_star[mask] ** 2 / rho_base[mask])))
