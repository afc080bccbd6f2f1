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
    carry: dict | None = None,
) -> IterDiag:
    """All §-style analysis quantities for one update, reduced to the scalars of ``IterDiag``.

    The decomposition tables a1, a2, a3 and the critic and tracking error
    tables are built and reduced here; none of them outlives the call.
    ``carry`` is a dict the loop owns for one run: the first call stores the
    run constants rho* = nu* pi* and (1 - gamma) r, and each call stores
    ``pi_next`` with its KL rows to pi* and clamped log, which the next call
    reads only when its ``pi_k`` is that very object.  The bits are the same.
    """
    gamma, carry = mdp.gamma, {} if carry is None else carry
    if "base" not in carry:
        carry.update(rho_star=nu_star[:, None] * pi_star, base=(1.0 - gamma) * mdp.reward)
    t_next_q_omega_k = mdp_mod.bellman_eval(mdp, pi_next, q_omega_k)

    a1 = gamma * (mdp_mod.apply_P_pi(mdp, pi_star, q_omega_k) - mdp_mod.apply_P_pi(mdp, pi_next, q_omega_k))
    a2 = gamma * mdp_mod.apply_P_pi(mdp, pi_star, q_pi_next - q_omega_k)
    a3 = t_next_q_omega_k - q_pi_next
    identity = carry["base"] + gamma * mdp_mod.apply_P_pi(mdp, pi_star, q_pi_next) - q_pi_next
    a_resid = float(np.abs(a1 + a2 + a3 - identity).max())

    eps_c = t_next_q_omega_k - q_omega_next
    e_table = q_omega_k - t_next_q_omega_k

    rows_k = carry["rows"] if carry.get("pi") is pi_k else (kl(pi_star, pi_k), np.log(np.maximum(pi_k, _ZERO)))
    rows_next = kl(pi_star, pi_next), np.log(np.maximum(pi_next, _ZERO))
    carry.update(pi=pi_next, rows=rows_next)
    (kl_rows_prev, log_pi_k), (kl_rows_next, log_pi_next) = rows_k, rows_next

    mismatch = log_pi_next - log_pi_k - q_omega_k / beta
    eps_a_rows = np.abs((mismatch * (pi_star - pi_next)).sum(axis=1))
    eps_b_rows = np.abs((mismatch * (pi_k - pi_next)).sum(axis=1))

    return IterDiag(
        gap=float((carry["rho_star"] * (q_star - q_pi_next)).sum()),
        eps_c_l2=float(np.sqrt((rho_next * eps_c**2).sum())),
        eps_c_sup=float(np.abs(eps_c).max()),
        e_sup=float(np.abs(e_table).max()),
        theta_kl=float(nu_star @ (kl_rows_prev - kl_rows_next)),
        eps_a=float(nu_star @ eps_a_rows),
        eps_b=float(nu_star @ eps_b_rows),
        phi_star=density_ratio_l2(carry["rho_star"], rho_next),
        sigma_star=float(gram_min_singular(features, rho_next)),
        J_pi=float((mdp.initial_dist[:, None] * pi_next * q_pi_next).sum()),
        kl_to_opt=float(nu_star @ kl_rows_next),
        a_resid=a_resid,
    )


def density_ratio_l2(rho_star: np.ndarray, rho_base: np.ndarray) -> float:
    """Weighted L2 norm of the density ratio d rho* / d rho_base under rho_base."""
    mask = rho_star > 0
    if (mask & (rho_base <= 0)).any():
        return float("inf")
    return float(np.sqrt((rho_star[mask] ** 2 / rho_base[mask]).sum()))
