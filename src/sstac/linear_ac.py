"""Single-timescale actor-critic with linear function approximation.

The actor performs the natural-policy-gradient weight recursion
``theta_{k+1} = tau_{k+1} (beta^{-1} omega_k + tau_k^{-1} theta_k)`` under the
schedule ``tau_{k+1}^{-1} = (k+1) / beta``; the critic applies the Bellman
evaluation operator once per iteration under the new policy's stationary
distribution rho_{k+1}, either as an exact population least-squares solve or
as a sampled projected least-squares step.
"""

from __future__ import annotations

import logging

import numpy as np

from . import mdp as mdp_mod
from .errors import ConditioningError, ParameterError, SstacError
from .features import FeatureMap, gram_matrix, min_eigenvalue
from .loop import resolve_beta, run_single_timescale
from .policy import softmax_rows
from .sampling import RunRng, sample_sa, sample_tuples
from .trace import RunTrace

log = logging.getLogger(__name__)

MODES = ("exact", "sampled")

# A critic Gram whose smallest eigenvalue falls below this raises ConditioningError.
_GRAM_TOL = 1e-12


def project_l2(w: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the centered ball of the given radius."""
    norm = float(np.linalg.norm(w))
    if norm <= radius:
        return w
    if radius <= 0.0:
        return np.zeros_like(w)
    return w * (radius / norm)


def actor_step(theta: np.ndarray, omega: np.ndarray, k: int, beta: float) -> np.ndarray:
    """One natural-policy-gradient step from theta_k, omega_k under tau_k^{-1} = k / beta.

    Returns theta_{k+1}, the running average of omega_0 .. omega_k.
    """
    return (omega / beta + (k / beta) * theta) / ((k + 1) / beta)


def _sample_moments(features: FeatureMap, gram_pairs: np.ndarray, s: np.ndarray, a: np.ndarray, y: np.ndarray):
    """Empirical Gram over the Gram pairs and right-hand side mean(y phi[s, a]).

    For one-hot features the Gram is diagonal (pair visit frequencies) and
    both moments are bin sums over the flat pair index s * A + a, which add
    the same terms in the same order as the dense sums.
    """
    n = len(s)
    if features.one_hot:
        n_actions = features.n_actions
        pairs = gram_pairs[:, 0] * n_actions + gram_pairs[:, 1]
        gram = np.bincount(pairs, minlength=features.dim) / n
        rhs = np.bincount(s * n_actions + a, weights=y, minlength=features.dim) / n
        return gram, rhs
    phi = features.phi
    phi_gram = phi[gram_pairs[:, 0], gram_pairs[:, 1]]
    return phi_gram.T @ phi_gram / n, (y[:, None] * phi[s, a]).mean(axis=0)


def _solve_critic(gram, rhs, radius: float, hint: str, *, ridge: float = 0.0) -> np.ndarray:
    """Conditioning check, least-squares solve and ball projection shared by both critics.

    ``gram`` is the dense Gram matrix, or its diagonal (1-D) for one-hot
    features; the diagonal form divides elementwise, which gives the same
    bits as LAPACK's solve of the diagonal matrix.
    """
    diagonal = gram.ndim == 1
    ridged = gram
    if ridge > 0.0:
        ridged = gram + (ridge if diagonal else ridge * np.eye(len(gram)))
    sigma_min = min_eigenvalue(ridged)
    if sigma_min < _GRAM_TOL:
        zero = f"; zero-weight (s, a) pairs: {np.count_nonzero(gram == 0.0)}" if diagonal else ""
        raise ConditioningError(
            f"Gram matrix is singular beyond tolerance (sigma_min={sigma_min:.3e} < {_GRAM_TOL:.0e}{zero}); {hint}",
            sigma_min=sigma_min,
        )
    if not diagonal:
        return project_l2(np.linalg.solve(ridged, rhs), radius)
    return project_l2(rhs / ridged, radius)


def critic_step_exact(
    q_omega: np.ndarray,
    mdp: mdp_mod.TabularMDP,
    policy_next: np.ndarray,
    features: FeatureMap,
    rho_next: np.ndarray,
    *,
    radius: float,
) -> np.ndarray:
    """omega_{k+1}: population least squares on T^{pi_next} Q_{omega_k} (``q_omega``) under rho_next, in the ball."""
    weighted = rho_next * mdp_mod.bellman_eval(mdp, policy_next, q_omega)
    rhs = weighted.reshape(-1) if features.one_hot else np.einsum("sa,sad->d", weighted, features.phi)
    return _solve_critic(gram_matrix(features, rho_next), rhs, radius, "the evaluation distribution may lack support")


def draw_batch(mdp: mdp_mod.TabularMDP, rho: np.ndarray, policy_next: np.ndarray, rng: RunRng, n: int):
    """Draw the two sample sets of one sampled critic update from independent streams.

    Returns ``(gram_pairs, tuples)``: an (n, 2) array of (s, a) pairs for the
    Gram and the (s, a, r, s', a') arrays of ``sample_tuples`` for the target.
    """
    gram_pairs = sample_sa(rho, rng.stream("gram_batch"), n)
    return gram_pairs, sample_tuples(mdp, rho, policy_next, rng.stream("target_batch"), n)


def critic_step_sampled(
    q_omega: np.ndarray,
    batch: tuple,
    features: FeatureMap,
    gamma: float,
    *,
    radius: float,
    ridge: float = 0.0,
) -> np.ndarray:
    """omega_{k+1}: least squares on a ``draw_batch`` batch, bootstrapping from q_omega = Q_{omega_k}, in the ball."""
    gram_pairs, (s, a, r, s_next, a_next) = batch
    y = (1.0 - gamma) * r + gamma * q_omega[s_next, a_next]
    gram, rhs = _sample_moments(features, gram_pairs, s, a, y)
    return _solve_critic(gram, rhs, radius, "increase N or enable the ridge", ridge=ridge)


def default_radius(mdp: mdp_mod.TabularMDP) -> float:
    # Dominates ||Q^pi||_inf <= r_max with slack, so the exact critic never clips.
    return 2.0 * mdp.r_max / (1.0 - mdp.gamma)


def run_linear_ac(
    mdp: mdp_mod.TabularMDP,
    features: FeatureMap,
    K: int,
    *,
    mode: str = "exact",
    N: int = 1024,
    seed: int = 0,
    radius: float | None = None,
    beta: float | None = None,
    ridge: float = 0.0,
) -> RunTrace:
    """Run the full linear actor-critic loop for iterations k = 0 .. K.

    Returns a RunTrace with one diagnostic row per iteration (K+1 rows) and
    an empty ``history``: only the current theta_k and omega_k are kept from
    one iteration to the next.  Fully deterministic given the seed.
    """
    radius_val = float(radius) if radius is not None else default_radius(mdp)
    beta_val = resolve_beta(K, beta, radius_val)
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "sampled" and N < 1:
        raise ParameterError(f"N must be >= 1 in sampled mode, got {N}")
    rng = RunRng(seed)
    if ridge > 0.0:
        log.info("ridge %g active in sampled critic updates", ridge)

    theta, omega = np.zeros(features.dim), np.zeros(features.dim)
    omega_sum = np.zeros(features.dim)

    def step(k, pi_k, q_k):
        nonlocal theta, omega, omega_sum
        omega_sum = omega_sum + omega
        theta = actor_step(theta, omega, k, beta_val)
        drift = float(np.max(np.abs(theta - omega_sum / (k + 1))))
        if drift > 1e-12:
            raise SstacError(f"running-average identity violated: drift {drift:.3e}")

        inv_tau_next = (k + 1) / beta_val
        pi_next = softmax_rows(inv_tau_next * features.value_table(theta))
        _, rho_next = mdp_mod.stationary_dists(mdp, pi_next)

        if mode == "exact":
            omega = critic_step_exact(q_k, mdp, pi_next, features, rho_next, radius=radius_val)
        else:
            batch = draw_batch(mdp, rho_next, pi_next, rng, N)
            omega = critic_step_sampled(q_k, batch, features, mdp.gamma, radius=radius_val, ridge=ridge)
        critic_norm = float(np.linalg.norm(omega))
        if critic_norm > radius_val + 1e-12:
            raise SstacError(f"critic projection invariant violated: norm {critic_norm!r} > radius {radius_val!r}")

        logged = {"inv_tau": inv_tau_next, "actor_norm": float(np.linalg.norm(theta)), "critic_norm": critic_norm}
        return pi_next, rho_next, features.value_table(omega), logged

    params = {
        "algorithm": f"linear_{mode}",
        "K": K,
        "N": N if mode == "sampled" else None,
        "seed": seed,
        "beta": beta_val,
        "radius": radius_val,
        "ridge": ridge,
    }
    return run_single_timescale(
        mdp,
        K,
        step,
        q_0=features.value_table(omega),
        beta=beta_val,
        features=features,
        params=params,
    )
