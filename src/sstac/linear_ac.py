"""Single-timescale actor-critic with linear function approximation.

The actor performs the natural-policy-gradient weight recursion
``theta_{k+1} = tau_{k+1} (beta^{-1} omega_k + tau_k^{-1} theta_k)`` under the
schedule ``tau_{k+1}^{-1} = (k+1) / beta``; the critic applies the Bellman
evaluation operator once per iteration under the new policy's stationary
distribution rho_{k+1}: a population least-squares solve, exactly or under
the empirical measure of sampled draws, with the same ``FeatureMap`` moments.
"""

from __future__ import annotations

import numpy as np

from . import mdp as mdp_mod
from .errors import BALL_SLACK, ConditioningError, ContractViolationError, ParameterError, SstacError
from .errors import check_finite, check_shape
from .features import FeatureMap, gram_matrix, min_eigenvalue
from .loop import check_setting, run_settings, run_single_timescale
from .sampling import RunRng, sample_sa, sample_tuples
from .trace import RunTrace

MODES = ("exact", "sampled")

# A critic Gram whose smallest eigenvalue falls below this raises ConditioningError.
_GRAM_TOL = 1e-12


def project_l2(w: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the centered ball of the given radius."""
    if not radius >= 0.0:
        raise ContractViolationError(f"radius must be >= 0, got {radius}")
    norm = float(np.linalg.norm(w))
    if norm <= radius * (1.0 + BALL_SLACK):
        return w
    return w * (radius / norm)


def actor_step(theta: np.ndarray, omega: np.ndarray, k: int, beta: float) -> np.ndarray:
    """One natural-policy-gradient step from theta_k, omega_k under tau_k^{-1} = k / beta.

    Returns theta_{k+1}, the running average of omega_0 .. omega_k.
    """
    return (omega / beta + (k / beta) * theta) / ((k + 1) / beta)


def _empirical_table(features: FeatureMap, s: np.ndarray, a: np.ndarray, weights=None) -> np.ndarray:
    """(S, A) table of per-pair draw counts, or sums of ``weights`` in draw order, over the number of draws."""
    n_states, n_actions = features.n_states, features.n_actions
    sums = np.bincount(s * n_actions + a, weights=weights, minlength=n_states * n_actions)
    return (sums / len(s)).reshape(n_states, n_actions)


def _solve_critic(gram, rhs, radius: float, hint: str, *, ridge: float = 0.0) -> np.ndarray:
    """Conditioning check, least-squares solve and ball projection shared by both critics.

    ``gram`` is the dense Gram matrix, or its diagonal (1-D) for one-hot
    features; the diagonal form divides elementwise, which gives the same
    bits as LAPACK's solve of the diagonal matrix.
    """
    diagonal = gram.ndim == 1
    ridged = gram + (ridge if diagonal else ridge * np.eye(len(gram)))
    sigma_min = min_eigenvalue(ridged)
    if sigma_min < _GRAM_TOL:
        zero = f"; zero-weight (s, a) pairs: {np.count_nonzero(gram == 0.0)}" if diagonal else ""
        raise ConditioningError(
            f"Gram matrix is singular beyond tolerance (sigma_min={sigma_min:.3e} < {_GRAM_TOL:.0e}{zero}); {hint}",
            sigma_min=sigma_min,
        )
    return project_l2(rhs / ridged if diagonal else np.linalg.solve(ridged, rhs), radius)


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
    check_finite("q_omega", q_omega)
    rhs = features.weighted_sum(rho_next * mdp_mod.bellman_eval(mdp, policy_next, q_omega))
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
    ridge = check_setting("ridge", ridge)  # as the driver checks it, for a step called directly
    q_omega = check_shape("q_omega", q_omega, (features.n_states, features.n_actions))
    check_finite("q_omega", q_omega)
    if len(s) == 0 or len(gram_pairs) == 0:
        raise ContractViolationError(f"sample sets must be nonempty, got {len(gram_pairs)} and {len(s)} draws")
    y = (1.0 - gamma) * r + gamma * q_omega[s_next, a_next]
    rho_hat = _empirical_table(features, gram_pairs[:, 0], gram_pairs[:, 1])
    rhs = features.weighted_sum(_empirical_table(features, s, a, y))
    return _solve_critic(features.gram(rho_hat), rhs, radius, "increase N or enable the ridge", ridge=ridge)


def run_linear_ac(
    mdp: mdp_mod.TabularMDP,
    features: FeatureMap,
    K: int,
    *,
    mode: str = "exact",
    N: int = 1024,
    seed: int = 0,
    R: float | None = None,
    beta: float | None = None,
    ridge: float = 0.0,
) -> RunTrace:
    """Run the full linear actor-critic loop for iterations k = 0 .. K.

    Returns a RunTrace with one diagnostic row per iteration (K+1 rows) and
    an empty ``history``: only the current theta_k and omega_k are kept from
    one iteration to the next.  Fully deterministic given the seed.
    """
    if mode not in MODES:
        raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
    sampled = mode == "sampled"
    ridge = check_setting("ridge", ridge)  # in either mode, though only the sampled critic reads it
    # The default 2 r_max / (1 - gamma) dominates ||Q^pi||_inf <= r_max, but not ||omega||_2 =
    # ||Q_omega||_F, which grows like sqrt(S*A): the exact critic can clip on larger MDPs.
    params = {
        "algorithm": f"linear_{mode}",
        **run_settings(K, beta, R, 2.0 * mdp.r_max / (1.0 - mdp.gamma), seed=seed),
        "N": check_setting("N", N) if sampled else None,
        "ridge": ridge if sampled else None,
    }
    beta, R, N = params["beta"], params["R"], params["N"]
    rng = RunRng(params["seed"])

    theta, omega = np.zeros(features.dim), np.zeros(features.dim)
    omega_sum = np.zeros(features.dim)

    def actor_fit(k, pi_k, q_k):
        nonlocal theta, omega_sum
        omega_sum = omega_sum + omega
        theta = actor_step(theta, omega, k, beta)
        average = omega_sum / (k + 1)
        drift = float(np.max(np.abs(theta - average)))
        if drift > 1e-12 * max(1.0, float(np.max(np.abs(average)))):  # round-off grows with the weights
            raise SstacError(f"running-average identity violated: drift {drift:.3e}")
        return features.value_table(theta)

    def critic_fit(pi_next, rho_next, q_k):
        nonlocal omega
        if mode == "exact":
            omega = critic_step_exact(q_k, mdp, pi_next, features, rho_next, radius=R)
        else:
            batch = draw_batch(mdp, rho_next, pi_next, rng, N)
            omega = critic_step_sampled(q_k, batch, features, mdp.gamma, radius=R, ridge=ridge)
        logged = {"actor_norm": float(np.linalg.norm(theta)), "critic_norm": float(np.linalg.norm(omega))}
        return features.value_table(omega), logged

    q_0 = features.value_table(omega)
    return run_single_timescale(mdp, actor_fit, critic_fit, q_0=q_0, features=features, params=params)
