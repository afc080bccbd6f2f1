import logging

import numpy as np
import pytest

from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sstac import chain2, random_mdp, tabular_features
from sstac import mdp as mdp_module
from sstac.deep_net import DnnParams, init_params
from sstac.errors import BALL_SLACK, check_finite
from sstac.features import gram_min_singular
from sstac.policy import LOGIT_CLAMP, kl


@pytest.fixture
def chain():
    return chain2()


@pytest.fixture
def chain_features():
    return tabular_features(2, 2)


@pytest.fixture
def mdp5():
    return random_mdp(5, 3, seed=11)


def mdp_doc(mdp):
    """The JSON document that ``mdp_from_json`` reads back as ``mdp``."""
    return {
        "n_states": mdp.n_states,
        "n_actions": mdp.n_actions,
        "gamma": mdp.gamma,
        "r_max": mdp.r_max,
        "transition": mdp.transition.tolist(),
        "reward": mdp.reward.tolist(),
        "initial_dist": mdp.initial_dist.tolist(),
    }


def random_policy(rng, n_states, n_actions):
    return rng.dirichlet(np.ones(n_actions), size=n_states)


# The network's pre-change forms, kept as references for the bit-equality tests of the lean SGD step.


def reference_layers(params, xs):
    """``deep_net._layers`` as it was: np.sqrt for the scale, a fresh array per scaled activation."""
    scale = 1.0 / np.sqrt(params.weights[0].shape[1])
    activations, pre_activations = [np.asarray(xs, dtype=float)], []
    for w in params.weights:
        pre_activations.append(activations[-1] @ w)
        activations.append(scale * np.maximum(pre_activations[-1], 0.0))
    return activations[-1] @ params.sign_vector, activations, pre_activations


def reference_gradient(params, x):
    """``deep_net.gradient`` as it was: a full forward pass, np.outer and a fresh delta per layer."""
    value, activations, pre_activations = reference_layers(params, x)
    scale = 1.0 / np.sqrt(params.weights[0].shape[1])
    delta = scale * (pre_activations[-1] > 0.0) * params.sign_vector
    grads = [None] * len(params.weights)
    for h in range(len(params.weights) - 1, -1, -1):
        grads[h] = np.outer(activations[h], delta)
        if h > 0:
            upstream = params.weights[h] @ delta
            delta = scale * (pre_activations[h - 1] > 0.0) * upstream
    return float(value), grads


def reference_project_ball_inplace(params, radius):
    """``deep_net.project_ball_inplace`` as it was, with np.linalg.norm for each distance."""
    bound = radius * (1.0 + BALL_SLACK)
    for h, (w, w0) in enumerate(zip(params.weights, params.anchor)):
        diff = w - w0
        dist = float(np.linalg.norm(diff))
        if dist > bound and dist > bound + np.finfo(float).eps * float(np.linalg.norm(w0)):
            params.weights[h] = w0 + diff * (radius / dist) if radius > 0.0 else w0.copy()


def reference_sgd_averaged(work, radius, stepsize, inputs, targets):
    """``neural_ac._sgd_averaged``'s averaged weights as they were, from the reference gradient and projection."""
    acc = [np.zeros_like(w) for w in work.weights]
    for n in range(len(inputs)):
        value, grads = reference_gradient(work, inputs[n])
        resid = value - targets[n]
        for h in range(len(work.weights)):
            work.weights[h] -= stepsize * resid * grads[h]
        reference_project_ball_inplace(work, radius)
        for h in range(len(work.weights)):
            acc[h] += work.weights[h]
    return [a / len(inputs) for a in acc]


# Input entries with exact zeros, signed zeros and negatives, so pre-activations hit the ReLU kink.
KINKY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))


@st.composite
def kinky_network(draw):
    """A d in 1..6, m in 1..16, H in 1..3 network whose weights have exact zeros, and a batch of kinky inputs."""
    d, m, depth = draw(st.integers(1, 6)), draw(st.integers(1, 16)), draw(st.integers(1, 3))
    params = init_params(d, m, depth, seed=draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_share = draw(st.sampled_from([0.0, 0.3, 0.8]))
    for w in params.weights:
        w[rng.random(w.shape) < zero_share] = 0.0
    xs = draw(arrays(float, (draw(st.integers(1, 4)), d), elements=KINKY))
    return params, xs


def one_term_case(weights, signs, xs):
    """A (network, inputs) case with the given layers anchored at themselves, as ``kinky_network`` draws them."""
    layers = [np.array(w, dtype=float) for w in weights]
    params = DnnParams(weights=layers, sign_vector=np.array(signs, dtype=float), anchor=[w.copy() for w in layers])
    return params, np.array(xs, dtype=float)


# Networks with products of one term, where ``@`` returns 0.0 + product and so turns a -0.0 product into +0.0.
# With m = 1 every product after the first layer has one term: a closed ReLU gives the output 0.0 * -1.0 and
# the backprop delta 2.0 * -0.0.  With d = 1 the first layer's product has one: the inputs -0.0 and -1.0 meet
# the weights 2.0 and 0.0.
M1_CASE = one_term_case([[[1.5], [-0.0]], [[2.0]]], [-1.0], [[-0.0, 1.0], [0.0, -1.0], [1.0, 0.0]])
D1_CASE = one_term_case(
    [[[2.0, 0.0, -1.0]], [[0.0, 1.0, -0.0], [-0.5, 0.0, 1.0], [1.0, -1.0, 0.0]]], [1.0, -1.0, 1.0], [[-0.0], [-1.0], [1.0]]
)


# The draw counts as they were before they walked the draws in chunks: each count compares every draw in one
# pass, and sample_tuples sums its s' and a' comparisons into int64.  Kept as byte-level references.


def single_pass_sample_sa(rho, rng, n):
    """``sampling.sample_sa`` as it was, for a checked rho: both levels of the blocked count in one pass."""
    flat = np.asarray(rho, dtype=float).reshape(-1)
    blocks = np.full((8, len(flat) // 8 + 1), np.inf)
    blocks.T.flat[: len(flat)] = np.sort(np.cumsum(flat))
    u = rng.random(n)
    below = (blocks[-1][:, None] <= u).sum(axis=0, dtype=np.min_scalar_type(blocks.shape[1])).astype(np.intp)
    idx = 8 * below + (blocks.take(below, axis=1) <= u).sum(axis=0, dtype=np.uint8)
    s, a = np.divmod(np.minimum(idx, len(flat) - 1), rho.shape[1])
    return np.stack([s, a], axis=1)


def single_pass_sample_tuples(mdp, rho, pi_next, rng, n):
    """``sampling.sample_tuples`` as it was, for checked inputs: the s' and a' counts in one pass each."""
    pairs = single_pass_sample_sa(rho, rng, n)
    s, a = pairs[:, 0], pairs[:, 1]
    values, counts = mdp.step_table
    rows = s * mdp.n_actions + a
    below = (values.take(rows, axis=1) <= rng.random(n)).sum(axis=0)
    s_next = counts.take(rows * counts.shape[1] + below).astype(np.intp)
    cum_pi = np.cumsum(pi_next.T, axis=0)
    a_next = np.minimum((cum_pi.take(s_next, axis=1) <= rng.random(n)).sum(axis=0), mdp.n_actions - 1)
    return s, a, mdp.reward[s, a], s_next, a_next


# The exact scorer's pre-change forms, kept as byte-level references: value iteration with a fresh table per
# sweep, softmax with separate finiteness and clamp tests, and the error decomposition with no carry.


def reference_optimal_q(mdp):
    """``mdp.optimal_q`` as it was: each sweep a new table from (1 - gamma) r + gamma P max_a q."""
    gamma, tol = mdp.gamma, 1e-12
    stop = tol if gamma == 0.0 else tol * (1.0 - gamma) / (2.0 * gamma)
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(10_000_000):
        q_next = (1.0 - gamma) * mdp.reward + gamma * (mdp.transition @ q.max(axis=1))
        delta = float(np.max(np.abs(q_next - q)))
        q = q_next
        if delta <= stop:
            break
    return q, np.eye(mdp.n_actions)[q.argmax(axis=1)]


def reference_softmax_rows(logits):
    """``policy.softmax_rows`` as it was: check_finite first, then a separate clamp test."""
    z = np.asarray(logits, dtype=float)
    check_finite("logits", z)
    if np.any(np.abs(z) > LOGIT_CLAMP):
        logging.getLogger("sstac.policy").warning(
            "clamping logits with |value| > %g (max %g)", LOGIT_CLAMP, np.abs(z).max()
        )
        z = np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def reference_error_decomposition(
    mdp, *, pi_k, pi_next, q_omega_k, q_omega_next, q_pi_next, q_star, pi_star, nu_star, rho_next, beta, features
):
    """``diagnostics.error_decomposition`` as it was: every table and KL row computed afresh, with no carry,
    and the scored trace columns returned as a dict in trace order."""
    gamma = mdp.gamma
    t_next_q_omega_k = mdp_module.bellman_eval(mdp, pi_next, q_omega_k)

    a1 = gamma * (mdp_module.apply_P_pi(mdp, pi_star, q_omega_k) - mdp_module.apply_P_pi(mdp, pi_next, q_omega_k))
    a2 = gamma * mdp_module.apply_P_pi(mdp, pi_star, q_pi_next - q_omega_k)
    a3 = t_next_q_omega_k - q_pi_next
    identity = (1.0 - gamma) * mdp.reward + gamma * mdp_module.apply_P_pi(mdp, pi_star, q_pi_next) - q_pi_next
    a_resid = float(np.max(np.abs(a1 + a2 + a3 - identity)))

    eps_c = t_next_q_omega_k - q_omega_next
    e_table = q_omega_k - t_next_q_omega_k

    kl_rows_prev = kl(pi_star, pi_k)
    kl_rows_next = kl(pi_star, pi_next)
    theta_kl = float(nu_star @ (kl_rows_prev - kl_rows_next))
    kl_to_opt = float(nu_star @ kl_rows_next)

    log_ratio = np.log(np.maximum(pi_next, 1e-300)) - np.log(np.maximum(pi_k, 1e-300))
    mismatch = log_ratio - q_omega_k / beta
    eps_a_rows = np.abs((mismatch * (pi_star - pi_next)).sum(axis=1))
    eps_b_rows = np.abs((mismatch * (pi_k - pi_next)).sum(axis=1))

    rho_star = nu_star[:, None] * pi_star

    return dict(
        gap=float(np.sum(rho_star * (q_star - q_pi_next))),
        eps_c_l2=float(np.sqrt(np.sum(rho_next * eps_c**2))),
        eps_c_sup=float(np.max(np.abs(eps_c))),
        e_sup=float(np.max(np.abs(e_table))),
        theta_kl=theta_kl,
        eps_a=float(nu_star @ eps_a_rows),
        eps_b=float(nu_star @ eps_b_rows),
        phi_star=reference_density_ratio_l2(rho_star, rho_next),
        sigma_star=float(gram_min_singular(features, rho_next)),
        J_pi=float(np.sum(mdp.initial_dist[:, None] * pi_next * q_pi_next)),
        kl_to_opt=kl_to_opt,
        a_resid=a_resid,
    )


def reference_scores(mdp, **inputs):
    """``reference_error_decomposition`` of the scorer's ``inputs``, with Q*, pi*, nu* and Q^{pi_next} solved afresh."""
    q_star, pi_star = reference_optimal_q(mdp)
    nu_star, _ = mdp_module.stationary_dists(mdp, pi_star)
    q_pi_next = mdp_module.exact_q_pi(mdp, inputs["pi_next"])
    return reference_error_decomposition(
        mdp, q_pi_next=q_pi_next, q_star=q_star, pi_star=pi_star, nu_star=nu_star, **inputs
    )


def reference_density_ratio_l2(rho_star, rho_base):
    """The ``phi_star`` column as it was first computed, with np.any and np.sum."""
    mask = rho_star > 0
    if np.any(mask & (rho_base <= 0)):
        return float("inf")
    return float(np.sqrt(np.sum(rho_star[mask] ** 2 / rho_base[mask])))
