"""One-hot features take a diagonal Gram path; it must give the dense path's results bit for bit.

Each property compares the library against the dense computation written
out inline (matmul Gram, eigvalsh conditioning check, LAPACK solve), with
``np.array_equal``.  Pair weights include exact zeros and values within a
few ulps of the fixed conditioning tolerance 1e-12, so both the accept and
the reject branch of the check are exercised.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sstac import (
    ConditioningError,
    bellman_eval,
    critic_step_exact,
    critic_step_sampled,
    gram_min_singular,
    random_mdp,
    tabular_features,
)
from sstac.features import gram_matrix
from sstac.linear_ac import project_l2

GRAM_TOL = 1e-12

PROPERTY = settings(max_examples=150, deadline=None, database=None)

_near_tol = [GRAM_TOL * (1.0 + k * 2.0**-52) for k in (-2, -1, 0, 1, 2)]
_weight = st.one_of(
    st.just(0.0),
    st.sampled_from(_near_tol),
    st.floats(min_value=1e-9, max_value=1.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def problems(draw):
    """Sizes, pair weights rho, a random MDP and policy, and critic weights."""
    n_states = draw(st.integers(1, 4))
    n_actions = draw(st.integers(1, 3))
    rho = np.array(draw(st.lists(_weight, min_size=n_states * n_actions, max_size=n_states * n_actions)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return {
        "feats": tabular_features(n_states, n_actions),
        "rho": rho.reshape(n_states, n_actions),
        "mdp": random_mdp(n_states, n_actions, seed=seed),
        "policy": rng.dirichlet(np.ones(n_actions), size=n_states),
        "omega": rng.standard_normal(n_states * n_actions) * draw(st.sampled_from([0.1, 5.0])),
        "radius": draw(st.sampled_from([0.05, 100.0])),
        "rng": rng,
    }


def draw_batch_arrays(p, n):
    """A ``(gram_pairs, (s, a, r, s', a'))`` batch of n uniform pairs; small n leaves pairs undrawn."""
    n_states, n_actions = p["rho"].shape
    rng = p["rng"]
    gram_pairs = np.stack([rng.integers(0, n_states, n), rng.integers(0, n_actions, n)], axis=1)
    s, a = rng.integers(0, n_states, n), rng.integers(0, n_actions, n)
    s_next, a_next = rng.integers(0, n_states, n), rng.integers(0, n_actions, n)
    return gram_pairs, (s, a, p["mdp"].reward[s, a], s_next, a_next)


def dense_gram(feats, rho):
    flat = feats.phi.reshape(-1, feats.dim)
    return (flat * rho.reshape(-1, 1)).T @ flat


def dense_solve(gram, rhs, radius):
    sigma_min = float(np.linalg.eigvalsh(gram)[0])
    if sigma_min < GRAM_TOL:
        raise ConditioningError("dense reference", sigma_min=sigma_min)
    return project_l2(np.linalg.solve(gram, rhs), radius)


def dense_population(p, rho):
    feats = p["feats"]
    target = bellman_eval(p["mdp"], p["policy"], feats.phi @ p["omega"])
    rhs = np.einsum("sa,sad->d", rho * target, feats.phi)
    return dense_solve(dense_gram(feats, rho), rhs, p["radius"])


def dense_sample_moments(phi, gram_pairs, s, a, y):
    phi_gram = phi[gram_pairs[:, 0], gram_pairs[:, 1]]
    return phi_gram.T @ phi_gram / len(s), (y[:, None] * phi[s, a]).mean(axis=0)


def assert_same_outcome(got, reference):
    """Both raise the same error (ConditioningError with the same sigma_min) or return equal arrays."""
    try:
        expected = reference()
    except ConditioningError as exc:
        with pytest.raises(ConditioningError) as raised:
            got()
        assert raised.value.sigma_min == exc.sigma_min
        return
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            got()
        return
    assert np.array_equal(got(), expected)


@PROPERTY
@given(problems())
def test_gram_matrix_and_min_singular_match_dense(p):
    feats, rho = p["feats"], p["rho"]
    gram = dense_gram(feats, rho)
    assert np.array_equal(gram_matrix(feats, rho), np.diagonal(gram) if feats.one_hot else gram)
    assert gram_min_singular(feats, rho) == float(max(np.linalg.eigvalsh(gram)[0], 0.0))


@PROPERTY
@given(problems())
def test_exact_critic_matches_dense_solve(p):
    assert_same_outcome(
        lambda: critic_step_exact(p["omega"], p["mdp"], p["policy"], p["feats"], p["rho"], radius=p["radius"]),
        lambda: dense_population(p, p["rho"]),
    )


@PROPERTY
@given(problems(), st.integers(1, 40), st.sampled_from([0.0, 1e-6, 1e-3]))
def test_sampled_critic_matches_dense_solve(p, n, ridge):
    batch = draw_batch_arrays(p, n)
    gram_pairs, (s, a, r, s_next, a_next) = batch
    feats, omega, radius, gamma = p["feats"], p["omega"], p["radius"], p["mdp"].gamma

    def reference():
        y = (1.0 - gamma) * r + gamma * (feats.phi[s_next, a_next] @ omega)
        gram, rhs = dense_sample_moments(feats.phi, gram_pairs, s, a, y)
        if ridge > 0.0:
            gram = gram + ridge * np.eye(feats.dim)
        return dense_solve(gram, rhs, radius)

    assert_same_outcome(
        lambda: critic_step_sampled(omega, batch, feats, gamma, radius=radius, ridge=ridge),
        reference,
    )
