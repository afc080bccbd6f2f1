"""One-hot features take a diagonal Gram path; it must give the dense path's results bit for bit.

Each property compares the library against the dense computation written
out inline (matmul Gram, eigvalsh conditioning check, LAPACK solve), with
``np.array_equal``.  Pair weights include exact zeros and values within a
few ulps of the fixed conditioning tolerance 1e-12, so both the accept and
the reject branch of the check are exercised.  The sampled critic's
reference is the exact critic's computation under the empirical measure of
its draws: the pair frequencies of the Gram draws and the per-pair sums of
the targets, over n.

``FeatureMap.value_table`` reshapes the weights of one-hot features instead
of multiplying by the identity; its property compares signs too, since
``np.array_equal`` counts -0.0 equal to +0.0.

The critics take the table Q_omega = phi @ omega, while the references
compute from omega itself.  The sampled critic's bootstrap gathers
``Q_omega[s', a']``, which for one-hot features is ``phi[s', a'] @ omega``
bit for bit; for dense features the two differ by round-off, which the
last property bounds.
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
    random_features,
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


def empirical_table(feats, s, a, weights=1.0):
    """Per-pair sums of ``weights`` (counts by default) over the draws (s, a), in draw order, divided by n."""
    table = np.zeros((feats.n_states, feats.n_actions))
    np.add.at(table, (s, a), weights)
    return table / len(s)


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


_value_weight = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1030, -(2.0**-1030), 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 4), st.data())
def test_one_hot_value_table_matches_matvec_bit_for_bit(n_states, n_actions, data):
    d = n_states * n_actions
    weights = np.array(data.draw(st.lists(_value_weight, min_size=d, max_size=d)))
    expected = np.eye(d).reshape(n_states, n_actions, d) @ weights
    got = tabular_features(n_states, n_actions).value_table(weights)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


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
        lambda: critic_step_exact(
            p["feats"].phi @ p["omega"], p["mdp"], p["policy"], p["feats"], p["rho"], radius=p["radius"]
        ),
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
        gram = dense_gram(feats, empirical_table(feats, gram_pairs[:, 0], gram_pairs[:, 1]))
        rhs = np.einsum("sa,sad->d", empirical_table(feats, s, a, y), feats.phi)
        if ridge > 0.0:
            gram = gram + ridge * np.eye(feats.dim)
        return dense_solve(gram, rhs, radius)

    assert_same_outcome(
        lambda: critic_step_sampled(feats.phi @ omega, batch, feats, gamma, radius=radius, ridge=ridge),
        reference,
    )


@PROPERTY
@given(
    st.integers(1, 8),
    st.integers(1, 4),
    st.integers(1, 8),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.1, 1.0, 100.0]),
)
def test_dense_bootstrap_gather_matches_row_product_to_round_off(n_states, n_actions, dim, n, seed, scale):
    feats = random_features(n_states, n_actions, dim, seed)
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal(dim) * scale
    s_next, a_next = rng.integers(0, n_states, n), rng.integers(0, n_actions, n)
    gap = np.max(np.abs((feats.phi @ omega)[s_next, a_next] - feats.phi[s_next, a_next] @ omega))
    assert gap <= 1e-12 * (1.0 + np.linalg.norm(omega))


@PROPERTY
@given(
    st.integers(1, 8),
    st.integers(1, 4),
    st.integers(1, 8),
    st.integers(1, 64),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.1, 1.0, 100.0]),
)
def test_empirical_table_moments_match_sample_means_to_round_off(n_states, n_actions, dim, n, seed, scale):
    feats = random_features(n_states, n_actions, dim, seed)
    rng = np.random.default_rng(seed)
    s, a = rng.integers(0, n_states, n), rng.integers(0, n_actions, n)
    y = rng.standard_normal(n) * scale
    phi = feats.phi[s, a]
    tol = 1e-12 * (1.0 + np.max(np.abs(y)))
    gram = feats.gram(empirical_table(feats, s, a))
    gram = np.diag(gram) if feats.one_hot else gram  # a single pair with phi = +1 is the 1x1 identity
    assert np.max(np.abs(gram - phi.T @ phi / n)) <= tol
    rhs = feats.weighted_sum(empirical_table(feats, s, a, y))
    assert np.max(np.abs(rhs - (y[:, None] * phi).mean(axis=0))) <= tol
