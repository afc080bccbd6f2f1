import copy
import itertools
import pickle
import tracemalloc

import numpy as np
import pytest

from sstac import ContractViolationError, FeatureMap, gram_min_singular, random_features, tabular_features
from sstac.deep_net import sa_encoding_table
from sstac.features import gram_matrix


def test_tabular_one_hot_layout():
    feats = tabular_features(2, 2)
    expected = np.zeros(4)
    expected[2] = 1.0  # index s * n_actions + a = 1*2 + 0
    np.testing.assert_array_equal(feats.phi[1, 0], expected)


def test_tabular_unit_norms():
    feats = tabular_features(3, 4)
    np.testing.assert_allclose(np.linalg.norm(feats.phi, axis=2), 1.0)


def test_tabular_gram_under_uniform_is_scaled_identity():
    feats = tabular_features(2, 2)
    gram = gram_matrix(feats, np.full((2, 2), 0.25))
    np.testing.assert_array_equal(gram, np.diagonal(0.25 * np.eye(4)))
    assert abs(gram_min_singular(feats, np.full((2, 2), 0.25)) - 0.25) < 1e-12


def test_random_features_normalized():
    feats = random_features(4, 3, dim=6, seed=9)
    np.testing.assert_allclose(np.linalg.norm(feats.phi, axis=2), 1.0, atol=1e-12)


def test_random_features_seeded_reproducibility():
    a = random_features(4, 3, dim=6, seed=9)
    b = random_features(4, 3, dim=6, seed=9)
    np.testing.assert_array_equal(a.phi, b.phi)
    c = random_features(4, 3, dim=6, seed=10)
    assert np.any(a.phi != c.phi)


def test_gram_zero_probability_pair_is_rank_deficient():
    feats = tabular_features(2, 2)
    rho = np.array([[0.5, 0.5], [0.0, 0.0]])
    assert gram_min_singular(feats, rho) == 0.0


def test_gram_matches_eigendecomposition_oracle():
    feats = random_features(5, 3, dim=4, seed=13)
    rng = np.random.default_rng(14)
    rho = rng.dirichlet(np.ones(15)).reshape(5, 3)
    got = gram_min_singular(feats, rho)
    flat = feats.phi.reshape(-1, 4)
    gram = sum(w * np.outer(v, v) for w, v in zip(rho.reshape(-1), flat))
    oracle = float(np.min(np.linalg.eigh(gram)[0]))
    assert abs(got - oracle) < 1e-8


def test_gram_spectrum_bounds():
    rng = np.random.default_rng(15)
    for seed in range(20):
        feats = random_features(4, 2, dim=3, seed=seed)
        rho = rng.dirichlet(np.ones(8)).reshape(4, 2)
        sigma = gram_min_singular(feats, rho)
        assert 0.0 <= sigma <= 1.0


def test_rejects_oversized_norms():
    phi = np.zeros((1, 1, 2))
    phi[0, 0] = [1.0, 0.5]
    with pytest.raises(ContractViolationError, match="norm"):
        FeatureMap(phi=phi)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_features_naming_the_pair(bad):
    phi = tabular_features(3, 2).phi.copy()
    phi[2, 1, 0] = bad
    with pytest.raises(ContractViolationError, match=rf"^phi entry \(2, 1, 0\) is {bad}, not finite$"):
        FeatureMap(phi=phi)


def test_tabular_features_are_detected_one_hot():
    for n_states, n_actions in [(1, 1), (1, 2), (2, 2), (25, 4), (64, 8)]:
        assert tabular_features(n_states, n_actions).one_hot


def _dense_gram(feats, rho):
    flat = feats.phi.reshape(-1, feats.dim)
    return (flat * rho.reshape(-1, 1)).T @ flat


@pytest.mark.parametrize(
    "feats",
    [
        # chain2's network encoding: d = S + A = S * A = 4, unit norm, not the identity
        FeatureMap(phi=sa_encoding_table(2, 2)),
        FeatureMap(phi=np.eye(6)[:, [1, 0, 2, 3, 5, 4]].reshape(3, 2, 6)),
        random_features(3, 2, dim=6, seed=4),
        FeatureMap(phi=0.5 * np.eye(6).reshape(3, 2, 6)),
        # unit diagonal plus an off-diagonal entry small enough to pass the norm check
        FeatureMap(phi=(np.eye(6) + 1e-7 * np.eye(6, k=1)).reshape(3, 2, 6)),
    ],
    ids=["sa_encoding", "permuted_identity", "random", "scaled_identity", "near_identity"],
)
def test_non_identity_features_keep_the_dense_gram(feats):
    assert not feats.one_hot
    n_pairs = feats.n_states * feats.n_actions
    rho = np.random.default_rng(5).dirichlet(np.ones(n_pairs)).reshape(feats.n_states, feats.n_actions)
    gram = gram_matrix(feats, rho)
    np.testing.assert_array_equal(gram, _dense_gram(feats, rho))
    assert gram_min_singular(feats, rho) == max(float(np.linalg.eigvalsh(gram)[0]), 0.0)


def test_permutation_matrix_is_validated_and_not_one_hot():
    # d nonzeros and unit norms, but off the diagonal: not the identity, so the full checks run.
    feats = FeatureMap(phi=np.eye(6)[::-1].reshape(3, 2, 6))
    assert not feats.one_hot
    np.testing.assert_array_equal(feats.value_table(np.arange(6.0)), np.arange(6.0)[::-1].reshape(3, 2))
    phi = np.eye(6)[::-1].reshape(3, 2, 6)
    phi[0, 0, 5] = np.nan
    with pytest.raises(ContractViolationError, match=r"^phi entry \(0, 0, 5\) is nan, not finite$"):
        FeatureMap(phi=phi)


@pytest.mark.parametrize(
    "entry, message",
    [
        (np.nan, r"^phi entry \(1, 0, 2\) is nan, not finite$"),
        (np.inf, r"^phi entry \(1, 0, 2\) is inf, not finite$"),
        (1.0 + 1e-9, r"^feature norms must not exceed 1, max is 1\.000000001$"),
    ],
    ids=["nan", "inf", "above-1"],
)
def test_identity_with_one_bad_diagonal_entry_is_rejected(entry, message):
    phi = np.eye(4).reshape(2, 2, 4)
    phi[1, 0, 2] = entry
    with pytest.raises(ContractViolationError, match=message):
        FeatureMap(phi=phi)


def test_tabular_phi_has_the_bytes_of_the_dense_identity():
    # Every (S, A) in 1..40, and (512, 8): the view reads as np.eye(S * A), bit pattern for bit pattern.
    # eye(d) is the leading d x d block of eye(4096), so one dense identity serves every shape.
    eye = np.eye(4096).view(np.uint64)
    for n_states, n_actions in [*itertools.product(range(1, 41), repeat=2), (512, 8)]:
        d = n_states * n_actions
        phi = tabular_features(n_states, n_actions).phi
        assert phi.shape == (n_states, n_actions, d) and phi.dtype == np.float64
        assert np.array_equal(phi.view(np.uint64).reshape(d, d), eye[:d, :d]), (n_states, n_actions)


def test_tabular_phi_is_read_only_and_one_hot():
    feats = tabular_features(3, 4)
    assert feats.one_hot
    with pytest.raises(ValueError, match="read-only"):
        feats.phi[0, 0, 0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        feats.phi[2, 3] += 1.0


@pytest.mark.parametrize("n_states, n_actions", [(1, 1), (1, 3), (2, 2), (5, 3), (25, 4)])
def test_tabular_view_and_dense_identity_give_the_same_bytes(n_states, n_actions):
    d = n_states * n_actions
    view, dense = tabular_features(n_states, n_actions), FeatureMap(phi=np.eye(d).reshape(n_states, n_actions, d))
    rng = np.random.default_rng(d)
    weights = rng.standard_normal(d)
    weights[::2] *= -0.0  # signed zeros, which value_table turns into +0.0
    rho = rng.dirichlet(np.ones(d)).reshape(n_states, n_actions)
    rho.flat[0] = 0.0
    table = rng.standard_normal((n_states, n_actions))
    for method, arg in [("value_table", weights), ("gram", rho), ("weighted_sum", table)]:
        got, expected = getattr(view, method)(arg), getattr(dense, method)(arg)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), method
    assert gram_min_singular(view, rho) == gram_min_singular(dense, rho)


def test_tabular_features_memory_scales_with_the_dimension():
    # The dense (S * A)^2 identity at (512, 8) is 128 MiB; the view holds one line of 2d - 1 floats.
    tracemalloc.start()
    try:
        tabular_features(512, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"tabular_features(512, 8) peaked at {peak / 2**20:.2f} MiB"


def test_feature_maps_pickle_and_copy_with_their_values():
    for feats in (tabular_features(3, 4), random_features(3, 2, 4, seed=0)):
        for copied in (pickle.loads(pickle.dumps(feats)), copy.deepcopy(feats)):
            assert copied.one_hot == feats.one_hot and copied.phi.tobytes() == feats.phi.tobytes()
