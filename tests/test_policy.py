import logging

import numpy as np
import pytest

from sstac import (
    ContractViolationError,
    InfiniteDivergenceError,
    ParameterError,
    kl,
    kl_regularized_argmax,
    softmax_rows,
    tabular_features,
)

from conftest import random_policy


def project_simplex(v):
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, len(v) + 1)
    cond = u - css / ks > 0
    rho = ks[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def pga_oracle(q_row, base_row, beta, steps=2000, lr=1e-2):
    """Projected gradient ascent on <q, p> - beta * KL(p || base) over the simplex."""
    p = base_row.copy()
    for _ in range(steps):
        grad = q_row - beta * (np.log(np.maximum(p, 1e-15) / base_row) + 1.0)
        p = project_simplex(p + lr * grad)
    return p


def objective(p, q_row, base_row, beta):
    mask = p > 0
    return float(p @ q_row - beta * np.sum(p[mask] * np.log(p[mask] / base_row[mask])))


class TestToMatrix:
    def test_zero_inv_temp_is_uniform(self):
        rng = np.random.default_rng(0)
        np.testing.assert_allclose(softmax_rows(0.0 * rng.standard_normal((3, 4))), 0.25)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((3, 4))
        shifted = f + rng.standard_normal((3, 1))
        a = softmax_rows(2.0 * f)
        b = softmax_rows(2.0 * shifted)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_closed_form_quarter_three_quarters(self):
        np.testing.assert_allclose(softmax_rows(np.array([[0.0, np.log(3.0)]])), [[0.25, 0.75]], atol=1e-14)

    def test_clamps_extreme_logits_with_one_warning(self, caplog):
        # Unclamped, exp(-800) and exp(-900) underflow to 0; clamped at +-700, both rows keep exp(-700).
        tiny = np.exp(-700.0)
        with caplog.at_level(logging.WARNING, logger="sstac.policy"):
            pi = softmax_rows(np.array([[800.0, 0.0], [-900.0, 0.0]]))
        np.testing.assert_array_equal(pi, np.array([[1.0, tiny], [tiny, 1.0]]) / (1.0 + tiny))
        assert [r.getMessage() for r in caplog.records] == ["clamping logits with |value| > 700 (max 900)"]

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        pi = softmax_rows(5.0 * rng.standard_normal((6, 3)))
        np.testing.assert_allclose(pi.sum(axis=1), 1.0, atol=1e-12)

    def test_linear_energy_constructor(self):
        feats = tabular_features(2, 2)
        w = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(feats.value_table(w), [[1.0, 2.0], [3.0, 4.0]])


class TestKl:
    def test_kl_self_is_zero(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(5))
        assert kl(p, p) == 0.0

    def test_point_mass_closed_form(self):
        assert abs(kl(np.array([1.0, 0.0]), np.array([0.5, 0.5])) - np.log(2.0)) < 1e-14

    def test_nonnegative_gibbs(self):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            assert kl(p, q) >= 0.0

    def test_infinite_divergence_raises(self):
        with pytest.raises(InfiniteDivergenceError):
            kl(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    def test_matrix_rows(self):
        rng = np.random.default_rng(5)
        p = random_policy(rng, 3, 4)
        out = kl(p, p)
        np.testing.assert_allclose(out, 0.0)
        assert out.shape == (3,)


class TestKlRegularizedArgmax:
    def test_zero_q_returns_base_policy(self):
        rng = np.random.default_rng(6)
        logits = 1.5 * rng.standard_normal((3, 4))
        np.testing.assert_allclose(
            kl_regularized_argmax(logits, np.zeros((3, 4)), beta=2.0), softmax_rows(logits), atol=1e-12
        )

    def test_huge_beta_regularizer_dominates(self):
        rng = np.random.default_rng(7)
        logits = 1.5 * rng.standard_normal((3, 4))
        q = rng.uniform(0, 1, size=(3, 4))
        np.testing.assert_allclose(
            kl_regularized_argmax(logits, q, beta=1e12), softmax_rows(logits), atol=1e-10
        )

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ParameterError):
            kl_regularized_argmax(np.zeros((1, 2)), np.zeros((1, 2)), beta=0.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ContractViolationError, match="does not match logit table"):
            kl_regularized_argmax(np.zeros((2, 3)), np.zeros((3, 2)), beta=1.0)

    def test_matches_simplex_gradient_ascent_oracle(self):
        rng = np.random.default_rng(8)
        logits = 0.8 * rng.standard_normal((3, 4))
        base = softmax_rows(logits)
        q = rng.uniform(0, 1, size=(3, 4))
        beta = 2.0
        closed = kl_regularized_argmax(logits, q, beta)
        for s in range(3):
            oracle = pga_oracle(q[s], base[s], beta)
            assert 0.5 * np.abs(closed[s] - oracle).sum() < 1e-6

    def test_beats_random_simplex_points(self):
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((2, 3))
        base = softmax_rows(logits)
        q = rng.uniform(0, 1, size=(2, 3))
        beta = 1.5
        closed = kl_regularized_argmax(logits, q, beta)
        for s in range(2):
            best = objective(closed[s], q[s], base[s], beta)
            for _ in range(1000):
                p = rng.dirichlet(np.ones(3))
                assert best >= objective(p, q[s], base[s], beta) - 1e-12


class TestThreePointInequality:
    def test_holds_with_vanishing_residual(self):
        # For any target distribution pi_dagger and the softmax improvement
        # pi_tilde of (pi, Q, beta):
        #   beta^{-1} <Q, pi_dagger - pi_tilde>
        #     <= KL(pi_dagger||pi) - KL(pi_dagger||pi_tilde) + <log(pi_tilde/pi) - Q/beta, pi_dagger - pi_tilde>
        # and the trailing inner product vanishes for exact tabular softmax.
        rng = np.random.default_rng(10)
        for _ in range(200):
            n_actions = int(rng.integers(2, 6))
            logits = rng.standard_normal((1, n_actions))
            pi = softmax_rows(logits)[0]
            q = rng.uniform(-1, 1, size=n_actions)
            beta = float(rng.uniform(0.5, 4.0))
            pi_tilde = kl_regularized_argmax(logits, q[None, :], beta)[0]
            pi_dag = rng.dirichlet(np.ones(n_actions))

            residual = float((np.log(pi_tilde / pi) - q / beta) @ (pi_dag - pi_tilde))
            assert abs(residual) <= 1e-10
            lhs = float(q @ (pi_dag - pi_tilde)) / beta
            rhs = kl(pi_dag, pi) - kl(pi_dag, pi_tilde) + residual
            assert lhs <= rhs + 1e-10
