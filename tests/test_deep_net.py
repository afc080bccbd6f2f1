import numpy as np
import pytest

from sstac import ContractViolationError
from sstac.deep_net import (
    DnnParams,
    forward,
    forward_many,
    gradient,
    init_params,
    linearization_gap,
    project_ball,
    sa_encoding_table,
)

FD_MATRIX = [(4, 8, 1), (6, 16, 3), (8, 32, 2)]


def unit_input(rng, d):
    x = rng.standard_normal(d)
    return x / np.linalg.norm(x)


def sample_away_from_kinks(params, rng, margin=1e-3, tries=50):
    """Unit input whose every pre-activation clears the ReLU kink by `margin`.

    Finite differences are unreliable near kinks; skipped inputs are counted
    so the exclusion is visible.
    """
    skipped = 0
    for _ in range(tries):
        x = unit_input(rng, params.input_dim)
        _, _, pre = forward(params, x)
        if min(float(np.abs(z).min()) for z in pre) > margin:
            return x, skipped
        skipped += 1
    raise AssertionError("could not find an input away from ReLU kinks")


def finite_difference_grads(params, x, step=1e-5):
    grads = []
    for h in range(params.depth):
        w = params.weights[h]
        g = np.zeros_like(w)
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                orig = w[i, j]
                w[i, j] = orig + step
                up = forward(params, x)[0]
                w[i, j] = orig - step
                down = forward(params, x)[0]
                w[i, j] = orig
                g[i, j] = (up - down) / (2 * step)
        grads.append(g)
    return grads


class TestInit:
    def test_seeded_bit_identical(self):
        a = init_params(4, 8, 2, seed=3)
        b = init_params(4, 8, 2, seed=3)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(a.sign_vector, b.sign_vector)

    def test_anchor_equals_weights_at_init(self):
        p = init_params(5, 16, 3, seed=1)
        for w, w0 in zip(p.weights, p.anchor):
            np.testing.assert_array_equal(w, w0)
            assert w is not w0

    def test_entry_statistics(self):
        p = init_params(8, 256, 2, seed=7)
        entries = np.concatenate([w.reshape(-1) for w in p.weights])
        assert abs(entries.mean()) < 4.0 / np.sqrt(entries.size)
        assert set(np.unique(p.sign_vector)) == {-1.0, 1.0}

    def test_rejects_bad_shapes(self):
        with pytest.raises(ContractViolationError):
            init_params(0, 4, 1, seed=0)


class TestForward:
    def test_zero_weights_zero_output(self):
        p = init_params(4, 8, 2, seed=0)
        for w in p.weights:
            w[:] = 0.0
        assert forward(p, unit_input(np.random.default_rng(0), 4))[0] == 0.0

    def test_single_neuron_closed_form(self):
        for w_val in (-0.7, 0.0, 1.3):
            p = DnnParams(
                weights=[np.array([[w_val]])],
                sign_vector=np.array([1.0]),
                anchor=[np.array([[w_val]])],
            )
            assert forward(p, np.array([1.0]))[0] == max(0.0, w_val)

    def test_positive_homogeneity_degree_h(self):
        rng = np.random.default_rng(1)
        p = init_params(6, 16, 2, seed=2)
        x = unit_input(rng, 6)
        base = forward(p, x)[0]
        doubled = p.clone()
        for w in doubled.weights:
            w *= 2.0
        assert abs(forward(doubled, x)[0] - 4.0 * base) < 1e-10 * max(1.0, abs(base))

    def test_homogeneity_relative(self):
        rng = np.random.default_rng(2)
        for d, m, H in FD_MATRIX:
            p = init_params(d, m, H, seed=5)
            x = unit_input(rng, d)
            base = forward(p, x)[0]
            scaled = p.clone()
            for w in scaled.weights:
                w *= 1.5
            expected = 1.5**H * base
            assert abs(forward(scaled, x)[0] - expected) <= 1e-10 * max(1.0, abs(expected))

    # (4, 32, 4) is the neural-sweep benchmark's shape: chain2's 4 pairs at width 32.
    # Not bit-equal: a batch row goes through BLAS gemm, one input through gemv/dot,
    # and OpenBLAS 0.3.31 sums those in different orders (measured up to 5.6e-16 apart).
    @pytest.mark.parametrize("H", [1, 2, 3])
    @pytest.mark.parametrize("d,m,n", [(5, 8, 7), (4, 32, 4), (29, 64, 16)])
    def test_forward_many_matches_loop(self, d, m, n, H):
        rng = np.random.default_rng(3)
        p = init_params(d, m, H, seed=4)
        xs = np.array([unit_input(rng, d) for _ in range(n)])
        np.testing.assert_allclose(forward_many(p, xs), [forward(p, x)[0] for x in xs], rtol=0, atol=1e-14)


class TestGradient:
    def test_zero_weights_zero_gradient(self):
        p = init_params(4, 8, 2, seed=0)
        for w in p.weights:
            w[:] = 0.0
        _, grads = gradient(p, unit_input(np.random.default_rng(0), 4))
        for g in grads:
            np.testing.assert_array_equal(g, 0.0)

    def test_single_neuron_gradient_is_input(self):
        p = DnnParams(
            weights=[np.array([[0.8]])],
            sign_vector=np.array([1.0]),
            anchor=[np.array([[0.8]])],
        )
        _, grads = gradient(p, np.array([1.0]))
        np.testing.assert_allclose(grads[0], [[1.0]])

    @pytest.mark.parametrize("d,m,H", FD_MATRIX)
    def test_matches_central_finite_differences(self, d, m, H):
        rng = np.random.default_rng(100 + d)
        p = init_params(d, m, H, seed=d * 7 + m)
        x, _ = sample_away_from_kinks(p, rng)
        _, grads = gradient(p, x)
        fd = finite_difference_grads(p, x)
        for g, g_fd in zip(grads, fd):
            denom = np.maximum(np.maximum(np.abs(g), np.abs(g_fd)), 1e-8)
            rel = np.abs(g - g_fd) / denom
            assert rel.max() < 1e-4


class TestProjectBall:
    def test_inside_ball_untouched(self):
        p = init_params(4, 8, 2, seed=1)
        p.weights[0] += 0.01
        out = project_ball(p, radius=1.0)
        for w_out, w_in in zip(out.weights, p.weights):
            np.testing.assert_array_equal(w_out, w_in)

    def test_zero_radius_resets_to_anchor(self):
        p = init_params(4, 8, 2, seed=1)
        for w in p.weights:
            w += 0.5
        out = project_ball(p, radius=0.0)
        for w, w0 in zip(out.weights, p.anchor):
            np.testing.assert_allclose(w, w0, atol=1e-15)

    def test_per_layer_independence(self):
        p = init_params(4, 8, 2, seed=2)
        r = 0.3
        direction = np.ones_like(p.weights[0])
        direction /= np.linalg.norm(direction)
        p.weights[0] = p.anchor[0] + 2 * r * direction  # layer 0 at distance 2R
        before_layer1 = p.weights[1].copy()
        out = project_ball(p, radius=r)
        assert abs(np.linalg.norm(out.weights[0] - p.anchor[0]) - r) < 1e-12
        np.testing.assert_array_equal(out.weights[1], before_layer1)

    def test_idempotent(self):
        p = init_params(4, 8, 3, seed=3)
        for w in p.weights:
            w += np.random.default_rng(4).standard_normal(w.shape)
        once = project_ball(p, radius=0.2)
        twice = project_ball(once, radius=0.2)
        for a, b in zip(once.weights, twice.weights):
            np.testing.assert_array_equal(a, b)


class TestLinearizationGap:
    def test_zero_at_anchor(self):
        p = init_params(5, 16, 2, seed=5)
        x = unit_input(np.random.default_rng(5), 5)
        assert linearization_gap(p, x) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        p = init_params(5, 16, 2, seed=6)
        for w in p.weights:
            w += 0.1 * rng.standard_normal(w.shape)
        assert linearization_gap(p, unit_input(rng, 5)) >= 0.0

    def test_superlinear_growth_in_perturbation(self):
        # gap(10 eps) / gap(eps) >= 5 averaged over seeds, m=64
        ratios = []
        for seed in range(8):
            rng = np.random.default_rng(200 + seed)
            p0 = init_params(6, 64, 2, seed=seed)
            direction = [rng.standard_normal(w.shape) for w in p0.weights]
            direction = [v / np.linalg.norm(v) for v in direction]
            x = unit_input(rng, 6)
            gaps = {}
            for eps in (1e-3, 1e-2, 1e-1):
                p = p0.clone()
                for w, v in zip(p.weights, direction):
                    w += eps * v
                gaps[eps] = linearization_gap(p, x)
            if gaps[1e-3] > 0:
                ratios.append(gaps[1e-2] / gaps[1e-3])
            if gaps[1e-2] > 0:
                ratios.append(gaps[1e-1] / gaps[1e-2])
        assert np.mean(ratios) >= 5.0


class TestEncoding:
    def test_unit_norm(self):
        table = sa_encoding_table(3, 4)
        np.testing.assert_allclose(np.linalg.norm(table, axis=2), 1.0, atol=1e-12)

    def test_layout(self):
        x = sa_encoding_table(2, 2)[1, 0]
        expected = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(x, expected)


def test_initial_output_bound_statistic(capsys):
    # Reported, not asserted: fraction of seeds with |output| > 2 at m=256.
    rng = np.random.default_rng(11)
    exceed = 0
    n_seeds = 100
    for seed in range(n_seeds):
        p = init_params(8, 256, 2, seed=seed)
        x = unit_input(rng, 8)
        value, activations, _ = forward(p, x)
        if abs(value) > 2.0:
            exceed += 1
    print(f"initial |output| > 2 rate at m=256: {exceed / n_seeds:.2%}")
    # layer-norm concentration is likewise logged for visibility only
    p = init_params(8, 256, 3, seed=0)
    _, activations, _ = forward(p, unit_input(rng, 8))
    norms = [float(np.linalg.norm(h)) for h in activations[1:]]
    print("hidden layer norms:", [round(n, 3) for n in norms])
