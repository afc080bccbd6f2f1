import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sstac import ContractViolationError
from sstac.deep_net import (
    DnnParams,
    forward,
    forward_many,
    gradient,
    init_params,
    linearization_gap,
    project_ball_inplace,
    sa_encoding_table,
)
from sstac.errors import BALL_SLACK

from conftest import (
    D1_CASE,
    M1_CASE,
    kinky_network,
    one_term_case,
    reference_gradient,
    reference_layers,
    reference_project_ball_inplace,
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
        x = unit_input(rng, params.weights[0].shape[0])
        _, _, pre = forward(params, x)
        if min(float(np.abs(z).min()) for z in pre) > margin:
            return x, skipped
        skipped += 1
    raise AssertionError("could not find an input away from ReLU kinks")


def finite_difference_grads(params, x, step=1e-5):
    grads = []
    for h in range(len(params.weights)):
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

    def test_anchor_and_signs_are_read_only_and_shared_by_clones(self):
        # Actor and critic are clones of one initialization: an in-place write would move both centres.
        p = init_params(4, 8, 2, seed=3)
        for frozen in (*p.anchor, p.sign_vector):
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 1.0
        q = p.clone()
        assert q.sign_vector is p.sign_vector and all(a is b for a, b in zip(q.anchor, p.anchor))
        assert all(w.flags.writeable for w in q.weights)


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

    def test_nan_input_gives_a_nan_value_and_nan_gradients(self):
        # A NaN pre-activation opens a NaN gate, so every delta, and with it every gradient entry, is NaN.
        p = init_params(4, 8, 2, seed=0)
        x = np.array([np.nan, 0.5, -0.5, 0.5])
        value, grads = gradient(p, x)
        assert math.isnan(value) and math.isnan(forward(p, x)[0])
        assert all(np.isnan(g).all() for g in grads)

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
        out = p.clone()
        project_ball_inplace(out, radius=1.0)
        for w_out, w_in in zip(out.weights, p.weights):
            np.testing.assert_array_equal(w_out, w_in)

    def test_zero_radius_resets_to_anchor(self):
        p = init_params(4, 8, 2, seed=1)
        for w in p.weights:
            w += 0.5
        out = p.clone()
        project_ball_inplace(out, radius=0.0)
        for w, w0 in zip(out.weights, p.anchor):
            np.testing.assert_allclose(w, w0, atol=1e-15)

    def test_per_layer_independence(self):
        p = init_params(4, 8, 2, seed=2)
        r = 0.3
        direction = np.ones_like(p.weights[0])
        direction /= np.linalg.norm(direction)
        p.weights[0] = p.anchor[0] + 2 * r * direction  # layer 0 at distance 2R
        before_layer1 = p.weights[1].copy()
        out = p.clone()
        project_ball_inplace(out, radius=r)
        assert abs(np.linalg.norm(out.weights[0] - p.anchor[0]) - r) < 1e-12
        np.testing.assert_array_equal(out.weights[1], before_layer1)

    def test_idempotent(self):
        p = init_params(4, 8, 3, seed=3)
        for w in p.weights:
            w += np.random.default_rng(4).standard_normal(w.shape)
        once = p.clone()
        project_ball_inplace(once, radius=0.2)
        twice = once.clone()
        project_ball_inplace(twice, radius=0.2)
        for a, b in zip(once.weights, twice.weights):
            np.testing.assert_array_equal(a, b)


PROPERTY = settings(max_examples=150, deadline=None, database=None)

# Offsets in [-1, 1], none so small that its square underflows in np.linalg.norm.
UNIT = st.floats(-1.0, 1.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-100)


@st.composite
def anchored_params(draw):
    """Anchors up to 1e3 in magnitude, weights at a drawn scale around them, and a radius >= 0.

    The radius is 0, a drawn multiple of the scale, or within a few ulps of layer
    0's distance or of that distance over 1 + BALL_SLACK, where the inside test flips.
    Radii stay far above 1e-154, below which np.linalg.norm's squares underflow.
    """
    d, m, depth = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    shapes = [(d, m)] + [(m, m)] * (depth - 1)
    anchor = [draw(arrays(float, shape, elements=st.floats(-1e3, 1e3))) for shape in shapes]
    scale = 10.0 ** draw(st.integers(-6, 3))
    weights = [w0 + scale * draw(arrays(float, w0.shape, elements=UNIT)) for w0 in anchor]
    dist0 = float(np.linalg.norm(weights[0] - anchor[0]))
    near = [dist0 * (1.0 + k * 2.0**-52) / (1.0 + slack) for k in range(-2, 3) for slack in (0.0, BALL_SLACK)]
    radius = draw(st.one_of(st.just(0.0), st.floats(1e-6, 3.0).map(lambda f: scale * f), st.sampled_from(near)))
    return DnnParams(weights=weights, sign_vector=np.ones(m), anchor=anchor), radius


def inside(w, w0, radius):
    """The projection's guarantee: within BALL_SLACK of the radius, plus the round-off
    eps * ||W0|| of storing a shrunk layer as W0 + difference."""
    return np.linalg.norm(w - w0) <= radius * (1.0 + BALL_SLACK) + np.finfo(float).eps * np.linalg.norm(w0)


class TestProjectBallProperties:
    """What the SGD loop relies on without measuring it: each projected iterate is inside the ball."""

    @PROPERTY
    @given(anchored_params())
    def test_every_layer_ends_inside(self, case):
        params, radius = case
        project_ball_inplace(params, radius)
        assert all(inside(w, w0, radius) for w, w0 in zip(params.weights, params.anchor))

    @PROPERTY
    @given(anchored_params())
    def test_layers_inside_keep_their_bits(self, case):
        params, radius = case
        before = [w.copy() for w in params.weights]
        project_ball_inplace(params, radius)
        for w, w_before, w0 in zip(params.weights, before, params.anchor):
            if inside(w_before, w0, radius):
                np.testing.assert_array_equal(w, w_before)

    @PROPERTY
    @given(anchored_params())
    def test_second_projection_changes_no_bit(self, case):
        params, radius = case
        project_ball_inplace(params, radius)
        once = [w.copy() for w in params.weights]
        project_ball_inplace(params, radius)
        for w, w_once in zip(params.weights, once):
            np.testing.assert_array_equal(w, w_once)


def as_bytes(arrays_):
    return [np.asarray(a).tobytes() for a in arrays_]


# A d = 2, m = 4, H = 3 network whose pre-activations hit +0.0, +inf and -inf at every layer, and none is NaN.
# The input (1, 1) gives (+0, inf, -inf, 2) at layer 1 and (inf, -inf, inf, -inf) at layers 2 and 3; the input
# (-1, 1) gives (+0, -inf, -inf, +0) and then +0.0 throughout.  No product of these operands gives -0.0: the BLAS
# sums start from +0.0 and ``@`` adds +0.0 to a one-term sum, so a -0.0 gate is pinned by the identity test below.
_LATER = [[-1.0, 1.0, -1.0, 1.0], *[[1.0, -1.0, 1.0, -1.0]] * 3]
GATE_EDGE_CASE = one_term_case(
    [[[0.0, math.inf, 0.0, 1.0], [0.0, 0.0, -math.inf, 1.0]], _LATER, [[1.0, -1.0, 1.0, -1.0]] * 4],
    [1.0, -1.0, 1.0, -1.0],
    [[1.0, 1.0], [-1.0, 1.0]],
)


def test_float_gate_has_the_bool_gate_bits():
    # The identity the lean backprop rests on: heaviside(z, 0) * scale is scale * (z > 0), bit for bit.
    z = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.0, -1.0, math.inf, -math.inf])
    scale = 1.0 / math.sqrt(32)
    assert (np.heaviside(z, 0.0) * scale).tobytes() == (scale * (z > 0.0)).tobytes()


class TestLeanStepMatchesReference:
    """The lean gradient, layer pass and projection give the pre-change forms' bits, signed zeros included."""

    @PROPERTY
    @given(kinky_network())
    @example(M1_CASE)
    @example(D1_CASE)
    @example(GATE_EDGE_CASE)
    def test_gradient_and_outputs(self, case):
        params, xs = case
        # The infinite weights of GATE_EDGE_CASE give inf * 0 products; the drawn networks are finite.
        finite = all(np.isfinite(w).all() for w in params.weights)
        with contextlib.nullcontext() if finite else np.errstate(invalid="ignore"):
            for x in xs:
                value, grads = gradient(params, x)
                ref_value, ref_grads = reference_gradient(params, x)
                assert as_bytes([value, *grads]) == as_bytes([ref_value, *ref_grads])
                value, activations, pre_activations = forward(params, x)
                _, ref_activations, ref_pre_activations = reference_layers(params, x)
                assert as_bytes([value, *activations, *pre_activations]) == as_bytes(
                    [ref_value, *ref_activations, *ref_pre_activations]
                )
                # Written into NaN-filled buffers, every entry is overwritten and the buffers themselves come back.
                buffers = [np.full_like(w, np.nan) for w in params.weights]
                layers = list(buffers)
                value, written = gradient(params, x, buffers)
                assert written is buffers and all(a is b for a, b in zip(written, layers))
                assert as_bytes([value, *written]) == as_bytes([ref_value, *ref_grads])
            assert forward_many(params, xs).tobytes() == reference_layers(params, xs)[0].tobytes()

    @PROPERTY
    @given(kinky_network(), st.sampled_from(["zero", "tight", "loose"]), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
    def test_projection(self, case, kind, fraction, seed):
        params, _ = case
        rng = np.random.default_rng(seed)
        for w in params.weights:
            # Steps with exact zeros, and at least one nonzero entry, so a tight radius binds every layer.
            step = rng.standard_normal(w.shape) * (rng.random(w.shape) < 0.5)
            step.flat[0] = 1.0
            w += step
        dists = [np.linalg.norm(w - w0) for w, w0 in zip(params.weights, params.anchor)]
        radius = {"zero": 0.0, "tight": fraction * min(dists), "loose": 2.0 * max(dists)}[kind]
        ref, layers = params.clone(), list(params.weights)
        project_ball_inplace(params, radius)
        reference_project_ball_inplace(ref, radius)
        assert as_bytes(params.weights) == as_bytes(ref.weights)
        # Each layer is written in place, so views of the weights (the SGD loop's flat vector) stay the weights.
        assert all(w is layer for w, layer in zip(params.weights, layers))


LAYOUTS = ("C", "Fortran", "strided", "reversed")


def laid_out(a, layout):
    """A copy of ``a`` in a C or Fortran array, in every other entry of a larger one, or with negative strides."""
    if layout == "C":
        return np.array(a, order="C")
    if layout == "Fortran":
        return np.array(a, order="F")
    if layout == "strided":
        out = np.full([2 * n for n in a.shape], np.nan)[tuple(slice(None, None, 2) for _ in a.shape)]
    else:
        out = np.empty_like(a)[tuple(slice(None, None, -1) for _ in a.shape)]
    out[...] = a
    return out


def magnitudes(params, xs):
    """The network on |x|, |W_h| and |b| with every ReLU open: per layer, the sums of |terms| of its products.

    Returns the output, the activations and, for one input, the backprop deltas.
    """
    scale = 1.0 / np.sqrt(params.weights[0].shape[1])
    activations = [np.abs(xs)]
    for w in params.weights:
        activations.append(scale * (activations[-1] @ np.abs(w)))
    deltas = [scale * np.abs(params.sign_vector)]
    for w in params.weights[:0:-1]:
        deltas.insert(0, scale * (np.abs(w) @ deltas[0]))
    return activations[-1] @ np.abs(params.sign_vector), activations, deltas


@st.composite
def laid_out_network(draw):
    """A ``kinky_network`` case whose layers, sign vector and inputs are each in a drawn layout."""
    params, xs = draw(kinky_network())
    layers = [laid_out(w, draw(st.sampled_from(LAYOUTS))) for w in params.weights]
    signs = laid_out(params.sign_vector, draw(st.sampled_from(LAYOUTS)))
    return DnnParams(weights=layers, sign_vector=signs, anchor=params.anchor), laid_out(xs, draw(st.sampled_from(LAYOUTS)))


class TestOperandLayout:
    """The layer and backprop products against the ``@`` references on a caller's own array layouts.

    C-contiguous operands give the references' bytes.  Other layouts may take another BLAS or a non-BLAS loop,
    each product then within n * eps * sum_i |a_i w_ij| of ``@``'s, n the summed length.  Through the layers
    that is at most 2 (H + 1)(n + 1) eps times the same quantity of the network on |x|, |W| and |b|.
    """

    @PROPERTY
    @given(laid_out_network())
    def test_products_match_the_references(self, case):
        params, xs = case
        operands = [*params.weights, params.sign_vector, xs]
        exact = all(a.flags.c_contiguous for a in operands)
        d, m = params.weights[0].shape
        tol = 2 * (len(params.weights) + 1) * (max(d, m) + 1) * np.finfo(float).eps

        def check(got, ref, bound):
            assert as_bytes(got) == as_bytes(ref) if exact else np.all(np.abs(np.subtract(got, ref)) <= tol * bound)

        check([forward_many(params, xs)], [reference_layers(params, xs)[0]], magnitudes(params, xs)[0])
        for x in xs:
            value, activations, pre_activations = forward(params, x)
            ref_value, ref_activations, ref_pre_activations = reference_layers(params, x)
            out, abs_activations, abs_deltas = magnitudes(params, x)
            check([value], [ref_value], out)
            for h, (pre, ref_pre) in enumerate(zip(pre_activations, ref_pre_activations)):
                check([pre], [ref_pre], abs_activations[h + 1] * np.sqrt(m))
            value, grads = gradient(params, x)
            ref_value, ref_grads = reference_gradient(params, x)
            check([value], [ref_value], out)
            # A gradient is bounded only where both sides open the same ReLUs; the pre-activations above
            # are bounded either way.
            if all(np.array_equal(a > 0, b > 0) for a, b in zip(pre_activations, ref_pre_activations)):
                for h, (g, ref_g) in enumerate(zip(grads, ref_grads)):
                    check([g], [ref_g], np.outer(abs_activations[h], abs_deltas[h]))


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
