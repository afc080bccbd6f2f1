"""Deep ReLU networks with frozen output signs, anchored Frobenius-ball projection,
exact backpropagation, and the local-linearization diagnostic.

The network is ``x_0 = x``, ``x_h = relu(W_h^T x_{h-1}) / sqrt(m)``, output
``b . x_H`` with fixed signs ``b in {-1, +1}^m``.  Only the weight matrices
train; every parameter set remembers the initialization it is anchored to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BALL_SLACK, ContractViolationError, check_finite, check_shape

# Subgradient convention at the ReLU kink: derivative 0 at exactly 0.

# The layer and backprop products run through ndarray.dot, the BLAS kernel of ``@`` at about half its dispatch
# cost and with its bytes for C-contiguous operands.  A sum of one term is the exception: ``@`` returns 0.0 +
# product (+0.0 for a -0.0 product) where ``.dot`` may return the product, so d = 1 or m = 1 keeps np.matmul.


@dataclass(eq=False)
class DnnParams:
    """Weights, frozen sign vector, and the anchor initialization."""

    weights: list[np.ndarray]  # W_1 (d, m), W_h (m, m) for h >= 2
    sign_vector: np.ndarray  # (m,) entries in {-1, +1}, never trained
    anchor: list[np.ndarray] = field(repr=False)

    def clone(self) -> "DnnParams":
        """Copy with independent weight arrays; anchor and signs are shared read-only."""
        return DnnParams(
            weights=[w.copy() for w in self.weights],
            sign_vector=self.sign_vector,
            anchor=self.anchor,
        )

    def anchor_distances(self) -> np.ndarray:
        """Per-layer Frobenius distances to the anchor."""
        return np.array([np.linalg.norm(w - w0) for w, w0 in zip(self.weights, self.anchor)])


def init_params(d: int, m: int, depth: int, seed: int | np.random.Generator) -> DnnParams:
    """Standard-Gaussian weights, Rademacher signs, anchor frozen at creation.

    ``seed`` is an int or a Generator, which is drawn from in place.
    """
    if d < 1 or m < 1 or depth < 1:
        raise ContractViolationError(f"d, m, and depth must all be >= 1, got {d}, {m} and {depth}")
    rng = np.random.default_rng(seed)
    shapes = [(d, m)] + [(m, m)] * (depth - 1)
    weights = [rng.standard_normal(shape) for shape in shapes]
    signs = rng.integers(0, 2, size=m) * 2.0 - 1.0
    anchor = [w.copy() for w in weights]
    for frozen in (*anchor, signs):  # clones share these, so a stray in-place write raises
        frozen.flags.writeable = False
    return DnnParams(weights=weights, sign_vector=signs, anchor=anchor)


def _layers(
    params: DnnParams, xs: np.ndarray, gates: list[np.ndarray] | None = None
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """The layer recursion for one input (d,) or a batch (n, d): outputs, activations, pre-activations."""
    scale = 1.0 / math.sqrt(params.weights[0].shape[1])  # correctly rounded, as np.sqrt is
    dot = np.matmul if 1 in params.weights[0].shape else np.ndarray.dot
    activations, pre_activations = [xs], []
    for w in params.weights:
        pre_activations.append(dot(activations[-1], w))
        a = np.maximum(pre_activations[-1], 0.0)
        a *= scale
        activations.append(a)
        if gates is not None:  # the float ReLU gate for backprop: scale where z > 0, +0.0 elsewhere (-0.0 too)
            gates.append(np.heaviside(pre_activations[-1], 0.0) * scale)
    return dot(activations[-1], params.sign_vector), activations, pre_activations


def forward(params: DnnParams, x: np.ndarray) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Network output plus cached layer activations and pre-activations."""
    value, activations, pre_activations = _layers(params, check_shape("input", x, (params.weights[0].shape[0],)))
    return float(value), activations, pre_activations


def forward_many(params: DnnParams, xs: np.ndarray) -> np.ndarray:
    """Vectorized outputs for a batch of finite inputs with shape (n, d)."""
    xs, d = np.asarray(xs, dtype=float), params.weights[0].shape[0]
    if xs.ndim != 2 or xs.shape[1] != d:
        raise ContractViolationError(f"inputs must have shape (n, {d}), got {xs.shape}")
    check_finite("inputs", xs)
    return _layers(params, xs)[0]


def gradient(params: DnnParams, x: np.ndarray, out: list[np.ndarray] | None = None) -> tuple[float, list[np.ndarray]]:
    """Output value and exact per-layer gradients d(output)/dW_h.

    Uses the sigma'(0) = 0 convention at ReLU kinks.  One layer pass, which
    also forms each layer's gate; each gradient is the outer product of a
    layer's input and its delta, written into ``out[h]`` (arrays of the
    weights' shapes, fresh ones when ``out`` is None) and returned as ``out``.
    A NaN pre-activation gives a NaN gate: NaN reaches its layer's delta and every earlier one, as it reaches the value.
    """
    gates: list[np.ndarray] = []
    value, activations, _ = _layers(params, check_shape("input", x, (params.weights[0].shape[0],)), gates)
    dot = np.matmul if 1 in params.weights[0].shape else np.ndarray.dot
    if out is None:
        out = [np.empty_like(w) for w in params.weights]
    # delta_h = d(output) / d(pre-activation of layer h): delta_H = gate_H * b, delta_{h-1} = (W_h delta_h) * gate_{h-1}
    delta = gates[-1] * params.sign_vector
    for h in range(len(params.weights) - 1, -1, -1):
        np.multiply(activations[h][:, None], delta, out=out[h])
        if h > 0:
            delta = dot(params.weights[h], delta)
            delta *= gates[h - 1]
    return float(value), out


def project_ball_inplace(params: DnnParams, radius: float) -> None:
    """Shrink each layer radially toward its anchor W0 so every Frobenius distance is <= radius.

    A layer within BALL_SLACK of the radius plus eps * ||W0||, the rounding of W0 + shrunk
    difference, counts as inside and is left untouched, so the projection is idempotent.
    A shrunk layer is written into its own array, so views of the weights stay the weights.
    """
    if not radius >= 0.0:
        raise ContractViolationError(f"radius must be >= 0, got {radius}")
    bound = radius * (1.0 + BALL_SLACK)
    for w, w0 in zip(params.weights, params.anchor):
        diff = w - w0
        flat = diff.ravel()
        dist = math.sqrt(flat.dot(flat))  # np.linalg.norm's own sum of squares, without its dispatch
        if dist > bound and dist > bound + np.finfo(float).eps * float(np.linalg.norm(w0)):
            np.add(w0, diff * (radius / dist), out=w)


def linearization_gap(params: DnnParams, x: np.ndarray) -> float:
    """|u_theta(x) - u_anchor(x) - <theta - anchor, grad u_anchor(x)>|."""
    at_anchor = DnnParams(weights=params.anchor, sign_vector=params.sign_vector, anchor=params.anchor)
    value0, grads0 = gradient(at_anchor, x)
    linear_term = sum(
        float(np.sum((w - w0) * g)) for w, w0, g in zip(params.weights, params.anchor, grads0)
    )
    return abs(forward(params, x)[0] - value0 - linear_term)


# ---------------------------------------------------------------------------
# State-action encoding
# ---------------------------------------------------------------------------


def sa_encoding_table(n_states: int, n_actions: int) -> np.ndarray:
    """Unit-norm input per pair: one-hot(s) concatenated with one-hot(a), scaled by 1/sqrt(2).

    Shape (S, A, S + A).
    """
    table = np.zeros((n_states, n_actions, n_states + n_actions))
    s, a = np.indices((n_states, n_actions))
    table[s, a, s] = table[s, a, n_states + a] = 1.0 / np.sqrt(2.0)
    return table
