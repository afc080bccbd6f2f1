"""Deep ReLU networks with frozen output signs, anchored Frobenius-ball projection,
exact backpropagation, and the local-linearization diagnostic.

The network is ``x_0 = x``, ``x_h = relu(W_h^T x_{h-1}) / sqrt(m)``, output
``b . x_H`` with fixed signs ``b in {-1, +1}^m``.  Only the weight matrices
train; every parameter set remembers the initialization it is anchored to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError

# Subgradient convention at the ReLU kink: derivative 0 at exactly 0.


@dataclass
class DnnParams:
    """Weights, frozen sign vector, and the anchor initialization."""

    weights: list[np.ndarray]  # W_1 (d, m), W_h (m, m) for h >= 2
    sign_vector: np.ndarray  # (m,) entries in {-1, +1}, never trained
    anchor: list[np.ndarray] = field(repr=False)

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def width(self) -> int:
        return self.weights[0].shape[1]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

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
    return DnnParams(weights=weights, sign_vector=signs, anchor=[w.copy() for w in weights])


def _layers(params: DnnParams, xs: np.ndarray) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """The layer recursion for one input (d,) or a batch (n, d): outputs, activations, pre-activations."""
    scale = 1.0 / np.sqrt(params.width)
    activations, pre_activations = [xs], []
    for w in params.weights:
        pre_activations.append(activations[-1] @ w)
        activations.append(scale * np.maximum(pre_activations[-1], 0.0))
    return activations[-1] @ params.sign_vector, activations, pre_activations


def forward(params: DnnParams, x: np.ndarray) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Network output plus cached layer activations and pre-activations."""
    x = np.asarray(x, dtype=float)
    if x.shape != (params.input_dim,):
        raise ContractViolationError(f"input must have shape ({params.input_dim},), got {x.shape}")
    value, activations, pre_activations = _layers(params, x)
    return float(value), activations, pre_activations


def forward_many(params: DnnParams, xs: np.ndarray) -> np.ndarray:
    """Vectorized outputs for a batch of inputs with shape (n, d)."""
    return _layers(params, np.asarray(xs, dtype=float))[0]


def gradient(params: DnnParams, x: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Output value and exact per-layer gradients d(output)/dW_h.

    Uses the sigma'(0) = 0 convention at ReLU kinks.
    """
    value, activations, pre_activations = forward(params, x)
    scale = 1.0 / np.sqrt(params.width)
    # delta_h = d(output) / d(pre-activation of layer h)
    delta = scale * (pre_activations[-1] > 0.0) * params.sign_vector
    grads: list[np.ndarray] = [None] * params.depth
    for h in range(params.depth - 1, -1, -1):
        grads[h] = np.outer(activations[h], delta)
        if h > 0:
            upstream = params.weights[h] @ delta
            delta = scale * (pre_activations[h - 1] > 0.0) * upstream
    return value, grads


# Distances within one part in 1e12 of the radius count as inside, which makes
# the projection exactly idempotent despite rounding in the shrink.
_BALL_SLACK = 1e-12


def project_ball(params: DnnParams, radius: float) -> DnnParams:
    """Copy of ``params`` projected by ``project_ball_inplace``."""
    if radius < 0:
        raise ContractViolationError(f"radius must be >= 0, got {radius}")
    out = params.clone()
    project_ball_inplace(out, radius)
    return out


def project_ball_inplace(params: DnnParams, radius: float) -> None:
    """Shrink each layer radially toward its anchor so every Frobenius distance is <= radius.

    Idempotent; layers already inside the ball are left untouched.
    """
    for h, (w, w0) in enumerate(zip(params.weights, params.anchor)):
        diff = w - w0
        dist = float(np.linalg.norm(diff))
        if dist > radius * (1.0 + _BALL_SLACK):
            params.weights[h] = w0 + diff * (radius / dist) if radius > 0.0 else w0.copy()


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
