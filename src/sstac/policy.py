"""Softmax policies over logit tables, KL divergence, and the KL-regularized improvement step."""

from __future__ import annotations

import logging

import numpy as np

from .errors import ContractViolationError, InfiniteDivergenceError, ParameterError, check_finite

log = logging.getLogger(__name__)

# exp() overflows around 709 for doubles; clamp scaled energies before softmax.
LOGIT_CLAMP = 700.0


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction; logits beyond +-700 are clamped."""
    z = np.asarray(logits, dtype=float)
    if not np.abs(z).max(initial=0.0) <= LOGIT_CLAMP:  # one test for both: NaN fails it too
        check_finite("logits", z)
        log.warning("clamping logits with |value| > %g (max %g)", LOGIT_CLAMP, np.abs(z).max())
        z = np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def kl(p: np.ndarray, q: np.ndarray):
    """KL(p || q) with the 0 log 0 = 0 convention.

    Accepts single rows (returns a float) or matrices of rows (returns a
    per-row array).  Raises when p puts mass where q has none.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ContractViolationError(f"shape mismatch: {p.shape} vs {q.shape}")
    single = p.ndim == 1
    p2, q2 = np.atleast_2d(p, q)
    support = p2 > 0
    if np.any(support & (q2 <= 0)):
        raise InfiniteDivergenceError("KL(p || q) is infinite: q vanishes on the support of p")
    terms = np.zeros_like(p2)
    terms[support] = p2[support] * np.log(p2[support] / q2[support])
    out = terms.sum(axis=1)
    return float(out[0]) if single else out


def kl_regularized_argmax(logits: np.ndarray, q_values: np.ndarray, beta: float) -> np.ndarray:
    """Exact maximizer of <Q(s,.), pi(.|s)> - beta * KL(pi || softmax(logits)) per state.

    The closed form is the softmax of ``beta^{-1} Q + logits`` row-wise.
    """
    if beta <= 0:
        raise ParameterError(f"beta must be positive, got {beta}")
    q = np.asarray(q_values, dtype=float)
    base = np.asarray(logits, dtype=float)
    if q.shape != base.shape:
        raise ContractViolationError(f"Q shape {q.shape} does not match logit table {base.shape}")
    return softmax_rows(q / beta + base)
