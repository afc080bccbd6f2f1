"""Seeded randomness: named independent streams, categorical and transition draws.

Every consumer of randomness pulls from a named stream of a single
:class:`RunRng`, so traces are bit-reproducible and consuming one stream
never perturbs another.  Categorical sampling goes through inverse-CDF on
raw uniforms, the most version-stable Generator primitive.  A draw is the number of
CDF entries <= u, clipped; RNG_ID names that draw, whichever kernel counts it.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ContractViolationError, check_nonnegative, check_probabilities, check_shape
from .mdp import check_policy_matrix

# Recorded in run manifests; bump if the draw algorithm ever changes.
RNG_ID = "numpy-pcg64/seedseq-crc32-streams/inverse-cdf-v1"
_BLOCK = 8  # entries per block of the (s, a) CDF in sample_sa's count
_CHUNK = 2**18  # entries one chunk of draws compares in _count_below: 2 MiB of float64


class RunRng:
    """One seed, many independent named streams (gram_batch, actor_loop, ...)."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, purpose: str) -> np.random.Generator:
        gen = self._streams.get(purpose)
        if gen is None:
            key = zlib.crc32(purpose.encode("utf-8"))
            gen = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(key,)))
            self._streams[purpose] = gen
        return gen


def _count_below(table: np.ndarray, u: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """Per draw j, the number of entries <= u[j] in column cols[j] of a 2-D table, or in a 1-D table.

    The draws are walked in chunks that compare at most _CHUNK entries, so the comparison never holds
    more than that whatever n is; each count is summed in the smallest unsigned type that holds it.
    """
    counts = np.empty(len(u), dtype=np.min_scalar_type(len(table)))
    step = max(_CHUNK // len(table), 1)
    for lo in range(0, len(u), step):
        part = table[:, None] if cols is None else table.take(cols[lo : lo + step], axis=1)
        np.sum(part <= u[lo : lo + step], axis=0, dtype=counts.dtype, out=counts[lo : lo + step])
    return counts.astype(np.intp)


def sample_sa(rho: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2) array of state-action pairs drawn i.i.d. from a joint table rho[s, a], via inverse CDF.

    The flat index counts the entries of c = cumsum(rho.ravel()) that are <= u, clipped: searchsorted(c,
    u, side="right") for a nondecreasing c, and the count still where entries in [-1e-12, 0) make c dip.
    """
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 2:
        raise ContractViolationError(f"rho must be an (S, A) table, got shape {rho.shape}")
    if n < 0:
        raise ContractViolationError(f"n must be >= 0, got {n}")
    check_nonnegative("rho", rho)
    flat = rho.reshape(-1)
    check_probabilities("rho", flat)
    blocks = np.full((_BLOCK, len(flat) // _BLOCK + 1), np.inf)  # column j is block j; the last ends with an inf
    blocks.T.flat[: len(flat)] = np.sort(np.cumsum(flat))  # a nondecreasing CDF sorts to itself
    u = rng.random(n)
    below = _count_below(blocks[-1], u)  # whole blocks <= u, then the entries of the next one
    idx = _BLOCK * below + _count_below(blocks, u, below)
    s, a = np.divmod(np.minimum(idx, len(flat) - 1), rho.shape[1])
    return np.stack([s, a], axis=1)


def sample_tuples(mdp, rho: np.ndarray, policy_next: np.ndarray, rng: np.random.Generator, n: int):
    """Transition tuples (s, a, r, s', a') with (s,a) ~ rho, s' ~ P, a' ~ policy_next.

    Returns five aligned arrays; rewards are read from the table.
    """
    rho = check_shape("rho", rho, (mdp.n_states, mdp.n_actions))
    pi_next = check_policy_matrix(mdp, policy_next)
    pairs = sample_sa(rho, rng, n)
    s, a = pairs[:, 0], pairs[:, 1]
    values, counts = mdp.step_table
    rows = s * mdp.n_actions + a
    below = _count_below(values, rng.random(n), rows)  # distinct CDF values <= u
    s_next = counts.take(rows * counts.shape[1] + below).astype(np.intp)
    cum_pi = np.cumsum(pi_next.T, axis=0)  # column s' is the CDF of pi_next[s'], with a row-wise cumsum's bits
    a_next = np.minimum(_count_below(cum_pi, rng.random(n), s_next), mdp.n_actions - 1)
    r = mdp.reward[s, a]
    return s, a, r, s_next, a_next

