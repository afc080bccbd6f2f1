"""Seeded randomness: named independent streams, categorical and transition draws.

Every consumer of randomness pulls from a named stream of a single
:class:`RunRng`, so traces are bit-reproducible and consuming one stream
never perturbs another.  Categorical sampling goes through inverse-CDF on
raw uniforms, the most version-stable Generator primitive.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ContractViolationError, check_nonnegative, check_probabilities, check_shape
from .mdp import check_policy_matrix

# Recorded in run manifests; bump if the draw algorithm ever changes.
RNG_ID = "numpy-pcg64/seedseq-crc32-streams/inverse-cdf-v1"


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


def _conditional_draws(rng: np.random.Generator, cum: np.ndarray) -> np.ndarray:
    """One draw per row of a (n, K) matrix of cumulative distributions."""
    u = rng.random(cum.shape[0])
    # Counting cum <= u skips zero-mass outcomes, as sample_sa's searchsorted(side="right") does.
    idx = (cum <= u[:, None]).sum(axis=1)
    return np.minimum(idx, cum.shape[1] - 1)


def sample_sa(rho: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2) array of state-action pairs drawn i.i.d. from a joint table rho[s, a], via inverse CDF."""
    rho = np.asarray(rho, dtype=float)
    if rho.ndim != 2:
        raise ContractViolationError(f"rho must be an (S, A) table, got shape {rho.shape}")
    if n < 0:
        raise ContractViolationError(f"n must be >= 0, got {n}")
    check_nonnegative("rho", rho)
    flat = rho.reshape(-1)
    check_probabilities("rho", flat)
    idx = np.minimum(np.searchsorted(np.cumsum(flat), rng.random(n), side="right"), len(flat) - 1)
    s, a = np.divmod(idx, rho.shape[1])
    return np.stack([s, a], axis=1)


def sample_tuples(mdp, rho: np.ndarray, policy_next: np.ndarray, rng: np.random.Generator, n: int):
    """Transition tuples (s, a, r, s', a') with (s,a) ~ rho, s' ~ P, a' ~ policy_next.

    Returns five aligned arrays; rewards are read from the table.
    """
    rho = check_shape("rho", rho, (mdp.n_states, mdp.n_actions))
    pi_next = check_policy_matrix(mdp, policy_next)
    pairs = sample_sa(rho, rng, n)
    s, a = pairs[:, 0], pairs[:, 1]
    # Gathered rows of a row-wise cumsum carry the bits of a cumsum over the gathered rows.
    s_next = _conditional_draws(rng, mdp.cumulative_transition[s, a])
    a_next = _conditional_draws(rng, np.cumsum(pi_next, axis=1)[s_next])
    r = mdp.reward[s, a]
    return s, a, r, s_next, a_next

