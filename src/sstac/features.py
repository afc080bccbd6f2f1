"""Feature maps for the linear setting, with norm and conditioning diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError, check_finite, check_shape

_NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Bounded feature vectors phi[s, a] in R^d with ||phi|| <= 1.

    ``one_hot`` records whether ``phi.reshape(S * A, d)`` is exactly the
    identity, i.e. feature ``s * A + a`` is the indicator of pair (s, a).
    The Gram matrix E_rho[phi phi^T] is then exactly diag(rho), which ``gram``
    returns as that diagonal, ``weighted_sum`` is the flattened table and
    ``value_table`` the weights reshaped, plus 0.0 to match the matvec's +0.0.
    """

    phi: np.ndarray  # (S, A, d)
    one_hot: bool = field(init=False, repr=False)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        object.__setattr__(self, "phi", phi)
        if phi.ndim != 3:
            raise ContractViolationError(f"phi must have shape (S, A, d), got {phi.shape}")
        flat = phi.reshape(-1, phi.shape[2])
        # d nonzeros, all on the diagonal and all 1: the identity, without building one.
        one_hot = flat.shape[0] == flat.shape[1] and np.count_nonzero(flat) == len(flat)
        object.__setattr__(self, "one_hot", one_hot and bool(np.all(flat.diagonal() == 1.0)))
        if self.one_hot:  # the identity is finite and its rows have unit norm
            return
        check_finite("phi", phi)
        norms = np.linalg.norm(phi, axis=2)
        if np.any(norms > 1.0 + _NORM_TOL):
            raise ContractViolationError(f"feature norms must not exceed 1, max is {float(norms.max())}")

    def __reduce__(self):
        """Pickles and copies rebuild a one-hot map from its shape, not from its (S·A)² floats."""
        if self.one_hot:
            return tabular_features, (self.n_states, self.n_actions)
        return FeatureMap, (self.phi,)

    @property
    def dim(self) -> int:
        return self.phi.shape[2]

    @property
    def n_states(self) -> int:
        return self.phi.shape[0]

    @property
    def n_actions(self) -> int:
        return self.phi.shape[1]

    def value_table(self, weights: np.ndarray) -> np.ndarray:
        """Linear function table: result[s, a] = weights . phi[s, a]; for one-hot features, the weights reshaped."""
        weights = check_shape("weights", weights, (self.dim,))
        return weights.reshape(self.n_states, self.n_actions) + 0.0 if self.one_hot else self.phi @ weights

    def gram(self, rho: np.ndarray) -> np.ndarray:
        """E_rho[phi phi^T] for an (S, A) weight table; for one-hot features its diagonal, rho flattened (1-D)."""
        rho = check_shape("rho", rho, (self.n_states, self.n_actions))
        if self.one_hot:
            return rho.flatten()
        flat_phi = self.phi.reshape(-1, self.dim)
        return (flat_phi * rho.reshape(-1, 1)).T @ flat_phi

    def weighted_sum(self, table: np.ndarray) -> np.ndarray:
        """sum_{s, a} table[s, a] phi[s, a]; for one-hot features, the table flattened."""
        table = check_shape("table", table, (self.n_states, self.n_actions))
        return table.reshape(-1) if self.one_hot else np.einsum("sa,sad->d", table, self.phi)


def tabular_features(n_states: int, n_actions: int) -> FeatureMap:
    """One-hot feature per (s, a) pair; dimension is n_states * n_actions.

    ``phi`` holds the bytes of ``np.eye(d)`` as a read-only view of one line of 2d - 1 floats, whose
    windows read backwards are the identity's rows, so it takes O(d) memory, not d².
    """
    d = n_states * n_actions
    line = np.zeros(2 * d - 1)
    line[d - 1] = 1.0
    phi = np.lib.stride_tricks.sliding_window_view(line, d)[::-1].reshape(n_states, n_actions, d)
    return FeatureMap(phi=phi)


def random_features(n_states: int, n_actions: int, dim: int, seed: int) -> FeatureMap:
    """Seeded Gaussian features normalized to unit length."""
    if dim < 1:
        raise ContractViolationError(f"feature dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((n_states, n_actions, dim))
    phi /= np.linalg.norm(phi, axis=2, keepdims=True)
    return FeatureMap(phi=phi)


gram_matrix = FeatureMap.gram  # the name the benchmark traces; calls to features.gram stay untraced


def min_eigenvalue(gram: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric Gram matrix, or of diag(gram) for a 1-D ``gram``.

    The eigenvalues of a diagonal matrix are its entries, so the 1-D form is
    a plain minimum; LAPACK returns the same value bit for bit.
    """
    return float(gram.min() if gram.ndim == 1 else np.linalg.eigvalsh(gram)[0])


def gram_min_singular(features: FeatureMap, rho: np.ndarray) -> float:
    """Smallest singular value of E_rho[phi phi^T] (the conditioning diagnostic)."""
    return max(min_eigenvalue(gram_matrix(features, rho)), 0.0)
