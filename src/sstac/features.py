"""Feature maps for the linear setting, with norm and conditioning diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError

_NORM_TOL = 1e-12


@dataclass(frozen=True)
class FeatureMap:
    """Bounded feature vectors phi[s, a] in R^d with ||phi|| <= 1.

    ``one_hot`` records whether ``phi.reshape(S * A, d)`` is exactly the
    identity with d >= 2, i.e. feature ``s * A + a`` is the indicator of pair
    (s, a).  The Gram matrix E_rho[phi phi^T] is then exactly diag(rho), and
    ``gram_matrix`` returns it as that diagonal.
    """

    phi: np.ndarray  # (S, A, d)
    one_hot: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        object.__setattr__(self, "phi", phi)
        if phi.ndim != 3:
            raise ContractViolationError(f"phi must have shape (S, A, d), got {phi.shape}")
        bad = np.argwhere(~np.isfinite(phi).all(axis=2))
        if len(bad):
            s, a = (int(i) for i in bad[0])
            raise ContractViolationError(f"features must be finite; phi[{s}, {a}] is {phi[s, a].tolist()!r}")
        norms = np.linalg.norm(phi, axis=2)
        if np.any(norms > 1.0 + _NORM_TOL):
            raise ContractViolationError(f"feature norms must not exceed 1, max is {norms.max()!r}")
        flat = phi.reshape(-1, phi.shape[2])
        # d nonzeros, all on the diagonal and all 1: the identity, without building one.
        # A single pair stays dense: numpy sums its length-N sample column pairwise,
        # not in sample order, so bin sums would differ from it in the last bits.
        one_hot = (
            flat.shape[0] == flat.shape[1] > 1
            and np.count_nonzero(flat) == len(flat)
            and bool(np.all(flat.diagonal() == 1.0))
        )
        object.__setattr__(self, "one_hot", one_hot)

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
        """Linear function table: result[s, a] = weights . phi[s, a]."""
        w = np.asarray(weights, dtype=float)
        if w.shape != (self.dim,):
            raise ContractViolationError(f"weights must have shape ({self.dim},), got {w.shape}")
        return self.phi @ w


def tabular_features(n_states: int, n_actions: int) -> FeatureMap:
    """One-hot feature per (s, a) pair; dimension is n_states * n_actions."""
    d = n_states * n_actions
    phi = np.eye(d).reshape(n_states, n_actions, d)
    return FeatureMap(phi=phi)


def random_features(n_states: int, n_actions: int, dim: int, seed: int) -> FeatureMap:
    """Seeded Gaussian features normalized to unit length."""
    if dim < 1:
        raise ContractViolationError(f"feature dimension must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((n_states, n_actions, dim))
    phi /= np.linalg.norm(phi, axis=2, keepdims=True)
    return FeatureMap(phi=phi)


def gram_matrix(features: FeatureMap, rho: np.ndarray) -> np.ndarray:
    """Second-moment matrix E_rho[phi phi^T]; for one-hot features its diagonal, rho flattened (1-D)."""
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (features.n_states, features.n_actions):
        raise ContractViolationError(
            f"rho must have shape {(features.n_states, features.n_actions)}, got {rho.shape}"
        )
    if features.one_hot:
        return rho.flatten()
    flat_phi = features.phi.reshape(-1, features.dim)
    return (flat_phi * rho.reshape(-1, 1)).T @ flat_phi


def min_eigenvalue(gram: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric Gram matrix, or of diag(gram) for a 1-D ``gram``.

    The eigenvalues of a diagonal matrix are its entries, so the 1-D form is
    a plain minimum; LAPACK returns the same value bit for bit.
    """
    return float(gram.min() if gram.ndim == 1 else np.linalg.eigvalsh(gram)[0])


def gram_min_singular(features: FeatureMap, rho: np.ndarray) -> float:
    """Smallest singular value of E_rho[phi phi^T] (the conditioning diagnostic)."""
    return max(min_eigenvalue(gram_matrix(features, rho)), 0.0)
