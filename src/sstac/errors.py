"""Exception types shared across the package, and the array contract checks that raise them.

Each error carries a short machine-readable ``code`` so the CLI can emit
single-line, greppable failures.
"""

import numpy as np

# Entry and row-sum tolerance of every probability table: kernels, distributions and policies.
_PROB_TOL = 1e-12

# Both ball projections count a distance within one part in 1e12 of the radius as
# inside, which makes them exactly idempotent despite rounding in the shrink.
BALL_SLACK = 1e-12


class SstacError(Exception):
    code = "internal"


class ContractViolationError(SstacError, ValueError):
    """An input violates a documented precondition or invariant."""

    code = "contract"


def check_shape(name: str, array, shape: tuple) -> np.ndarray:
    """``array`` as a float array, or ContractViolationError when its shape is not ``shape``."""
    a = np.asarray(array, dtype=float)
    if a.shape != shape:
        raise ContractViolationError(f"{name} must have shape {shape}, got {a.shape}")
    return a


def check_finite(name: str, array: np.ndarray) -> None:
    """Reject a NaN or infinite entry, naming the first."""
    finite = np.isfinite(array)
    if not finite.all():
        index = tuple(map(int, np.argwhere(~finite)[0]))
        raise ContractViolationError(f"{name} entry {index} is {float(array[index])}, not finite")


def check_nonnegative(name: str, table: np.ndarray) -> None:
    """Reject a non-finite entry, or one below the probability tolerance -1e-12, naming the first."""
    check_finite(name, table)
    if not np.all(table >= -_PROB_TOL):
        index = tuple(map(int, np.argwhere(table < -_PROB_TOL)[0]))
        raise ContractViolationError(f"{name} entry {index} is {float(table[index])!r}, negative")


def check_probabilities(name: str, table: np.ndarray) -> None:
    """Reject a non-finite or negative entry, or a row (the last axis) that does not sum to 1, naming the first."""
    # Each test is False for NaN, which min and max propagate; -inf fails the first, before a sum could meet
    # inf - inf, and +inf the second.  An empty table passes both, as it passed np.all.
    if not table.min(initial=np.inf) >= -_PROB_TOL:
        check_nonnegative(name, table)
    sums = table.sum(axis=-1)
    if np.abs(sums - 1.0).max(initial=0.0) <= _PROB_TOL:
        return
    check_finite(name, table)
    # A 1-D table has one 0-d sum, in which np.argwhere finds no index.
    index = tuple(map(int, np.argwhere(np.abs(sums - 1.0) > _PROB_TOL)[0])) if sums.ndim else ()
    where = f" row {index}" if index else ""
    raise ContractViolationError(f"{name}{where} sums to {float(sums[index])!r}, expected 1")


class ConfigError(SstacError, ValueError):
    """Experiment configuration failed validation."""

    code = "config"


class ErgodicityError(SstacError, RuntimeError):
    """The induced Markov chain did not yield a stationary distribution."""

    code = "ergodicity"


class ConditioningError(SstacError, RuntimeError):
    """A Gram matrix is singular beyond the configured tolerance."""

    code = "conditioning"

    def __init__(self, msg, sigma_min=None):
        super().__init__(msg)
        self.sigma_min = sigma_min


class ParameterError(SstacError, ValueError):
    """A scalar algorithm parameter is out of range."""

    code = "parameter"


class InfiniteDivergenceError(SstacError, ValueError):
    """KL divergence is infinite: p puts mass where q has none."""

    code = "divergence"
