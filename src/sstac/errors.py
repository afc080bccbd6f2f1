"""Exception types shared across the package.

Each error carries a short machine-readable ``code`` so the CLI can emit
single-line, greppable failures.
"""


class SstacError(Exception):
    code = "internal"


class ContractViolationError(SstacError, ValueError):
    """An input violates a documented precondition or invariant."""

    code = "contract"


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
