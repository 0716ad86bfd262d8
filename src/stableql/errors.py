"""Exception hierarchy shared across the package.

Each class carries the CLI's exit code for it: UsageError 1, partial Monte
Carlo failure 3, and every other error (numeric, optimization, domain,
model violation, simulation overflow) 2.
"""


class StableQLError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class UsageError(StableQLError):
    """Bad invocation: unknown config key, missing file, invalid combination."""

    exit_code = 1


class DomainError(StableQLError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class NumericError(StableQLError):
    """Quadrature or linear-algebra failure with a residual estimate."""


class ModelViolationError(StableQLError):
    """Model contract broken at runtime, e.g. non-positive scale coefficient."""


class SimulationOverflowError(StableQLError):
    """Non-finite state encountered during path simulation."""

    def __init__(self, step: int, value: float):
        self.step = step
        self.value = value
        super().__init__(f"non-finite state at simulation step {step}: {value!r}")


class OptimizationError(StableQLError):
    """All optimizer restarts failed."""


class PartialFailureError(StableQLError):
    """Too many Monte Carlo replicates failed to converge."""

    exit_code = 3
