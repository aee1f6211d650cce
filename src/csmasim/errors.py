"""Shared exception types."""
from __future__ import annotations


class ConfigError(ValueError):
    """Experiment configuration is malformed or inconsistent."""


class ExactModeUnavailable(RuntimeError):
    """Exact enumeration refused because the instance exceeds the desk-scale cap."""


class InfeasibleRates(ValueError):
    """Target rates are not strictly inside the capacity region."""


class ConvergenceFailure(RuntimeError):
    """An iterative solver stopped short of its tolerance (iteration cap or stalled search)."""


class NumericFailure(RuntimeError):
    """A run produced values outside the numerically safe range."""


class InvariantViolation(AssertionError):
    """A runtime invariant that should hold exactly was violated."""
