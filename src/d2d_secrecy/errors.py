"""Exception types shared across the package.

Validation problems (bad arguments, out-of-domain values) derive from
ValueError so they behave sensibly in plain Python code; runtime failures
of iterative numerics derive from RuntimeError. The CLI maps these onto
distinct exit codes; a density below the threshold is not an error.
"""

__all__ = ["DomainError", "DegenerateDesignError", "NumericalError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class DegenerateDesignError(DomainError):
    """A design parameter makes the technique degenerate (e.g. zero power
    left on the information signal)."""


class NumericalError(RuntimeError):
    """A numerical routine failed: an iteration did not converge, or a
    float overflowed or underflowed where a finite value is needed."""

    def __init__(self, message: str, **context: float):
        if context:
            detail = ", ".join(f"{k}={v!r}" for k, v in context.items())
            message = f"{message} ({detail})"
        super().__init__(message)
        self.context = context

