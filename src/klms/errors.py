"""Exceptions shared across the package."""


class ConfigurationError(ValueError):
    """A run was requested with invalid or unsupported parameters."""


class DivergenceError(RuntimeError):
    """A stochastic recursion produced a non-finite or absurdly large
    coefficient, which almost always means the step size is too large.
    `where`, when given, names the run (preset and replicate, or step size)
    at the end of the message. `also` holds the further divergences of the
    same call, set by a caller that ran several runs."""

    def __init__(self, step: int, value: float, where: str = ""):
        self.step = step
        self.value = value
        self.also: tuple[DivergenceError, ...] = ()
        super().__init__(
            f"coefficient diverged at step {step} (|a_n| = {value:.3e}); "
            "the step size is probably too large" + (f" ({where})" if where else "")
        )
