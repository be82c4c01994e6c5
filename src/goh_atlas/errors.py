"""Error types shared across the package.  ValueError is used directly for
malformed arguments; these mark failures a caller may catch separately."""


class PreconditionError(ValueError):
    """Input violates a structural precondition (e.g. frame not in normal form)."""


class NumericsError(RuntimeError):
    """A numeric computation produced NaN/Inf or otherwise lost meaning."""
