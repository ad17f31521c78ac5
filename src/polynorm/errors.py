"""Exception hierarchy shared across the package."""


class PolynormError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(PolynormError):
    """Caller handed us something malformed (bad points, bad parameters)."""


class NotFullDimensionalError(InvalidInputError):
    """Input points do not span the ambient space.

    Carries the actual affine dimension so callers can report it.
    """

    def __init__(self, actual_dim: int, ambient_dim: int):
        self.actual_dim = actual_dim
        self.ambient_dim = ambient_dim
        super().__init__(
            f"points span affine dimension {actual_dim}, "
            f"but the ambient dimension is {ambient_dim}; "
            "only full-dimensional polytopes are supported"
        )

    def __reduce__(self):
        # pickle rebuilds an exception from its args, which hold the message;
        # a worker process's error reaches its caller through pickle
        return type(self), (self.actual_dim, self.ambient_dim)


class CorpusGenerationError(PolynormError):
    """Random corpus generation exhausted its resample budget."""


class InternalInvariantError(PolynormError):
    """A computed quantity contradicts a known identity; indicates a bug here."""
