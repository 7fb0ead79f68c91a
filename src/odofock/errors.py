"""Exception types shared across the package."""


class OdofockError(Exception):
    """Base class for all library-specific failures."""


class SchemaError(OdofockError):
    """A JSON document does not match the expected wire format."""


class LevelOverflowError(OdofockError, ValueError):
    """A word is too long for the truncation it is being indexed into."""


class DimensionLimitError(OdofockError):
    """A dense matrix was requested for a space too large to materialize."""


class NotIsometricError(OdofockError):
    """An operation that requires an isometric symbol received a non-isometric one.

    No closed-form adjoint is available for non-isometric odometer maps;
    only the conjugate transpose of the truncated matrix (approximate) exists.
    """


class DilationInexactError(OdofockError):
    """The purity tail at the requested truncation level exceeds the tolerance."""

    def __init__(self, residual: float, level: int):
        self.residual = residual
        self.level = level
        super().__init__(
            f"purity tail {residual:.3e} at level {level} exceeds tolerance; "
            "raise the level or the tolerance"
        )


class WindowError(OdofockError, ValueError):
    """A requested level range violates the exactness window of an operator."""


class InvarianceError(OdofockError):
    """A subspace fails an invariance requirement.

    `residual` carries the measured projection defect.
    """

    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(f"{message} (residual {residual:.3e})")


class CertificateError(OdofockError):
    """A structural certificate read off an operator does not hold."""
