"""Exception types shared across the package."""

from dataclasses import replace


class OdofockError(Exception):
    """Base class for all library-specific failures. A refused verdict carries the
    `Check`s that decided it in `checks`, the failing ones with the message as
    their `error`; `residual` is the first failing check's, None if none fails."""

    def __init__(self, message: str = "", checks=()):
        super().__init__(message)
        self.checks = tuple(c if c.passed else replace(c, error=message) for c in checks)

    @property
    def residual(self) -> float | None:
        return next((c.residual for c in self.checks if not c.passed), None)


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


class NotUnitaryError(OdofockError):
    """An operation that requires a unitary odometer map received a symbol that
    fails `check_unitary`; `checks` holds that check's results."""


class DilationInexactError(OdofockError):
    """The purity tail at the requested truncation level exceeds the tolerance."""


class WindowError(OdofockError, ValueError):
    """A requested level range violates the exactness window of an operator."""


class InvarianceError(OdofockError):
    """A subspace fails an invariance requirement; `residual` is the projection
    defect of the invariance check in `checks`."""


class CertificateError(OdofockError):
    """A structural certificate read off an operator does not hold; `checks`
    holds one failing `level_<m>_certificate` check, with window m."""
