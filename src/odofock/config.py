"""Package-wide numeric defaults."""

import os

# Largest space dimension on which operators are built. Odometer maps, their
# adjoints and the creation operators are CSC arrays with O(D) entries, but
# the subspace, dilation and Beurling routines still form dense D x D arrays
# (8192**2 complex128 entries is ~1 GiB), and the norm of a fully coupled
# operator takes one dense eigenvalue problem of that size.
MAX_DENSE_DIM = 8192

# Default rank tolerance for all subspace computations.
DEFAULT_TOL = 1e-10

ENV_TOL = "ODOFOCK_TOL"


def default_tol() -> float:
    """Default tolerance, overridable through the ODOFOCK_TOL environment variable."""
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return DEFAULT_TOL
    value = float(raw)
    if value <= 0:
        raise ValueError(f"{ENV_TOL} must be positive, got {raw!r}")
    return value


def resolve_tol(tol: float | None) -> float:
    if tol is None:
        return default_tol()
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return tol
