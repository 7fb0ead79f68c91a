"""Package-wide numeric defaults."""

# Largest space dimension on which operators are built. W and its adjoint are
# CSC arrays with O(D) entries, creation operators act through index maps, and
# no routine forms a dense D x D array. What still needs the cap: the dense
# D x k arrays of `compute_E_L`, of the Poisson kernel and of Beurling's map
# Phi, with the thin SVDs of D x k subspace bases (no D x D factor); the
# refusals in `build_odometer`, the closed-form adjoint and the operator
# loader (the benchmark counts them); and the norm of a fully coupled sparse
# operator, which takes one dense eigenvalue problem of size D.
MAX_DENSE_DIM = 8192

# Default rank tolerance for all subspace computations.
DEFAULT_TOL = 1e-10


def resolve_tol(tol: float | None) -> float:
    if tol is None:
        return DEFAULT_TOL
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    return tol
