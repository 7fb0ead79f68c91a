"""Package-wide numeric defaults and the one check record every verdict is made of."""

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Check:
    """A named residual against a tolerance, on the window it measured; `passed`
    is the one pass rule. A negative window holds no column, so the check fails
    whatever else it carries; else a given `verdict` decides (a conjunction or an
    expectation match, not a residual bound); else the residual must be finite and
    at most the tolerance. `error` names the exception a failing check stands for."""

    name: str
    residual: float | None
    tolerance: float | None
    window: int | None = None
    verdict: bool | None = None
    error: str | None = None

    @property
    def passed(self) -> bool:
        if self.window is not None and self.window < 0:
            return False
        if self.verdict is not None:
            return bool(self.verdict)
        return (self.residual is not None and math.isfinite(self.residual)
                and bool(self.residual <= self.tolerance))


@dataclass(frozen=True)
class Verdict:
    """A result decided by its `checks`, in report order: it passes when every one
    of them does, and is vacuous when one of them measured nothing: its window
    is empty or its residual NaN."""

    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def residual(self, name: str) -> float | None:
        """The residual of the check called `name`; KeyError if there is none."""
        return {check.name: check.residual for check in self.checks}[name]

    @property
    def vacuous(self) -> bool:
        return any((c.window is not None and c.window < 0)
                   or (c.residual is not None and math.isnan(c.residual)) for c in self.checks)
