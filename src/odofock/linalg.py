"""Small linear-algebra helpers used throughout the package."""

from __future__ import annotations

import numpy as np

from .csc import CSC, as_csc
from .fock import Operator


def op_norm(a) -> float:
    """Largest singular value of a dense or sparse matrix, or of an Operator.

    Sparse input is a `CSC` or anything with `.tocsc()`, such as a scipy
    sparse array. Dense input, turned so that its columns are the smaller
    side, and the coupled block of sparse input (`_sparse_norm`) both take
    `_gram_norm`: no path runs an SVD, and an all-zero matrix reads exactly 0.0.
    """
    mat = a.csc if isinstance(a, Operator) else a
    if isinstance(mat, CSC) or hasattr(mat, "tocsc"):
        return _sparse_norm(as_csc(mat))
    mat = np.asarray(mat)
    return _gram_norm(mat if mat.shape[0] >= mat.shape[1] else mat.T)


def _gram_norm(dense: np.ndarray) -> float:
    """sqrt of the largest eigenvalue of the column Gram matrix A^H A.

    The entries are first scaled by a power of two, which is exact, so the
    squares neither overflow nor underflow; an all-zero array takes no
    decomposition.
    """
    top = float(np.abs(dense).max(initial=0.0))
    if top == 0.0:
        return 0.0
    scale = float(np.ldexp(1.0, np.frexp(top)[1]))
    a = dense / scale
    return float(np.sqrt(np.linalg.eigvalsh(a.conj().T @ a)[-1]) * scale)


def _sparse_norm(a: CSC) -> float:
    """Exact norm of a sparse matrix through its Gram matrix G = A^H A.

    A column that shares no row with another column has only its diagonal
    entry in G, so it contributes its own norm sqrt(G[j, j]). G restricted to
    the remaining coupled columns is one dense block over the rows they
    touch, decided by `_gram_norm`. There is no iteration and no tolerance,
    and the row sharing is read off the stored entries, so a tall matrix
    costs its entries, not its rows. The free entries are first scaled by a
    power of two, which is exact, so their squares neither overflow nor
    underflow; `_gram_norm` scales the coupled block the same way.
    """
    top = float(np.abs(a.data).max(initial=0.0))
    if top == 0.0:
        return 0.0
    scale = float(np.ldexp(1.0, np.frexp(top)[1]))
    data = a.data / scale
    cols = a.entry_cols
    _, row_of, row_counts = np.unique(a.indices, return_inverse=True, return_counts=True)
    coupled = np.zeros(a.shape[1], dtype=bool)
    coupled[cols[row_counts[row_of] > 1]] = True
    free = ~coupled[cols]
    squares = data[free].real ** 2 + data[free].imag ** 2
    norm = float(np.sqrt(np.bincount(cols[free], weights=squares).max(initial=0.0)) * scale)
    if coupled.any():
        block = a[:, coupled]
        rows, local = np.unique(block.indices, return_inverse=True)
        dense = np.zeros((rows.size, block.shape[1]), dtype=block.data.dtype)
        dense[local, block.entry_cols] += block.data
        norm = max(norm, _gram_norm(dense))
    return norm


def _rank_split(mat: np.ndarray, tol: float, kernel: bool = True):
    """Orthonormal range basis and kernel coordinates of a 2-D matrix, rank by singular
    values > tol, from one SVD: thin unless a wide matrix's kernel is asked for."""
    u, s, vh = np.linalg.svd(mat, full_matrices=kernel and mat.shape[0] < mat.shape[1])
    rank = int(np.sum(s > tol))
    return u[:, s > tol], (vh[rank:, :].conj().T if kernel else None)


def _certified_kernel(mat: np.ndarray, tol: float) -> np.ndarray:
    """Kernel coordinates of a 2-D matrix A, its rank decided as `_rank_split` decides it,
    from one `eigh` of A^H A when a certificate allows: the p eigenvectors V of eigenvalue
    < 1/2 are accepted iff ||A V|| <= tol < 1/2. By min-max that gives sigma_(r+1)(A) <= tol
    for r = k - p (k columns), and the other eigenvalues give sigma_r(A) >= sqrt(1/2) > tol,
    so the SVD's `s > tol` rule decides rank r and only the kernel basis may turn by a
    unitary; otherwise `_rank_split` decides. On graded subspaces the Grams are projections
    (eigenvalues within 5e-15 of 0 or 1) and the certificate passes; correctness does not
    rest on that."""
    vals, vecs = np.linalg.eigh(mat.conj().T @ mat)
    kernel = vecs[:, vals < 0.5]
    if tol < 0.5 and op_norm(mat @ kernel) <= tol:
        return kernel
    return _rank_split(mat, tol)[1]


def orthonormal_columns(mat: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the column span (a 1-D array is one column), rank
    decided by singular values > tol."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim not in (1, 2):
        raise ValueError(f"columns must be a 1-D or 2-D array, got {mat.ndim} dimensions")
    return _rank_split(mat if mat.ndim == 2 else mat[:, None], tol, kernel=False)[0]


def canonical_basis(basis: np.ndarray) -> np.ndarray:
    """The orthonormal basis of the span of the orthonormal columns `basis` that
    depends on the span alone: Gram-Schmidt of the projector's columns P e_r.

    Each step takes as pivot the first row r, in index order, whose residual
    norm is at least half the largest one, so rounding cannot move the choice
    unless two residuals sit at that ratio, and gives the new vector a positive
    real entry at its pivot. The squared residual norms are ||P e_r||^2 less
    row r's squared moduli in the vectors found so far. Exact 0 and 1 entries
    stay exact, so a permuted, sign-changed unit basis maps to the same bits.
    """
    out = np.zeros_like(basis)
    left = np.sum(basis.real**2 + basis.imag**2, axis=1)
    for j in range(basis.shape[1]):
        r = int(np.argmax(left >= left.max() / 4))
        v = basis @ basis[r].conj() - out[:, :j] @ out[r, :j].conj()
        v -= out[:, :j] @ (out[:, :j].conj().T @ v)
        v[r] = v[r].real  # ||P e_r||^2 less squared moduli: real but for rounding
        out[:, j] = v / np.linalg.norm(v)
        left -= out[:, j].real ** 2 + out[:, j].imag ** 2
    return out + 0.0  # -0.0 + 0.0 is +0.0: no zero keeps a sign from the input's gauge


def max_angular_gap(points: np.ndarray) -> float:
    """Largest gap between consecutive arguments of nonzero complex points."""
    angles = np.sort(np.angle(np.asarray(points, dtype=complex).ravel()))
    if angles.size <= 1:
        return 2.0 * np.pi
    gaps = np.diff(angles)
    wrap = angles[0] + 2.0 * np.pi - angles[-1]
    return float(max(gaps.max(), wrap))
