"""Small linear-algebra helpers used throughout the package."""

from __future__ import annotations

import numpy as np

from .csc import CSC, as_csc
from .fock import Operator


def op_norm(a) -> float:
    """Largest singular value of a dense or sparse matrix, or of an Operator.

    Sparse input is a `CSC` or anything with `.tocsc()`, such as a scipy
    sparse array. Dense input, turned so that its columns are the smaller
    side, and each coupled block of sparse input (`_sparse_norm`) take
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

    A column that shares no row with another column has only its diagonal entry in G:
    its own norm. The other columns fall into components joined by chains of shared rows
    (each column takes the least label on its rows, then its label's label, until no
    label moves); G is block diagonal over them, each one dense block over the rows it
    touches, decided by `_gram_norm`. No tolerance, and a tall matrix costs its entries,
    not its rows. Free entries are scaled by an exact power of two against over/underflow.
    """
    top = float(np.abs(a.data).max(initial=0.0))
    if top == 0.0:
        return 0.0
    scale = float(np.ldexp(1.0, np.frexp(top)[1]))
    data, cols = a.data / scale, a.entry_cols
    _, row_of, row_counts = np.unique(a.indices, return_inverse=True, return_counts=True)
    coupled = np.zeros(a.shape[1], dtype=bool)
    coupled[cols[row_counts[row_of] > 1]] = True
    free = ~coupled[cols]
    squares = data[free].real ** 2 + data[free].imag ** 2
    norm = float(np.sqrt(np.bincount(cols[free], weights=squares).max(initial=0.0)) * scale)
    if not coupled.any():
        return norm
    rows, cols, vals = row_of[~free], cols[~free], a.data[~free]
    label, new = None, np.arange(a.shape[1])
    while not np.array_equal(new, label):
        label, low = new, np.full(row_counts.size, a.shape[1])
        np.minimum.at(low, rows, label[cols])
        new = label.copy()
        np.minimum.at(new, cols, low[rows])
        new = new[new]
    comp, r, c = label[cols], _ranks(low)[rows], _ranks(label)[cols]
    order = np.argsort(comp, kind="stable")
    for part in np.split(order, np.flatnonzero(np.diff(comp[order])) + 1):
        dense = np.zeros((r[part].max() + 1, c[part].max() + 1), dtype=vals.dtype)
        dense[r[part], c[part]] = vals[part]
        norm = max(norm, _gram_norm(dense))
    return norm


def _ranks(group: np.ndarray) -> np.ndarray:
    """The rank of each element among the elements of its group, in index order."""
    order = np.argsort(group, kind="stable")
    return np.argsort(order) - np.searchsorted(group[order], group)


def _rank_split(mat: np.ndarray, tol: float, kernel: bool = True):
    """Orthonormal range basis and kernel coordinates of a 2-D matrix, rank by singular
    values > tol, from one SVD: thin unless a wide matrix's kernel is asked for."""
    u, s, vh = np.linalg.svd(mat, full_matrices=kernel and mat.shape[0] < mat.shape[1])
    rank = int(np.sum(s > tol))
    return u[:, s > tol], (vh[rank:, :].conj().T if kernel else None)


def _certified_kernel(mat: np.ndarray, tol: float) -> np.ndarray:
    """Kernel coordinates of a 2-D matrix A, rank decided as `_rank_split` decides it, from
    its Gram G = A^H A when a certificate allows. If ||G - I||_F <= tol < 1/2, every singular
    value is at least sqrt(1 - tol) > tol: the kernel is empty, with no `eigh`. Else the p
    eigenvectors V of eigenvalue < 1/2 are accepted iff ||A V|| <= tol < 1/2: by min-max,
    sigma_(r+1)(A) <= tol for r = k - p (k columns) and sigma_r(A) >= sqrt(1/2) > tol, so the
    SVD's `s > tol` rule decides rank r and only the kernel basis may turn by a unitary;
    otherwise `_rank_split` decides. Correctness never rests on a certificate passing."""
    gram = mat.conj().T @ mat
    if tol < 0.5 and np.linalg.norm(gram - np.eye(gram.shape[0])) <= tol:
        return np.zeros((gram.shape[0], 0), dtype=gram.dtype)
    vals, vecs = np.linalg.eigh(gram)
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
