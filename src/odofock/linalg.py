"""Small linear-algebra helpers used throughout the package."""

from __future__ import annotations

import numpy as np

from .csc import _CHUNK, CSC, as_csc
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


def orthonormal_complement(columns: np.ndarray, within: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of span(within) intersected with span(columns)^perp.

    Both column sets must live in the same ambient space. With `columns`
    contained in span(within) this is the orthogonal difference of the two
    spans, in general the vectors of span(within) orthogonal to every column.
    It orthonormalizes `within` first; the tests use it as the dense oracle.
    """
    if tol <= 0:
        raise ValueError(f"rank tolerance must be positive, got {tol}")
    within = np.asarray(within, dtype=complex)
    columns = np.asarray(columns, dtype=complex)
    if columns.ndim != 2:
        columns = columns.reshape(within.shape[0], -1)
    if within.shape[0] != columns.shape[0]:
        raise ValueError(
            f"ambient dimensions differ: {within.shape[0]} vs {columns.shape[0]}"
        )
    q = orthonormal_columns(within, tol)
    if q.shape[1] == 0 or columns.shape[1] == 0:
        return q
    # v = q x is orthogonal to the columns iff (columns^H q) x = 0.
    return q @ _rank_split(columns.conj().T @ q, tol)[1]


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two finite point sets in the complex plane.

    The distances are formed a block of rows of a at a time, at most about
    `_CHUNK` of them at once, so memory is O(|b| * rows) rather than
    O(|a| * |b|); min and max are exact, so the value does not depend on the
    blocks.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size == 0 or b.size == 0:
        return float("inf") if a.size != b.size else 0.0
    step = max(1, _CHUNK // b.size)
    a_to_b = 0.0
    b_to_a = np.full(b.size, np.inf)
    # np.maximum and np.minimum pass a NaN on, as one-shot min and max do
    for lo in range(0, a.size, step):
        dist = np.abs(a[lo : lo + step, None] - b[None, :])
        a_to_b = np.maximum(a_to_b, dist.min(axis=1).max())
        np.minimum(b_to_a, dist.min(axis=0), out=b_to_a)
    return float(np.maximum(a_to_b, b_to_a.max()))


def max_angular_gap(points: np.ndarray) -> float:
    """Largest gap between consecutive arguments of nonzero complex points."""
    angles = np.sort(np.angle(np.asarray(points, dtype=complex).ravel()))
    if angles.size <= 1:
        return 2.0 * np.pi
    gaps = np.diff(angles)
    wrap = angles[0] + 2.0 * np.pi - angles[-1]
    return float(max(gaps.max(), wrap))
