"""Small linear-algebra helpers used throughout the package."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .fock import Operator


def op_norm(a) -> float:
    """Largest singular value of a dense or sparse matrix, or of an Operator.

    Dense input, turned so that its columns are the smaller side, and the
    coupled block of sparse input (`_sparse_norm`) both take `_gram_norm`: no
    path runs an SVD, and an all-zero matrix reads exactly 0.0.
    """
    mat = a.matrix if isinstance(a, Operator) else a
    if sparse.issparse(mat):
        return _sparse_norm(mat)
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


def _sparse_norm(mat) -> float:
    """Exact norm of a sparse matrix through its Gram matrix G = A^H A.

    A column that shares no row with another column has only its diagonal
    entry in G, so it contributes its own norm sqrt(G[j, j]). G restricted to
    the remaining coupled columns is one dense block, decided by `_gram_norm`.
    There is no iteration and no tolerance. The free entries are first scaled
    by a power of two, which is exact, so their squares neither overflow nor
    underflow; `_gram_norm` scales the coupled block the same way.
    """
    a = sparse.csc_array(mat)
    top = float(np.abs(a.data).max(initial=0.0))
    if top == 0.0:
        return 0.0
    scale = float(np.ldexp(1.0, np.frexp(top)[1]))
    data = a.data / scale
    cols = np.repeat(np.arange(a.shape[1]), np.diff(a.indptr))
    shared = np.bincount(a.indices, minlength=a.shape[0])[a.indices] > 1
    coupled = np.zeros(a.shape[1], dtype=bool)
    coupled[cols[shared]] = True
    free = ~coupled[cols]
    squares = data[free].real ** 2 + data[free].imag ** 2
    norm = float(np.sqrt(np.bincount(cols[free], weights=squares).max(initial=0.0)) * scale)
    if coupled.any():
        block = a[:, coupled]
        norm = max(norm, _gram_norm(block[np.unique(block.indices), :].toarray()))
    return norm


def orthonormal_columns(mat: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the column span, rank decided by singular values > tol."""
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[1] == 0:
        return np.zeros((mat.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    return u[:, s > tol]


def orthonormal_complement(columns: np.ndarray, within: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of span(within) intersected with span(columns)^perp.

    Both column sets must live in the same ambient space. With `columns`
    contained in span(within) this is the orthogonal difference of the two
    spans; in general it is the set of vectors of span(within) orthogonal to
    every column.
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
    overlap = columns.conj().T @ q
    u, s, vh = np.linalg.svd(overlap, full_matrices=True)
    rank = int(np.sum(s > tol))
    null_coords = vh[rank:, :].conj().T
    return q @ null_coords


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two finite point sets in the complex plane."""
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size == 0 or b.size == 0:
        return float("inf") if a.size != b.size else 0.0
    dist = np.abs(a[:, None] - b[None, :])
    return float(max(dist.min(axis=1).max(), dist.min(axis=0).max()))


def max_angular_gap(points: np.ndarray) -> float:
    """Largest gap between consecutive arguments of nonzero complex points."""
    angles = np.sort(np.angle(np.asarray(points, dtype=complex).ravel()))
    if angles.size <= 1:
        return 2.0 * np.pi
    gaps = np.diff(angles)
    wrap = angles[0] + 2.0 * np.pi - angles[-1]
    return float(max(gaps.max(), wrap))
