"""Canonical compressed-sparse-column matrices over numpy arrays.

The package stores every sparse operator and symbol as a `CSC`: `indptr`,
`indices`, `data` and `shape`, with the rows of each column ascending and
distinct. Construction keeps explicit zeros and signed zeros as given. The
index dtype is the one scipy's sparse arrays choose: int32 for a dense
input, the width of the given coordinates for triplets, and the wider of
the operands' for a result, int64 wherever int32 cannot hold the size. So
`scipy_view` wraps the same memory without a copy.

Every operation gives scipy's values bit for bit. A complex product is
formed from real parts, as (ar*br - ai*bi, ar*bi + ai*br) with one ufunc
call per step, which is the arithmetic of scipy's sparse loops (numpy's own
complex multiply may fuse it). Sums start from +0.0 and take their terms in
CSC entry order, as those loops add into zeros: by `np.bincount` for sparse
products, Gram matrices and products with vectors, and one layer of distinct
output rows at a time for products with dense matrices. Sparse products and differences drop the
entries that come out exactly zero, as scipy does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_INT32_MAX = int(np.iinfo(np.int32).max)
# elements a dense product gathers at once: small temporaries are reused from
# the heap, where large ones are mapped and faulted in afresh on every call
_CHUNK = 1 << 14


def _index_dtype(shape: tuple[int, int], nnz: int, *index_arrays: np.ndarray) -> type:
    if max(*shape, nnz) > _INT32_MAX:
        return np.int64
    if any(not np.can_cast(a.dtype, np.int32) for a in index_arrays):
        return np.int64
    return np.int32


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b broadcast; complex products from real parts, one ufunc call per step."""
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return a * b
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    real = ar * br - ai * bi
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = ar * bi + ai * br
    return out


def _sum_products(keys: np.ndarray, a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """out[k] = +0.0 plus the products a[i] * b[i] whose key is k, added in index order."""
    terms = _product(a, b)
    if not np.iscomplexobj(terms):
        return np.bincount(keys, weights=terms, minlength=size)
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(keys, weights=terms.real, minlength=size)
    out.imag = np.bincount(keys, weights=terms.imag, minlength=size)
    return out


def column_entries(indptr: np.ndarray, columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Storage positions of the entries of `columns`, column after column, and
    the position in `columns` that owns each."""
    columns = np.asarray(columns, dtype=np.int64)
    starts = indptr[columns].astype(np.int64)
    counts = indptr[columns + 1] - starts
    owner = np.repeat(np.arange(columns.size), counts)
    entry = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(owner.size)
    return entry, owner


@dataclass(frozen=True, eq=False)
class CSC:
    """A canonical CSC matrix. Build it with `from_triplets`, `from_dense` or `as_csc`."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    # numpy defers `ndarray @ CSC` to __rmatmul__
    __array_ufunc__ = None

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape) -> CSC:
        """Entries vals[k] at (rows[k], cols[k]); a repeated coordinate sums its
        values in input order. Explicit zeros and signed zeros are stored as given."""
        m, n = (int(s) for s in shape)
        rows, cols = np.asarray(rows).ravel(), np.asarray(cols).ravel()
        idx = _index_dtype((m, n), rows.size, rows, cols)
        rows, cols = rows.astype(np.int64), cols.astype(np.int64)
        vals = np.asarray(vals).ravel()
        if rows.size and (rows.min() < 0 or rows.max() >= m or cols.min() < 0 or cols.max() >= n):
            raise ValueError(f"entry coordinates outside the shape {(m, n)}")
        keys = cols * m + rows
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], vals[order]
        first = np.r_[True, keys[1:] != keys[:-1]]
        if not first.all():
            group = np.cumsum(first) - 1
            rank = np.arange(keys.size) - np.flatnonzero(first)[group]
            total = vals[first]
            for r in range(1, int(rank.max()) + 1):
                total[group[rank == r]] += vals[rank == r]
            keys, vals = keys[first], total
        return cls._from_keys(keys, vals, (m, n), idx)

    @classmethod
    def from_dense(cls, arr) -> CSC:
        """The nonzero entries of a 2-D array."""
        arr = np.asarray(arr)
        if arr.ndim != 2:
            raise ValueError(f"a dense matrix must be 2-D, got shape {arr.shape}")
        cols, rows = np.nonzero(arr.T)
        idx = _index_dtype(arr.shape, rows.size)
        return cls._sorted(rows, cols, arr[rows, cols], arr.shape, idx)

    @classmethod
    def _from_keys(cls, keys: np.ndarray, vals: np.ndarray, shape, idx: type) -> CSC:
        """From ascending distinct keys col * m + row."""
        cols, rows = np.divmod(keys, max(shape[0], 1))
        return cls._sorted(rows, cols, vals, shape, idx)

    @classmethod
    def _sorted(cls, rows, cols, vals, shape, idx: type) -> CSC:
        """From entries already in canonical order, with index dtype `idx`."""
        m, n = (int(s) for s in shape)
        indptr = np.zeros(n + 1, dtype=idx)
        indptr[1:] = np.cumsum(np.bincount(cols, minlength=n))
        return cls(indptr, np.asarray(rows).astype(idx), np.ascontiguousarray(vals), (m, n))

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @cached_property
    def entry_cols(self) -> np.ndarray:
        """Column of each stored entry, in storage order (read-only)."""
        cols = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        cols.flags.writeable = False
        return cols

    def scipy_view(self):
        """This matrix as a `scipy.sparse.csc_array` over the same arrays.

        The one place the package imports scipy.
        """
        from scipy import sparse

        return sparse.csc_array((self.data, self.indices, self.indptr), shape=self.shape)

    @property
    def H(self) -> CSC:
        """Conjugate transpose."""
        order = np.argsort(self.indices, kind="stable")
        cols = self.entry_cols[order]
        data = np.conj(self.data[order])
        return CSC._sorted(cols, self.indices[order], data, self.shape[::-1], self.indices.dtype)

    def __getitem__(self, key) -> CSC:
        """`a[rows, cols]`: rows a unit-step slice; cols a unit-step slice, an index
        array or a boolean mask. Selected columns keep the order given."""
        rows, cols = key
        m, n = self.shape
        lo, hi, step = rows.indices(m)
        if step != 1:
            raise ValueError("row selections must be unit-step slices")
        if isinstance(cols, slice):
            start, stop, step = cols.indices(n)
            if step != 1:
                raise ValueError("column slices must have unit step")
            picked = np.arange(start, max(start, stop))
        else:
            picked = np.arange(n)[cols]
        entry, owner = column_entries(self.indptr, picked)
        row = self.indices[entry]
        keep = (row >= lo) & (row < hi)
        shape = (max(hi - lo, 0), picked.size)
        # scipy builds an empty column selection afresh, with int32 indices
        idx = self.indices.dtype if picked.size or isinstance(cols, slice) else np.int32
        return CSC._sorted(row[keep] - lo, owner[keep], self.data[entry[keep]], shape, idx)

    def __matmul__(self, other):
        if isinstance(other, CSC):
            return self._matmul_csc(other)
        x = np.asarray(other)
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"shapes {self.shape} and {x.shape} do not align")
        if x.ndim == 1:
            return _sum_products(self.indices, self.data, x[self.entry_cols], self.shape[0])
        return self._dense_product(self._row_layers, x, self.shape[0])

    def __rmatmul__(self, other):
        x = np.asarray(other)
        if x.shape[-1] != self.shape[0]:
            raise ValueError(f"shapes {x.shape} and {self.shape} do not align")
        if x.ndim == 1:
            return _sum_products(self.entry_cols, self.data, x[self.indices], self.shape[1])
        # scipy forms x @ A as (A^T @ x^T)^T, so the result is its transposed view
        return self._dense_product(self._col_layers, x.T, self.shape[1]).T

    @cached_property
    def _row_layers(self) -> list[tuple]:
        """The entry groups of A @ x, keyed by row (see `_layers`)."""
        order = np.argsort(self.indices, kind="stable")
        rows = self.indices[order]
        starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
        rank = np.empty(rows.size, dtype=np.int64)
        rank[order] = np.arange(rows.size) - np.repeat(starts, np.diff(np.r_[starts, rows.size]))
        return self._layers(rank, self.indices, self.entry_cols)

    @cached_property
    def _col_layers(self) -> list[tuple]:
        """The entry groups of x @ A, keyed by column (see `_layers`)."""
        rank = np.arange(self.nnz) - np.repeat(self.indptr[:-1], np.diff(self.indptr))
        return self._layers(rank, self.entry_cols, self.indices)

    def _layers(self, rank: np.ndarray, keys: np.ndarray, src: np.ndarray) -> list[tuple]:
        """(keys, src, data, all ones) groups: layer r holds the r-th entry of each
        key in storage order, split into the entries equal to 1 and the rest.
        Keys within a layer are distinct, so each group adds in one step."""
        groups = []
        for r in range(int(rank.max(initial=-1)) + 1):
            layer = rank == r
            for one in (True, False):
                e = np.flatnonzero(layer & ((self.data == 1) == one))
                if e.size:
                    groups.append((keys[e], src[e], self.data[e], one))
        return groups

    def _dense_product(self, groups: list[tuple], x: np.ndarray, size: int) -> np.ndarray:
        """out[key] = +0.0 plus data * x[src] over the entry groups, which is entry
        order within each output row, for x of shape (k, p). (A vector takes one
        `np.bincount` instead, which costs fewer calls.)

        An entry equal to 1 adds x itself: for finite x, 1 * x differs from x
        at most in the sign of a zero, and a sum started at +0.0 never carries
        that sign, so the result keeps scipy's bits.
        """
        out = np.zeros((size, x.shape[1]), dtype=np.result_type(self.data, x))
        step = max(1, _CHUNK // max(x.shape[1], 1))
        for keys, src, data, one in groups:
            for lo in range(0, keys.size, step):
                at = slice(lo, lo + step)
                terms = x[src[at]]
                if not (one and np.isfinite(terms).all()):
                    terms = _product(data[at, None], terms)
                out[keys[at]] += terms
        return out

    def _matmul_csc(self, other: CSC) -> CSC:
        """self @ other; each output entry sums over the rows of `other`'s column, ascending."""
        m, k = self.shape
        if other.shape[0] != k:
            raise ValueError(f"shapes {self.shape} and {other.shape} do not align")
        entry, owner = column_entries(self.indptr, other.indices)
        keys = other.entry_cols[owner] * m + self.indices[entry]
        keys, inverse = np.unique(keys, return_inverse=True)
        vals = _sum_products(inverse, other.data[owner], self.data[entry], keys.size)
        live = vals != 0
        shape = (m, other.shape[1])
        # as in scipy, a product with no terms is a new empty array
        idx = _index_dtype(shape, keys.size, *((self.indices, other.indices) if keys.size else ()))
        return CSC._from_keys(keys[live], vals[live], shape, idx)

    def __sub__(self, other: CSC) -> CSC:
        """Entrywise difference; a missing entry reads +0.0."""
        if not isinstance(other, CSC):
            return NotImplemented
        if other.shape != self.shape:
            raise ValueError(f"shapes {self.shape} and {other.shape} differ")
        m = self.shape[0]
        ka = self.entry_cols * m + self.indices
        kb = other.entry_cols * m + other.indices
        keys = np.union1d(ka, kb)
        a = np.zeros(keys.size, dtype=np.result_type(self.data, other.data))
        b = np.zeros_like(a)
        a[np.searchsorted(keys, ka)] = self.data
        b[np.searchsorted(keys, kb)] = other.data
        vals = a - b
        live = vals != 0
        idx = _index_dtype(self.shape, keys.size, self.indices, other.indices)
        return CSC._from_keys(keys[live], vals[live], self.shape, idx)

    def toarray(self) -> np.ndarray:
        """Dense copy; entries are added into zeros, so a stored -0.0 reads +0.0."""
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.indices, self.entry_cols] += self.data
        return out

    def row_major(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) of the stored entries, by row and then column."""
        cols = self.entry_cols
        order = np.lexsort((cols, self.indices))
        return self.indices[order], cols[order], self.data[order]

    def gram(self) -> np.ndarray:
        """Dense A^H A from the stored entries, without the transpose's indptr.

        Entry (a, b) sums conj(A[r, a]) * A[r, b] over the rows r the two
        columns share, ascending, as scipy's `(A.conj().T @ A).toarray()` does.
        The work and memory are those of the row-sharing pairs, never of the
        number of rows.
        """
        n = self.shape[1]
        rows, cols, vals = self.row_major()
        # the row-major entries grouped by row, like columns under an indptr
        ptr = np.r_[np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]]), rows.size]
        group = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))
        # every ordered pair (left, right) of entries in one row, rows ascending
        right, left = column_entries(ptr, group)
        keys = cols[left] * n + cols[right]
        return _sum_products(keys, np.conj(vals[left]), vals[right], n * n).reshape(n, n)


def as_csc(obj) -> CSC:
    """A `CSC` itself, anything with `.tocsc()` (a scipy sparse array) in
    canonical form, or the nonzero entries of a dense 2-D array."""
    if isinstance(obj, CSC):
        return obj
    if hasattr(obj, "tocsc"):
        mat = obj.tocsc()
        cols = np.repeat(np.arange(mat.shape[1], dtype=mat.indices.dtype), np.diff(mat.indptr))
        return CSC.from_triplets(mat.indices, cols, mat.data, mat.shape)
    return CSC.from_dense(obj)


def identity(m: int, n: int | None = None) -> CSC:
    """The m x n complex identity: ones on the leading diagonal."""
    n = m if n is None else n
    k = np.arange(min(m, n))
    return CSC._sorted(k, k, np.ones(k.size, dtype=complex), (m, n), _index_dtype((m, n), k.size))
