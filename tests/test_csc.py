"""The in-package CSC type against scipy's sparse arrays, bit for bit.

Every operation the package calls on a `CSC` is compared with the same
operation on a `scipy.sparse.csc_array` holding the same entries: the
stored index arrays, their dtype, and every value bit, signs of zeros
included. The random matrices are complex, carry explicit zeros and signed
zeros, and have empty columns.
"""

import numpy as np
from helpers import same_bits, same_csc, same_stored_bits
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

from odofock import TruncatedFockSpace, build_odometer, jsonio, symbol_from_dense
from odofock.csc import CSC, as_csc, identity

seeds = st.integers(0, 2**32 - 1)
shapes = st.tuples(st.integers(1, 9), st.integers(1, 9))
densities = st.sampled_from([0.0, 0.3, 0.7, 1.0])
# zeros of every sign, and nonzeros with a signed-zero part
SPECIAL = np.array([0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                    complex(1.0, -0.0), complex(-0.0, -2.5), complex(-1.0, 0.0)])


def random_values(size, rng) -> np.ndarray:
    vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    special = rng.random(size) < 0.3
    vals[special] = SPECIAL[rng.integers(SPECIAL.size, size=int(special.sum()))]
    return vals


def random_triplets(shape, density, rng):
    """Distinct coordinates in shuffled order, one column always left empty."""
    m, n = shape
    mask = rng.random(shape) < density
    mask[:, rng.integers(n)] = False
    rows, cols = np.nonzero(mask)
    order = rng.permutation(rows.size)
    return rows[order], cols[order], random_values(rows.size, rng)


def pair(shape, density, rng):
    """The same random matrix as a CSC and as a scipy CSC array."""
    rows, cols, vals = random_triplets(shape, density, rng)
    return (CSC.from_triplets(rows, cols, vals, shape),
            sparse.csc_array((vals, (rows, cols)), shape=shape))


def same(ours: CSC, theirs) -> bool:
    """Identical storage, index dtype included; scipy's products may leave rows unsorted."""
    theirs = sparse.csc_array(theirs)
    theirs.sort_indices()
    view = ours.scipy_view()
    return same_csc(view, theirs) and view.indices.dtype == theirs.indices.dtype


@given(shapes, seeds, densities, st.sampled_from([np.int32, np.int64]))
def test_construction_keeps_zeros_signs_and_scipys_index_dtype(shape, seed, density, dtype):
    rng = np.random.default_rng(seed)
    rows, cols, vals = random_triplets(shape, density, rng)
    rows, cols = rows.astype(dtype), cols.astype(dtype)
    ours = CSC.from_triplets(rows, cols, vals, shape)
    assert same(ours, sparse.csc_array((vals, (rows, cols)), shape=shape))
    dense = np.zeros(shape, dtype=complex)
    dense[rows, cols] = vals  # assigned, so the stored signed zeros stay
    assert same_stored_bits(ours.scipy_view(), dense)
    # a repeated coordinate sums its values, as scipy does
    extra = min(2, rows.size)
    rows2, cols2 = np.r_[rows, rows[:extra]], np.r_[cols, cols[:extra]]
    vals2 = np.r_[vals, random_values(extra, rng)]
    expected = sparse.csc_array((vals2, (rows2, cols2)), shape=shape)
    assert same(CSC.from_triplets(rows2, cols2, vals2, shape), expected)

    assert same(CSC.from_dense(dense), sparse.csc_array(dense))
    csr = sparse.csr_array((vals, (rows, cols)), shape=shape)
    assert same(as_csc(csr), sparse.csc_array(csr))


@given(shapes, seeds, densities)
def test_conjugate_transpose_matches_scipy(shape, seed, density):
    ours, theirs = pair(shape, density, np.random.default_rng(seed))
    assert same(ours.H, theirs.conj().T)


@given(shapes, seeds, densities, st.data())
def test_slices_match_scipy(shape, seed, density, data):
    rng = np.random.default_rng(seed)
    ours, theirs = pair(shape, density, rng)
    m, n = shape
    r0, r1 = sorted(data.draw(st.lists(st.integers(0, m), min_size=2, max_size=2)))
    c0, c1 = sorted(data.draw(st.lists(st.integers(0, n), min_size=2, max_size=2)))
    assert same(ours[r0:r1, :], theirs[r0:r1, :])
    assert same(ours[:, c0:c1], theirs[:, c0:c1])
    assert same(ours[r0:r1, c0:c1], theirs[r0:r1, c0:c1])
    picked = rng.integers(n, size=int(rng.integers(1, 2 * n)))  # unsorted, with repeats
    assert same(ours[:, picked], theirs[:, picked])
    mask = rng.random(n) < 0.5
    assert same(ours[:, mask], theirs[:, mask])


@given(st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 5)), seeds, densities)
def test_dense_products_match_scipy(dims, seed, density):
    m, k, p = dims
    rng = np.random.default_rng(seed)
    ours, theirs = pair((m, k), density, rng)
    right = random_values(k * p, rng).reshape(k, p)
    left = random_values(p * m, rng).reshape(p, m)
    assert same_bits(ours @ right, theirs @ right)
    assert same_bits(ours @ right[:, 0], theirs @ right[:, 0])
    assert same_bits(ours @ right.real, theirs @ right.real)
    assert same_bits(left @ ours, left @ theirs)
    # and in scipy's memory order, which decides the bits of later BLAS calls
    assert (left @ ours).flags.f_contiguous == (left @ theirs).flags.f_contiguous
    assert (ours @ right).flags.c_contiguous == (theirs @ right).flags.c_contiguous


@given(st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 5)), seeds, st.data())
def test_index_map_products_match_scipy(dims, seed, data):
    # ones, at most one per row and column: the creation operators' shape
    m, k, p = dims
    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, min(m, k) + 1))
    rows, cols = rng.permutation(m)[:size], rng.permutation(k)[:size]
    ones = np.full(size, data.draw(st.sampled_from([1 + 0j, complex(1.0, -0.0)])))
    ours = CSC.from_triplets(rows, cols, ones, (m, k))
    theirs = sparse.csc_array((ones, (rows, cols)), shape=(m, k))
    right = random_values(k * p, rng).reshape(k, p)
    left = random_values(p * m, rng).reshape(p, m)
    assert same_bits(ours @ right, theirs @ right)
    assert same_bits(left @ ours, left @ theirs)
    # a non-finite factor takes the general path, where 0 * inf is nan as in scipy
    right[0, 0] = complex(np.inf, 1.0)
    left[0, 0] = complex(1.0, np.nan)
    with np.errstate(invalid="ignore"):
        assert same_bits(ours @ right, theirs @ right)
        assert same_bits(left @ ours, left @ theirs)


@given(st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)), seeds, densities)
def test_sparse_products_and_differences_match_scipy(dims, seed, density):
    m, k, n = dims
    rng = np.random.default_rng(seed)
    a, a_sp = pair((m, k), density, rng)
    b, b_sp = pair((k, n), density, rng)
    c, c_sp = pair((m, k), density, rng)
    assert same(a @ b, a_sp @ b_sp)
    assert same(a.H @ c, a_sp.conj().T @ c_sp)
    assert same(a - c, a_sp - c_sp)
    assert same(a - a, a_sp - a_sp)


@given(shapes, seeds, densities, st.sampled_from([np.int32, np.int64]), st.booleans())
def test_gram_defect_and_triplet_differences_match_products_and_differences(
        shape, seed, density, dtype, real):
    rng = np.random.default_rng(seed)
    rows, cols, vals = random_triplets(shape, density, rng)
    a = CSC.from_triplets(rows.astype(dtype), cols.astype(dtype),
                          vals.real.copy() if real else vals, shape)
    defect = a.gram_defect()
    assert same(defect, (a.H @ a - identity(shape[1])).scipy_view())
    theirs = a.scipy_view()
    assert same(defect, theirs.conj().T @ theirs - sparse.eye_array(shape[1], dtype=complex))
    # a coordinate held by both sides, by one only, or by neither
    other_rows, other_cols, other_vals = random_triplets(shape, density, rng)
    split = rows.size
    difference = CSC.from_difference(np.r_[rows, other_rows], np.r_[cols, other_cols],
                                     np.r_[vals, other_vals], split, shape)
    expected = (CSC.from_triplets(rows, cols, vals, shape)
                - CSC.from_triplets(other_rows, other_cols, other_vals, shape))
    assert same(difference, expected.scipy_view())


@given(shapes, seeds, densities)
def test_dense_copies_gram_and_row_order_match_scipy(shape, seed, density):
    ours, theirs = pair(shape, density, np.random.default_rng(seed))
    assert same_bits(ours.toarray(), theirs.toarray())
    assert same_bits(ours.gram(), (theirs.conj().T @ theirs).toarray())
    coo = theirs.tocoo()
    order = np.lexsort((coo.col, coo.row))
    rows, cols, vals = ours.row_major()
    assert np.array_equal(rows, coo.row[order]) and np.array_equal(cols, coo.col[order])
    assert same_bits(vals, coo.data[order])


def test_matrix_views_share_the_stored_arrays(tmp_path):
    space = TruncatedFockSpace(2, 4, 2)
    rng = np.random.default_rng(7)
    symbol = symbol_from_dense(space, random_values(space.dim * 2, rng).reshape(-1, 2))
    op = build_odometer(symbol).operator
    path = str(tmp_path / "w.json")
    jsonio.dump_path(op, path)
    for obj in (symbol, op, jsonio.load_path(path)):
        view = obj.matrix
        assert isinstance(view, sparse.csc_array) and view.has_canonical_format
        for name in ("indptr", "indices", "data"):
            assert np.shares_memory(getattr(view, name), getattr(obj.csc, name)), name
        assert view.indices.dtype == view.indptr.dtype == obj.csc.indices.dtype
    # a dense input gives int32 indices, entries built from int64 coordinates int64, as in scipy
    assert symbol.matrix.indices.dtype == sparse.csc_array(symbol.matrix.toarray()).indices.dtype
    assert op.matrix.indices.dtype == np.int64


def strided_from_dense(arr) -> CSC:
    """The nonzero entries by the strided scan of the transpose itself."""
    cols, rows = np.nonzero(arr.T)
    return CSC._sorted(rows, cols, arr[rows, cols], arr.shape, np.int32)


def test_from_dense_scans_a_mask_with_the_strided_scans_result():
    rng = np.random.default_rng(2102)
    values = random_values(6 * 5, rng).reshape(6, 5)
    values[rng.random(values.shape) < 0.3] = 0.0
    values[1, 2], values[4, 0] = complex(np.nan, 0.0), complex(0.0, np.nan)
    values[2, 3], values[3, 3] = np.nan, complex(-0.0, -0.0)
    signed = np.array([[-0.0, 1.0], [np.nan, -0.0], [0.0, -2.5]])
    cases = [values, np.asfortranarray(values), values[::2, 1:], values.real.copy(), signed,
             np.asfortranarray(signed), np.zeros((0, 4), dtype=complex), np.zeros((3, 0)),
             np.zeros((0, 0)), np.zeros((4, 3))]
    for arr in cases:
        ours, old = CSC.from_dense(arr), strided_from_dense(arr)
        assert ours.shape == old.shape == arr.shape
        for name in ("indptr", "indices"):
            got, want = getattr(ours, name), getattr(old, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert ours.data.dtype == old.data.dtype and same_bits(ours.data, old.data)


@given(shapes, seeds, densities, st.integers(1, 3))
def test_gram_gaps_match_the_dense_gram(shape, seed, density, groups):
    rng = np.random.default_rng(seed)
    ours, _ = pair(shape, density, rng)
    labels = rng.integers(groups, size=shape[1])
    deviation = ours.gram() - np.eye(shape[1])
    gaps = ours.gram_gaps(labels)
    assert gaps.shape == (labels.max() + 1,)
    for g in range(gaps.size):
        block = deviation[np.ix_(labels == g, labels == g)]
        assert abs(gaps[g] - np.linalg.norm(block)) <= 1e-12 * max(1.0, gaps[g])
    assert abs(ours.gram_gaps()[0] - np.linalg.norm(deviation)) <= 1e-12 * max(1.0, gaps.max())


def test_a_real_matrix_with_no_entries_has_real_zero_gram():
    # no pair of entries: every sum is +0.0 in the values' dtype, not an integer
    empty = CSC.from_triplets([], [], np.zeros(0), (2, 3))
    assert empty.gram().dtype == np.float64 and not empty.gram().any()
    assert same_bits(empty.gram_gaps(np.array([0, 1, 1])), np.sqrt([1.0, 2.0]))
