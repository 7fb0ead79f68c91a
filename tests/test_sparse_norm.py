"""The operator norm against the dense SVD, and against closed forms at scale.

`op_norm` of a sparse matrix splits its columns into those that share no
row with another column and one coupled block that gets a dense
eigenvalue problem; a dense matrix is that block on its own. These tests
compare both with the SVD of the dense matrix on small spaces, on two fixed
larger ones, and beyond that with norms known in closed form.
"""

import math

import numpy as np
import pytest
from helpers import creation_oracle, random_isometric_symbol, random_symbol
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import sparse

from odofock import (
    Operator,
    TruncatedFockSpace,
    build_odometer,
    op_norm,
    scalar_symbol,
    symbol_from_dense,
    verify_fock_representation,
)

spaces = st.builds(
    TruncatedFockSpace,
    n=st.integers(1, 3),
    max_level=st.integers(0, 5),
    coeff_dim=st.integers(1, 3),
).filter(lambda space: space.dim <= 400)
seeds = st.integers(0, 2**32 - 1)


def dense_norm(mat: np.ndarray) -> float:
    return float(np.linalg.svd(mat, compute_uv=False)[0]) if mat.size else 0.0


def assert_matches_dense(mat):
    expected = dense_norm(mat.toarray())
    assert abs(op_norm(mat) - expected) <= 1e-12 * (1.0 + expected)


def coupled(mat) -> bool:
    """Whether some row holds entries of two columns, so the dense block is not empty."""
    return mat.nnz > 0 and np.bincount(mat.indices).max() > 1


def random_dense(shape, rng) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


dense_shapes = st.one_of(
    st.tuples(st.integers(1, 40), st.integers(1, 40)),  # tall, wide and square
    st.tuples(st.just(1), st.integers(1, 60)),
    st.tuples(st.integers(1, 60), st.just(1)),
)


@given(dense_shapes, seeds, st.sampled_from([-900, 0, 900]), st.booleans())
def test_dense_norm_matches_svd(shape, seed, exponent, hermitian):
    rng = np.random.default_rng(seed)
    mat = random_dense(shape, rng)
    if hermitian:
        # the defect X^H X - I of a near-isometry, the shape of the residuals normed
        q = np.linalg.qr(random_dense((shape[0] + shape[1], shape[1]), rng))[0]
        x = q + 1e-6 * random_dense(q.shape, rng)
        mat = x.conj().T @ x - np.eye(shape[1])
    scaled = mat * 2.0**exponent
    expected = dense_norm(scaled)
    assert abs(op_norm(scaled) - expected) <= 1e-12 * (1.0 + expected)
    # the power-of-two rescale is exact, so the norm scales bit for bit
    assert op_norm(scaled) == op_norm(mat) * 2.0**exponent
    assert op_norm(np.zeros(shape)) == 0.0 and op_norm(np.zeros(shape, dtype=complex)) == 0.0


def test_norms_take_no_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("op_norm called an SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    rng = np.random.default_rng(3)
    dense = random_dense((30, 7), rng)
    assert abs(op_norm(dense) - op_norm(dense.T)) <= 1e-12 * op_norm(dense)
    w = build_odometer(random_symbol(TruncatedFockSpace(2, 4, 2), 2, rng)).operator
    assert coupled(w.matrix) and op_norm(w) > 0.0


@given(spaces, seeds)
def test_isometric_maps_match_dense_svd(space, seed):
    w = build_odometer(random_isometric_symbol(space, np.random.default_rng(seed))).operator
    assert_matches_dense(w.matrix)


@given(spaces, seeds, st.data())
def test_non_isometric_maps_match_dense_svd(space, seed, data):
    support = data.draw(st.integers(0, space.max_level))
    rng = np.random.default_rng(seed)
    symbol = random_symbol(space, support, rng, scale=float(rng.uniform(0.1, 2.0)))
    w = build_odometer(symbol).operator.matrix
    if support >= 1:
        assert coupled(w)
    assert_matches_dense(w)


@given(spaces)
def test_zero_symbol_maps_match_dense_svd(space):
    w = build_odometer(symbol_from_dense(space, np.zeros((space.dim, space.coeff_dim)))).operator
    assert_matches_dense(w.matrix)
    # only carries are left: a partial permutation, with norm 1 when any word carries
    assert op_norm(w) == (1.0 if space.n > 1 and space.max_level > 0 else 0.0)


def dense_relation_residuals(w: np.ndarray, space: TruncatedFockSpace, window: int) -> dict:
    """Oracle: the relation residuals from dense creation matrices and the dense SVD."""
    s = [None] + [creation_oracle(space, i).toarray() for i in range(1, space.n + 1)]
    cols = space.dim_upto(window)
    rel = {f"carry_relation_{k}": w @ s[k] - s[k + 1] for k in range(1, space.n)}
    rel["twist_relation"] = w @ s[space.n] - s[1] @ w
    return {name: dense_norm(r[:, :cols]) for name, r in rel.items()}


@given(spaces, seeds, st.data())
def test_perturbed_map_residuals_match_dense_svd(space, seed, data):
    assume(space.max_level >= 1)
    rng = np.random.default_rng(seed)
    support = data.draw(st.integers(0, space.max_level - 1))
    wmap = build_odometer(random_symbol(space, support, rng))
    # the vacuum column enters S_1 W on every window, so the twist relation breaks
    low = space.dim_upto(space.max_level - 1)
    rows = np.array([rng.integers(low), rng.integers(space.dim)])
    cols = np.array([0, rng.integers(space.dim)])
    noise = 1e-3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    bump = sparse.csc_array((noise, (rows, cols)), shape=wmap.operator.matrix.shape)
    bad = Operator(wmap.operator.matrix + bump, space, wmap.exact_below)
    assert_matches_dense(bad.matrix)

    check = verify_fock_representation(bad)
    assert check.residuals["twist_relation"] > 0 and not check.is_representation
    expected = dense_relation_residuals(bad.matrix.toarray(), space, check.window)
    assert check.residuals.keys() == expected.keys()
    for name, value in expected.items():
        assert abs(check.residuals[name] - value) <= 1e-12 * (1.0 + value)


@pytest.mark.parametrize("max_level", [8, 9])
def test_fixed_maps_at_511_and_1023_match_dense_svd(max_level):
    space = TruncatedFockSpace(2, max_level, 1)
    assert space.dim in (511, 1023)
    rng = np.random.default_rng(max_level)
    for symbol in (random_symbol(space, 3, rng), scalar_symbol(space, [1.0, 1.0, 1.0])):
        w = build_odometer(symbol).operator.matrix
        assert coupled(w)
        assert_matches_dense(w)


def toeplitz_norm(size: int) -> float:
    """Dense norm of the size x size lower-triangular Toeplitz matrix of 1 + z + z^2."""
    rows, cols = np.indices((size, size))
    return dense_norm(((rows - cols >= 0) & (rows - cols <= 2)).astype(complex))


@pytest.mark.parametrize("max_level", [10, 11])
def test_maps_beyond_dense_checks_match_closed_forms(max_level):
    space = TruncatedFockSpace(2, max_level, 1)
    assert space.dim in (2047, 4095)
    # isometric symbols: the map is an isometry up to the truncated all-n columns
    rng = np.random.default_rng(max_level)
    for symbol in (scalar_symbol(space, [np.exp(1j * rng.random())]),
                   scalar_symbol(space, [0.0, 0.0, 1j])):
        assert abs(op_norm(build_odometer(symbol).operator) - 1.0) <= 2e-12

    # criterion 06: the all-n columns carry the n = 1 Toeplitz matrix of
    # 1 + z + z^2 on the all-ones rows, which no carry reaches
    norm = op_norm(build_odometer(scalar_symbol(space, [1.0, 1.0, 1.0])).operator)
    expected = toeplitz_norm(max_level + 1)
    assert abs(norm - expected) <= 1e-12 * (1.0 + expected)
    # its principal tridiagonal block has norm 1 + 2 cos(pi / (M + 1)); the symbol's sup is 3
    assert 1.0 + 2.0 * math.cos(math.pi / (max_level + 1)) <= norm <= 3.0
