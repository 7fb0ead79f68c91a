"""Creation operators, operator norms, and orthonormal complements."""

import numpy as np
import pytest

from odofock import (
    TruncatedFockSpace,
    Word,
    creation_operator,
    op_norm,
    orthonormal_complement,
)


def test_creation_moves_vacuum_to_letter():
    space = TruncatedFockSpace(2, 2, 1)
    s1 = creation_operator(1, space).matrix
    vec = np.zeros(space.dim, dtype=complex)
    vec[0] = 1.0
    out = s1 @ vec
    expected = np.zeros(space.dim, dtype=complex)
    expected[space.word_index(Word((1,), 2))] = 1.0
    assert np.array_equal(out, expected)


def test_creation_frozen_matrix_n2_m1():
    space = TruncatedFockSpace(2, 1, 1)
    s1 = creation_operator(1, space).matrix
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 0] = 1.0
    assert s1.format == "csc" and s1.nnz == 1
    assert np.array_equal(s1.toarray(), expected)
    assert creation_operator(1, space).exact_below == 1


@pytest.mark.parametrize("n,max_level,d", [(2, 3, 1), (3, 2, 2), (1, 4, 2)])
def test_row_isometry_identities(n, max_level, d):
    space = TruncatedFockSpace(n, max_level, d)
    ss = [creation_operator(i, space).matrix.toarray() for i in range(1, n + 1)]
    sub = space.dim_upto(max_level - 1)
    eye = np.eye(space.dim)
    for i in range(n):
        for j in range(n):
            prod = ss[i].conj().T @ ss[j]
            target = eye if i == j else np.zeros_like(eye)
            # exact on the block of levels <= M-1
            assert np.array_equal(prod[:sub, :sub], target[:sub, :sub])
    total = sum(s @ s.conj().T for s in ss)
    vac_proj = np.zeros_like(eye)
    vac_proj[:d, :d] = np.eye(d)
    assert np.array_equal(total, eye - vac_proj)


def test_op_norm_examples():
    assert op_norm(np.zeros((4, 4))) == 0.0
    assert abs(op_norm(np.eye(7)) - 1.0) <= 1e-14


def test_op_norm_submultiplicative_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        b = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
        assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-10


def test_complement_of_empty_set_is_normalized_span():
    v = np.array([[3.0], [4.0], [0.0]], dtype=complex)
    basis = orthonormal_complement(np.zeros((3, 0)), v, 1e-10)
    assert basis.shape == (3, 1)
    assert abs(np.linalg.norm(basis[:, 0]) - 1.0) <= 1e-14
    assert abs(abs(np.vdot(basis[:, 0], v[:, 0])) - 5.0) <= 1e-12


def test_complement_within_two_dims():
    e0 = np.array([[1.0], [0.0]], dtype=complex)
    within = np.eye(2, dtype=complex)
    basis = orthonormal_complement(e0, within, 1e-10)
    assert basis.shape == (2, 1)
    assert abs(abs(basis[1, 0]) - 1.0) <= 1e-14


def test_complement_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        orthonormal_complement(np.zeros((2, 0)), np.eye(2, dtype=complex), 0.0)


def test_complement_handles_columns_outside_within():
    # vectors of span(within) orthogonal to a column that leaves the span
    within = np.zeros((5, 2), dtype=complex)
    within[0, 0] = 1.0
    within[1, 1] = 1.0
    col = np.array([[1.0], [0.0], [2.0], [0.0], [0.0]], dtype=complex)
    basis = orthonormal_complement(col, within, 1e-10)
    assert basis.shape == (5, 1)
    assert abs(np.vdot(col[:, 0], basis[:, 0])) <= 1e-12
    proj = within @ (within.conj().T @ basis)
    assert np.allclose(proj, basis, atol=1e-12)


def test_space_and_operator_validation():
    with pytest.raises(ValueError):
        TruncatedFockSpace(0, 2, 1)
    with pytest.raises(ValueError):
        TruncatedFockSpace(2, -1, 1)
    with pytest.raises(ValueError):
        TruncatedFockSpace(2, 2, 0)
    from odofock import Operator

    space = TruncatedFockSpace(2, 1, 1)
    with pytest.raises(ValueError):
        Operator(np.zeros((2, 3), dtype=complex), None, 1)
    bad = np.zeros((space.dim, space.dim), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Operator(bad, space, 1)
    with pytest.raises(ValueError):
        Operator(np.zeros((space.dim, space.dim), dtype=complex), space, 5)


def test_dense_guard_rejects_huge_spaces():
    from odofock import DimensionLimitError, creation_operator

    huge = TruncatedFockSpace(2, 24, 1)
    with pytest.raises(DimensionLimitError):
        creation_operator(1, huge)
