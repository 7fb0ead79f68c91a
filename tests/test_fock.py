"""Index maps, creation operators, operator norms, and orthonormal complements."""

import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    Word,
    carry_successor,
    creation_oracle,
    orthonormal_complement,
    same_bits,
    same_csc,
    word_at,
    word_index,
)
from scipy import sparse

from odofock import TruncatedFockSpace, creation_word_map, op_norm
from odofock.csc import as_csc
from odofock.fock import apply_annihilation, apply_creation, carry_word_map

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "odofock"


def test_creation_moves_vacuum_to_letter():
    space = TruncatedFockSpace(2, 2, 1)
    s1 = creation_oracle(space, 1)
    vec = np.zeros(space.dim, dtype=complex)
    vec[0] = 1.0
    out = s1 @ vec
    expected = np.zeros(space.dim, dtype=complex)
    expected[word_index(space, Word((1,), 2))] = 1.0
    assert np.array_equal(out, expected)


def test_creation_frozen_matrix_n2_m1():
    space = TruncatedFockSpace(2, 1, 1)
    s1 = creation_oracle(space, 1)
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 0] = 1.0
    assert s1.format == "csc" and s1.nnz == 1
    assert np.array_equal(s1.toarray(), expected)


@pytest.mark.parametrize("n,max_level,d", [(2, 3, 1), (3, 2, 2), (1, 4, 2)])
def test_row_isometry_identities(n, max_level, d):
    space = TruncatedFockSpace(n, max_level, d)
    ss = [creation_oracle(space, i).toarray() for i in range(1, n + 1)]
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
        Operator(np.zeros((2, 3), dtype=complex), space, 1)
    bad = np.zeros((space.dim, space.dim), dtype=complex)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Operator(bad, space, 1)
    with pytest.raises(ValueError):
        Operator(np.zeros((space.dim, space.dim), dtype=complex), space, 5)


def test_dense_guard_rejects_huge_spaces():
    from odofock import DimensionLimitError

    huge = TruncatedFockSpace(2, 24, 1)
    with pytest.raises(DimensionLimitError):
        huge.require_dense()


@pytest.mark.parametrize("n, max_level, coeff_dim", [
    (1000, 10, 1), (2, 63, 1), (2, 10**9, 1), (1, 2**63, 1), (2, 61, 4),
])
def test_spaces_beyond_int64_indices_are_refused(n, max_level, coeff_dim):
    with pytest.raises(ValueError, match="more basis vectors than int64 indices reach"):
        TruncatedFockSpace(n, max_level, coeff_dim)


def test_a_space_just_inside_int64_keeps_exact_indices():
    # n = 2, M = 61: 2^62 - 1 words; the offsets and the carry stay in int64 range
    space = TruncatedFockSpace(2, 61, 1)
    assert space.level_offsets()[-1] == space.num_words == 2**62 - 1
    top = np.array([space.level_offset(61), space.num_words - 2, space.num_words - 1])
    oracle = [word_index(space, carry_successor(word_at(space, int(w)))) for w in top[:2]]
    assert carry_word_map(space, top).tolist() == oracle + [-1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closed_form_index_maps_match_the_word_oracles(n):
    # every word up to level 6: the carry and the creation maps
    space = TruncatedFockSpace(n, 6, 1)
    words = np.arange(space.num_words)
    oracle = [-1]  # the vacuum overflows, as the all-n words do
    for w in words[1:]:
        step = carry_successor(word_at(space, int(w)))
        oracle.append(word_index(space, step) if isinstance(step, Word) else -1)
    assert carry_word_map(space, words).tolist() == oracle
    # one-to-one onto the words off position 0, which the closed-form adjoint relies on
    assert sorted(w for w in oracle if w >= 0) == [w for w in words if word_at(space, w).position()]
    below_top = words[space.word_levels(words) < space.max_level]
    for letter in range(1, n + 1):
        prepended = [word_index(space, word_at(space, int(w)).prepend(letter)) for w in below_top]
        assert creation_word_map(space, letter).tolist() == prepended


def signed_zero_matrix(shape, rng):
    """Random complex entries, with some real and imaginary parts -0.0 or +0.0."""
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x.real[rng.random(shape) < 0.2] = -0.0
    x.imag[rng.random(shape) < 0.2] = -0.0
    x[rng.random(shape) < 0.1] = 0.0
    return x


def same_layout(a, b):
    return (a.flags.c_contiguous, a.flags.f_contiguous) == (b.flags.c_contiguous, b.flags.f_contiguous)


@pytest.mark.parametrize("n,max_level,d", [(2, 3, 2), (3, 2, 1), (1, 4, 2), (2, 0, 2)])
def test_creation_gathers_and_scatters_match_the_sparse_products(n, max_level, d):
    space = TruncatedFockSpace(n, max_level, d)
    rng = np.random.default_rng(17)
    x = signed_zero_matrix((space.dim, 3), rng)
    y = signed_zero_matrix((3, space.dim), rng)
    a = sparse.random_array((space.dim, 4), density=0.5, dtype=complex, rng=rng).tocsc()
    a.data.real[::3] = -0.0
    a.data[1::5] = 0.0
    for letter in range(1, n + 1):
        s = creation_oracle(space, letter)
        pairs = [
            (apply_creation(space, letter, x), s @ x),
            (apply_annihilation(space, letter, x), s.conj().T @ x),
            (apply_annihilation(space, letter, y.T).T, y @ s),
        ]
        for got, want in pairs:
            assert same_bits(got, want) and same_layout(got, want)
        want = (s @ a).tocsc()
        want.sort_indices()
        assert same_csc(apply_creation(space, letter, as_csc(a)).scipy_view(), want)


def test_the_package_applies_creation_operators_by_their_index_maps():
    # no module builds or multiplies a creation matrix, and none names a
    # creation-matrix constructor
    names = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        assert "_creation_matrix" not in text and "_reverse_digits" not in text, path.name
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        uses = [t.line.strip() for t in tokens if t.string == "creation_operator"]
        if uses:
            names[path.name] = uses
    assert names == {}


def test_import_loads_no_word_module_and_exports_no_removed_name():
    # words, creation matrices, complements and point-set Hausdorff distances
    # live in tests/helpers.py as oracles, not in the package
    removed = ["Overflow", "Word", "carry_successor", "creation_operator", "default_tol",
               "enumerate_words", "hausdorff_distance", "orthonormal_complement", "vacuum",
               "word_from_position", "words_at_level"]
    script = (
        "import sys, odofock\n"
        "print(sorted(m for m in sys.modules if m.startswith('odofock.words')))\n"
        f"print(sorted(set({removed!r}) & set(dir(odofock))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=300, stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]
    methods = ("word_index", "word_at", "basis_index", "shift_word_index")
    assert [m for m in methods if hasattr(TruncatedFockSpace, m)] == []
