"""Shared random generators and oracles for the test suite."""

import itertools
import math

import numpy as np
from scipy import sparse

from odofock import (
    RowContraction,
    Symbol,
    TruncatedFockSpace,
    Word,
    carry_successor,
    creation_operator,
    op_norm,
    symbol_from_dense,
    symbol_from_entries,
)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_symbol(
    space: TruncatedFockSpace, support: int, rng: np.random.Generator, scale: float = 1.0
) -> Symbol:
    """Dense random symbol with exact support degree `support`."""
    assert support <= space.max_level
    d = space.coeff_dim
    rows = space.dim_upto(support)
    mat = np.zeros((space.dim, d), dtype=complex)
    mat[:rows, :] = scale * (
        rng.standard_normal((rows, d)) + 1j * rng.standard_normal((rows, d))
    )
    # pin the top level so the support degree is exactly `support`
    mat[space.all_ones_index(support) * d, 0] += 0.5 * scale
    return symbol_from_dense(space, mat)


def random_constant_unitary_symbol(
    space: TruncatedFockSpace, rng: np.random.Generator
) -> Symbol:
    from odofock import constant_symbol

    return constant_symbol(space, haar_unitary(space.coeff_dim, rng))


def random_ones_diagonal_symbol(
    space: TruncatedFockSpace,
    rng: np.random.Generator,
    max_support: int | None = None,
    force_nonconstant: bool = False,
) -> Symbol:
    """Isometric symbol h_j -> phase * ones^{k_j} (x) h_{pi(j)}."""
    d = space.coeff_dim
    if max_support is None:
        max_support = max(space.max_level - 1, 0)
    perm = rng.permutation(d)
    ks = rng.integers(0, max_support + 1, size=d)
    if force_nonconstant and not np.any(ks > 0):
        ks[rng.integers(d)] = 1 + rng.integers(max(max_support, 1))
    phases = np.exp(2j * np.pi * rng.random(d))
    entries = [
        (space.all_ones_index(int(ks[j])) * d + int(perm[j]), j, complex(phases[j]))
        for j in range(d)
    ]
    return symbol_from_entries(space, entries)


def random_isometric_symbol(
    space: TruncatedFockSpace, rng: np.random.Generator
) -> Symbol:
    kind = rng.integers(3)
    if kind == 0:
        return random_constant_unitary_symbol(space, rng)
    if kind == 1:
        return random_ones_diagonal_symbol(space, rng)
    # mixed: unitary rotation of the coefficient space composed with a
    # ones-diagonal isometry keeps all the isometry conditions
    base = random_ones_diagonal_symbol(space, rng)
    u = haar_unitary(space.coeff_dim, rng)
    return symbol_from_dense(space, base.matrix.toarray() @ u)


def word_adjoint_oracle(t: RowContraction, level: int) -> list[np.ndarray]:
    """T_mu* for every length-`level` word, by direct products."""
    out = []
    for letters in itertools.product(range(t.n), repeat=level):
        prod = np.eye(t.dim, dtype=complex)
        for i in letters:
            prod = prod @ t.tuples[i]
        out.append(prod.conj().T)
    return out


def random_pure_row_contraction(
    n: int, dim: int, rng: np.random.Generator, row_norm: float = 0.9
) -> RowContraction:
    mats = [
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(n)
    ]
    row = np.hstack(mats)
    scale = row_norm / np.linalg.svd(row, compute_uv=False)[0]
    return RowContraction(tuple(scale * m for m in mats))


def reference_odometer(symbol: Symbol) -> np.ndarray:
    """Oracle: W word by word, the carry from `carry_successor` and the
    shifted symbol entry by entry, each added into a zero matrix."""
    space = symbol.space
    n, d, top = space.n, space.coeff_dim, space.max_level
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    coords = np.arange(d)
    for m in range(1, top + 1):
        lo = space.level_offset(m)
        for pos in range(n**m - 1):
            succ = carry_successor(space.word_at(lo + pos))
            assert isinstance(succ, Word)
            target = space.word_index(succ)
            mat[target * d + coords, (lo + pos) * d + coords] = 1.0
    coo = symbol.matrix.tocoo()
    for m in range(top + 1):
        src = space.level_offset(m + 1) - 1
        for r, q, v in zip(coo.row, coo.col, coo.data):
            word_idx, s = divmod(int(r), d)
            shifted = space.shift_word_index(word_idx, m)
            if shifted is not None:
                mat[shifted * d + s, src * d + q] += v
    return mat


def reference_shifted_columns(symbol: Symbol) -> np.ndarray:
    """Oracle: the shifted symbol columns ones^p L h_q, p = 1..M - support degree."""
    space = symbol.space
    d = space.coeff_dim
    pmax = space.max_level - symbol.support_degree
    shifted = np.zeros((space.dim, max(pmax, 0) * d), dtype=complex)
    coo = symbol.matrix.tocoo()
    for p in range(1, pmax + 1):
        for r, q, v in zip(coo.row, coo.col, coo.data):
            word_idx, s = divmod(int(r), d)
            target = space.shift_word_index(word_idx, p)
            if target is not None:
                shifted[target * d + s, (p - 1) * d + q] += v
    return shifted


def reference_adjoint(symbol: Symbol) -> np.ndarray:
    """Oracle: the closed-form adjoint of an isometric odometer map, word by word.

    Each non-overflow word w gives the entry 1.0 at (w, carry(w)). Column
    (ones^m, h_l) gets conj(c[m-p, l, q]) at row (all-n^p, h_q), where c
    collects the symbol entries on the all-ones words, added into zeros.
    Entries are assigned, so the conjugates keep their signed zeros.
    """
    space = symbol.space
    n, d, top = space.n, space.coeff_dim, space.max_level
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    coords = np.arange(d)
    for m in range(1, top + 1):
        lo = space.level_offset(m)
        for pos in range(n**m - 1):
            succ = space.word_index(carry_successor(space.word_at(lo + pos)))
            mat[(lo + pos) * d + coords, succ * d + coords] = 1.0
    c = np.zeros((top + 1, d, d), dtype=complex)
    coo = symbol.matrix.tocoo()
    for r, q, v in zip(coo.row, coo.col, coo.data):
        word_idx, s = divmod(int(r), d)
        level = space.level_of_word_index(word_idx)
        if word_idx == space.all_ones_index(level):
            c[level, s, q] += v
    for m in range(top + 1):
        for p in range(m + 1):
            for l, q in zip(*np.nonzero(c[m - p])):
                row = (space.level_offset(p + 1) - 1) * d + q
                mat[row, space.all_ones_index(m) * d + l] = np.conj(c[m - p, l, q])
    return mat


def oracle_operator_document(
    dense: np.ndarray, space: TruncatedFockSpace, exact_below: int
) -> dict:
    """Operator wire document written straight from a dense matrix, nonzero entries row-major."""
    rows, cols = np.nonzero(dense)
    return {
        "kind": "operator",
        "n": space.n,
        "max_level": space.max_level,
        "coeff_dim": space.coeff_dim,
        "exact_below": exact_below,
        "entries": [
            [int(r), int(c), float(dense[r, c].real), float(dense[r, c].imag)]
            for r, c in zip(rows, cols)
        ],
    }


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit equality of two complex arrays, signs of zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def same_stored_bits(mat, dense: np.ndarray) -> bool:
    """A canonical CSC array whose stored entries equal `dense` bit for bit.

    Compares the stored values themselves, signs of zeros included, rather
    than `toarray()`, which adds them into zeros. Every entry of `dense`
    outside the stored pattern must be +0.0.
    """
    if mat.format != "csc" or not mat.has_canonical_format or mat.shape != dense.shape:
        return False
    coo = mat.tocoo()
    rest = np.array(dense, dtype=complex)
    stored = rest[coo.row, coo.col]
    rest[coo.row, coo.col] = 0.0
    return same_bits(coo.data, stored) and same_bits(rest, np.zeros_like(rest))


def same_csc(a, b) -> bool:
    """Identical CSC storage: index arrays equal and values equal bit for bit."""
    return (
        a.format == b.format == "csc"
        and a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and same_bits(a.data, b.data)
    )


def reference_level_block_residual(space: TruncatedFockSpace, w) -> float:
    """Oracle: each level block of W copied dense, its defect B^H B - I normed
    by the SVD, and the mass of the level's columns outside the level."""
    worst = 0.0
    for m in range(space.max_level + 1):
        sl = space.level_slice(m)
        block_cols = w[:, sl]
        b = block_cols[sl, :].toarray()
        worst = max(worst, op_norm(b.conj().T @ b - np.eye(b.shape[0])))
        above = block_cols.data[block_cols.indices < sl.start]
        below = block_cols.data[block_cols.indices >= sl.stop]
        off_mass = np.linalg.norm(above) ** 2 + np.linalg.norm(below) ** 2
        worst = max(worst, float(np.sqrt(off_mass)))
    return worst


def reference_probe_deviation(symbol: Symbol, cols: np.ndarray, probes: int, seed: int) -> float:
    """Oracle: the window probe with each output norm read off a dense Gram
    matrix of the selected columns of W, on the same seeded draws."""
    from odofock.odometer import _odometer_columns

    if probes <= 0:
        return 0.0
    space = symbol.space
    d = space.coeff_dim
    window_words = space.level_offset(max(space.max_level - symbol.support_degree, 0) + 1)
    rng = np.random.default_rng(seed)
    colset = np.asarray(cols, dtype=np.int64)

    def deviation(basis_cols: np.ndarray, samples: int) -> float:
        rows, js, vals = _odometer_columns(symbol, basis_cols)
        _, rows = np.unique(rows, return_inverse=True)
        ws = sparse.csc_array((vals, (rows, js)), shape=(rows.max(initial=0) + 1, basis_cols.size))
        gram = (ws.conj().T @ ws).toarray()
        worst = 0.0
        for _ in range(samples):
            v = rng.standard_normal(basis_cols.size) + 1j * rng.standard_normal(basis_cols.size)
            norm_in = float(np.linalg.norm(v))
            norm_out = math.sqrt(max(float((v.conj() @ gram @ v).real), 0.0))
            worst = max(worst, abs(norm_out - norm_in) / norm_in)
        return worst

    if window_words * colset.size <= 4096:
        word_part = np.repeat(np.arange(window_words), colset.size) * d
        basis_cols = word_part + np.tile(colset, window_words)
        return deviation(basis_cols, probes)
    worst = 0.0
    for _ in range(probes):
        words = rng.integers(window_words, size=32)
        coords = colset[rng.integers(colset.size, size=32)]
        basis_cols = np.unique(words * d + coords)
        worst = max(worst, deviation(basis_cols, 1))
    return worst


def reference_phi(space: TruncatedFockSpace, wandering_basis: np.ndarray, budget: int):
    """Oracle: the Beurling map word by word; the column block of each word is
    its first letter's creation operator applied to the block of the rest."""
    wdim = wandering_basis.shape[1]
    domain = TruncatedFockSpace(space.n, budget, wdim)
    screations = [creation_operator(i, space).matrix for i in range(1, space.n + 1)]
    phi = np.zeros((space.dim, domain.dim), dtype=complex)
    phi[:, 0:wdim] = wandering_basis
    for level in range(1, budget + 1):
        for wi in range(domain.level_offset(level), domain.level_offset(level + 1)):
            word = domain.word_at(wi)
            parent = domain.word_index(Word(word.letters[1:], word.n))
            cols = slice(wi * wdim, (wi + 1) * wdim)
            pcols = slice(parent * wdim, (parent + 1) * wdim)
            phi[:, cols] = screations[word.letters[0] - 1] @ phi[:, pcols]
    return phi
