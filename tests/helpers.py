"""Shared random generators and oracles for the test suite."""

import itertools

import numpy as np

from odofock import (
    RowContraction,
    Symbol,
    TruncatedFockSpace,
    Word,
    carry_successor,
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


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-for-bit equality of two complex arrays, signs of zeros included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
