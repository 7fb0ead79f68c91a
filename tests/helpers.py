"""Shared random generators and oracles for the test suite."""

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np
from hypothesis import strategies as st
from scipy import sparse

from odofock import (
    ContractivePair,
    Operator,
    RowContraction,
    Symbol,
    TruncatedFockSpace,
    op_norm,
    orthonormal_columns,
    row_contraction,
    symbol_from_dense,
    symbol_from_entries,
)
from odofock.csc import _CHUNK, CSC
from odofock.errors import LevelOverflowError, SchemaError
from odofock.linalg import _rank_split


# every space with n <= 3, M <= 5, d <= 3: the range of the property tests
small_spaces = st.builds(
    TruncatedFockSpace,
    n=st.integers(1, 3),
    max_level=st.integers(0, 5),
    coeff_dim=st.integers(1, 3),
)


# --------------------------------------------------------------------------
# words of the free semigroup and the carry, letter by letter: the oracles
# the closed-form index maps of `odofock.fock` are held to
#
# A word is a finite sequence of letters from {1, ..., n}; the empty word is
# the vacuum label. Words of length m label the level-m slice of the Fock
# basis, ordered level-major and then by base-n numeric value with the first
# letter most significant.


@dataclass(frozen=True)
class Word:
    """An element of the free semigroup F_n^+, i.e. a Fock basis label.

    `letters` is the (possibly empty) tuple of letters, each in 1..n.
    The empty tuple is the vacuum label.
    """

    letters: tuple[int, ...]
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.n}")
        for a in self.letters:
            if not 1 <= a <= self.n:
                raise ValueError(f"letter {a} outside alphabet 1..{self.n}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    @property
    def level(self) -> int:
        return len(self.letters)

    def is_vacuum(self) -> bool:
        return not self.letters

    def prepend(self, letter: int) -> "Word":
        """The word obtained by left tensoring with e_letter."""
        return Word((letter,) + self.letters, self.n)

    def position(self) -> int:
        """Base-n numeric value of the word within its level.

        First letter most significant; digits are letter - 1.
        """
        pos = 0
        for a in self.letters:
            pos = pos * self.n + (a - 1)
        return pos

    def __repr__(self) -> str:
        body = ",".join(str(a) for a in self.letters) if self.letters else "vac"
        return f"Word({body}; n={self.n})"


class Overflow(NamedTuple):
    """Marker returned by the carry action on the all-n word of length m."""

    length: int


def vacuum(n: int) -> Word:
    return Word((), n)


def word_from_position(n: int, level: int, position: int) -> Word:
    """Inverse of Word.position at a fixed level."""
    if not 0 <= position < n**level:
        raise ValueError(f"position {position} out of range for level {level}")
    digits = []
    for _ in range(level):
        digits.append(position % n)
        position //= n
    return Word(tuple(d + 1 for d in reversed(digits)), n)


def carry_successor(word: Word) -> Word | Overflow:
    """One step of the base-n adding machine on a nonempty word.

    Leading letters equal to n reset to 1 and the first letter below n is
    incremented. If every letter equals n the word overflows and the marker
    carries its length.
    """
    if word.is_vacuum():
        raise ValueError("carry action is undefined on the vacuum label")
    n = word.n
    letters = word.letters
    k = 0
    while k < len(letters) and letters[k] == n:
        k += 1
    if k == len(letters):
        return Overflow(len(letters))
    succ = (1,) * k + (letters[k] + 1,) + letters[k + 1 :]
    return Word(succ, n)


def words_at_level(n: int, level: int) -> Iterator[Word]:
    """All level-`level` words in canonical (base-n numeric) order."""
    for combo in itertools.product(range(1, n + 1), repeat=level):
        yield Word(combo, n)


def enumerate_words(n: int, max_level: int) -> list[Word]:
    """Every word of length 0..max_level in canonical basis order."""
    if n < 1:
        raise ValueError(f"alphabet size must be >= 1, got {n}")
    if max_level < 0:
        raise ValueError(f"max level must be >= 0, got {max_level}")
    out: list[Word] = []
    for m in range(max_level + 1):
        out.extend(words_at_level(n, m))
    return out


def word_index(space: TruncatedFockSpace, word: Word) -> int:
    if word.n != space.n:
        raise ValueError(f"word over alphabet {word.n} used in space with n={space.n}")
    if word.level > space.max_level:
        raise LevelOverflowError(
            f"word of length {word.level} exceeds truncation level {space.max_level}"
        )
    return space.level_offset(word.level) + word.position()


def word_at(space: TruncatedFockSpace, index: int) -> Word:
    m = space.level_of_word_index(index)
    return word_from_position(space.n, m, index - space.level_offset(m))


def basis_index(space: TruncatedFockSpace, word: Word, p: int = 0) -> int:
    if not 0 <= p < space.coeff_dim:
        raise ValueError(f"coefficient coordinate {p} out of range 0..{space.coeff_dim - 1}")
    return word_index(space, word) * space.coeff_dim + p


def shift_word_index(space: TruncatedFockSpace, index: int, m: int) -> int | None:
    """Word index of 1^{tensor m} prepended to the word at `index`.

    Returns None when the result exceeds the truncation. Prepending ones
    contributes leading zero digits, so the position within the new level
    is unchanged.
    """
    level = space.level_of_word_index(index)
    if level + m > space.max_level:
        return None
    return space.level_offset(level + m) + (index - space.level_offset(level))


def creation_oracle(space: TruncatedFockSpace, letter: int) -> sparse.csc_array:
    """Oracle: S_letter x I entry by entry, (word, p) -> (letter . word, p) by
    `Word.prepend` on the words below level M; the level-M columns are zero."""
    d = space.coeff_dim
    rows, cols = [], []
    for m in range(space.max_level):
        for word in words_at_level(space.n, m):
            target = word_index(space, word.prepend(letter))
            rows.extend(target * d + p for p in range(d))
            cols.extend(word_index(space, word) * d + p for p in range(d))
    ones = np.ones(len(rows), dtype=complex)
    return sparse.csc_array((ones, (rows, cols)), shape=(space.dim, space.dim))


# --------------------------------------------------------------------------
# dense point-set oracles


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


def symbol_of_kind(space: TruncatedFockSpace, kind: str, rng: np.random.Generator) -> Symbol:
    """A random symbol: "dense" (any support), "isometric", or "signed" -- an
    isometric symbol with coefficients +-1 + 0j, whose conjugates hold -0.0."""
    if kind == "dense":
        return random_symbol(space, int(rng.integers(space.max_level + 1)), rng)
    if kind == "isometric":
        return random_isometric_symbol(space, rng)
    phases = random_ones_diagonal_symbol(space, rng).matrix.toarray()
    return symbol_from_dense(space, np.where(phases.real < 0, -1.0, 1.0) * (phases != 0) + 0j)


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


def random_coisometry(n: int, dim: int, rng: np.random.Generator) -> RowContraction:
    """A row [T_1 ... T_n] with orthonormal rows: the top rows of a Haar unitary,
    so sum T_i T_i* = I and the tuple is never pure."""
    rows = haar_unitary(n * dim, rng)[:dim, :]
    return RowContraction(tuple(rows[:, i * dim : (i + 1) * dim] for i in range(n)))


def unit_row_contraction(a: float) -> RowContraction:
    """T_1 = [[a, sqrt(1 - a^2)], [0, 0]]: row norm 1, yet Phi^m(I) = diag(a^(2m-2), 0)
    for m >= 1, so the tuple is pure for |a| < 1 and its tail decays like a^2."""
    return row_contraction([np.array([[a, np.sqrt(1.0 - a * a)], [0.0, 0.0]])])


def weighted_cycle(h: int, weight: float = 0.5) -> RowContraction:
    """The cyclic shift e_j -> e_(j+1 mod h) with one weight: T^h = weight * I,
    so ||Phi^m(I)|| = 1 for m < h and Phi^h(I) = weight^2 I."""
    shift = np.roll(np.eye(h), 1, axis=0)
    shift[0, h - 1] = weight
    return row_contraction([shift])


def random_unit_row_pure(
    n: int, dim: int, ones: int, rng: np.random.Generator
) -> RowContraction:
    """A row [T_1 ... T_n] with `ones` singular values exactly 1 and the rest at most
    0.95, between Haar factors: row norm 1, and generically (ones < dim) pure."""
    s = np.concatenate([np.ones(ones), rng.uniform(0.0, 0.95, dim - ones)])
    rows = haar_unitary(dim, rng) @ (s[:, None] * haar_unitary(n * dim, rng)[:dim, :])
    return RowContraction(tuple(rows[:, i * dim : (i + 1) * dim] for i in range(n)))


def random_conjugated_coisometry_sum(
    n: int, c: int, p: int, rng: np.random.Generator
) -> RowContraction:
    """U (C_i + P_i) U* for a coisometry C on c dimensions and a strict P on p:
    the C block is T*-invariant with sum T_i T_i* = I there, so never pure."""
    cois = random_coisometry(n, c, rng).tuples
    pure = random_pure_row_contraction(n, p, rng, row_norm=0.9).tuples
    u = haar_unitary(c + p, rng)
    blocks = []
    for ci, pi in zip(cois, pure):
        block = np.zeros((c + p, c + p), dtype=complex)
        block[:c, :c], block[c:, c:] = ci, pi
        blocks.append(u @ block @ u.conj().T)
    return RowContraction(tuple(blocks))


def kernel_chain_is_pure(t: RowContraction, tol: float = 1e-8) -> bool:
    """Oracle: the chain E_1 = ker(I - sum T_i T_i*), E_(m+1) = {v in E_1 : T_i* v
    in E_m for every i} ends at {0} iff T is pure; kernels by SVD, rank tolerance tol."""

    def kernel(a):
        _, s, vh = np.linalg.svd(a)
        return vh[int(np.sum(s > tol)) :].conj().T

    e1 = kernel(np.eye(t.dim) - t.row_gram())
    e = e1
    for _ in range(t.dim + 1):
        if e.shape[1] == 0:
            return True
        outside = np.eye(t.dim) - e @ e.conj().T
        e = e1 @ kernel(np.vstack([outside @ ti.conj().T @ e1 for ti in t.tuples]))
    return e.shape[1] == 0


def capped_purity(t: RowContraction, tol: float = 1e-10, steps: int = 64) -> bool:
    """The superseded verdict: pure when the row norm is below 1 - tol, or when some
    trace(Phi^m(I)) with m <= steps is below tol."""
    if np.sqrt(max(np.linalg.eigvalsh(t.row_gram())[-1], 0.0)) < 1.0 - tol:
        return True
    x = np.eye(t.dim, dtype=complex)
    for _ in range(steps):
        x = t.cp_map(x)
        if np.trace(x).real < tol:
            return True
    return False


def cp_power_at_identity(t: RowContraction, power: int) -> np.ndarray:
    """Phi^power(I) by repeated squaring of sum_i T_i (x) conj(T_i) on row-major vec."""
    kron = sum(np.kron(ti, ti.conj()) for ti in t.tuples)
    vec = np.linalg.matrix_power(kron, power) @ np.eye(t.dim, dtype=complex).ravel()
    return vec.reshape(t.dim, t.dim)


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
            succ = carry_successor(word_at(space, lo + pos))
            assert isinstance(succ, Word)
            target = word_index(space, succ)
            mat[target * d + coords, (lo + pos) * d + coords] = 1.0
    coo = symbol.matrix.tocoo()
    for m in range(top + 1):
        src = space.level_offset(m + 1) - 1
        for r, q, v in zip(coo.row, coo.col, coo.data):
            word_idx, s = divmod(int(r), d)
            shifted = shift_word_index(space, word_idx, m)
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
            target = shift_word_index(space, word_idx, p)
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
            succ = word_index(space, carry_successor(word_at(space, lo + pos)))
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
    screations = [creation_oracle(space, i) for i in range(1, space.n + 1)]
    phi = np.zeros((space.dim, domain.dim), dtype=complex)
    phi[:, 0:wdim] = wandering_basis
    for level in range(1, budget + 1):
        for wi in range(domain.level_offset(level), domain.level_offset(level + 1)):
            word = word_at(domain, wi)
            parent = word_index(domain, Word(word.letters[1:], word.n))
            cols = slice(wi * wdim, (wi + 1) * wdim)
            pcols = slice(parent * wdim, (parent + 1) * wdim)
            phi[:, cols] = screations[word.letters[0] - 1] @ phi[:, pcols]
    return phi


def reference_level_spectrum(space: TruncatedFockSpace, w, level: int) -> np.ndarray:
    """Oracle: the eigenvalues of W's level block, copied dense, by `np.linalg.eigvals`."""
    sl = space.level_slice(level)
    return np.linalg.eigvals(w[sl, sl].toarray())


def reference_dumps(doc) -> str:
    """Oracle for `jsonio.dumps` and the CLI reports: the standard library's
    indented encoder, which runs in pure Python."""
    return json.dumps(doc, sort_keys=True, indent=1)


def _require(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _reference_space(doc: dict) -> TruncatedFockSpace:
    for key in ("n", "max_level", "coeff_dim"):
        _require(key in doc, f"missing field {key!r}")
        _require(isinstance(doc[key], int), f"field {key!r} must be an integer")
    try:
        return TruncatedFockSpace(doc["n"], doc["max_level"], doc["coeff_dim"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _reference_entries(doc: dict, rows: int, cols: int) -> list[tuple[int, int, complex]]:
    _require("entries" in doc, "missing field 'entries'")
    raw = doc["entries"]
    _require(isinstance(raw, list), "'entries' must be a list")
    out = []
    seen = set()
    for item in raw:
        _require(isinstance(item, list) and len(item) == 4, "each entry must be [row, col, re, im]")
        r, c, re, im = item
        _require(isinstance(r, int) and isinstance(c, int), "entry indices must be integers")
        _require(0 <= r < rows, f"entry row {r} out of range 0..{rows - 1}")
        _require(0 <= c < cols, f"entry column {c} out of range 0..{cols - 1}")
        _require((r, c) not in seen, f"entry ({r}, {c}) is repeated")
        seen.add((r, c))
        _require(isinstance(re, (int, float)) and isinstance(im, (int, float)),
                 "entry values must be numbers")
        _require(math.isfinite(re) and math.isfinite(im), "entry values must be finite")
        out.append((r, c, complex(re, im)))
    return out


def _reference_dense(raw, rows: int, cols: int, what: str) -> np.ndarray:
    _require(isinstance(raw, list), f"{what} must be a list of [re, im] pairs")
    _require(len(raw) == rows * cols, f"{what} must have {rows * cols} entries")
    values = np.empty(rows * cols, dtype=complex)
    for i, item in enumerate(raw):
        _require(isinstance(item, list) and len(item) == 2, f"{what} entries must be [re, im] pairs")
        re, im = item
        _require(isinstance(re, (int, float)) and isinstance(im, (int, float)),
                 f"{what} values must be numbers")
        _require(math.isfinite(re) and math.isfinite(im), f"{what} values must be finite")
        values[i] = complex(re, im)
    return values.reshape(rows, cols)


def reference_from_json(doc):
    """Oracle for `jsonio.from_json`: the per-entry loader, one Python check per
    entry. It reads booleans as integers and lets an integer beyond float
    range raise OverflowError; the package loader refuses both."""
    _require(isinstance(doc, dict), "top-level JSON value must be an object")
    kind = doc.get("kind")
    _require(isinstance(kind, str), "missing or invalid 'kind'")
    if kind == "symbol":
        space = _reference_space(doc)
        entries = _reference_entries(doc, space.dim, space.coeff_dim)
        try:
            return symbol_from_entries(space, entries)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    if kind == "operator":
        space = _reference_space(doc)
        exact_below = doc.get("exact_below", space.max_level + 1)
        _require(isinstance(exact_below, int), "'exact_below' must be an integer")
        _require(0 <= exact_below <= space.max_level + 1,
                 f"'exact_below' must lie in 0..{space.max_level + 1}")
        entries = _reference_entries(doc, space.dim, space.dim)
        space.require_dense()
        coords = np.array([(r, c) for r, c, _ in entries], dtype=np.int64).reshape(-1, 2)
        vals = np.array([v for _, _, v in entries], dtype=complex)
        mat = CSC.from_triplets(coords[:, 0], coords[:, 1], vals, (space.dim, space.dim))
        return Operator(mat, space, exact_below)
    if kind == "pair":
        for key in ("n", "dim"):
            _require(isinstance(doc.get(key), int), f"field {key!r} must be an integer")
        n, h = doc["n"], doc["dim"]
        _require(n >= 1 and h >= 1, "'n' and 'dim' must be positive")
        _require(isinstance(doc.get("t"), list) and len(doc["t"]) == n, f"'t' must list {n} matrices")
        tuples = [_reference_dense(raw, h, h, f"t[{i}]") for i, raw in enumerate(doc["t"])]
        w = _reference_dense(doc.get("w"), h, h, "w")
        try:
            return ContractivePair(RowContraction(tuple(tuples)), w)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    if kind == "subspace":
        space = _reference_space(doc)
        raw = doc.get("columns")
        _require(isinstance(raw, list) and raw, "'columns' must be a non-empty list")
        return space, np.hstack(
            [_reference_dense(c, space.dim, 1, f"columns[{j}]") for j, c in enumerate(raw)]
        )
    raise SchemaError(f"unknown kind {kind!r}")
