"""Truncated vector-valued Fock spaces and the sparse operators living on them.

The truncation keeps levels 0..M of the Fock space over C^n, tensored with a
coefficient space C^d. Basis order is level-major, then base-n numeric order
of the word, then coefficient coordinate: the basis index of (word, p) is
word_index * d + p. This makes every level a contiguous index block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .config import MAX_DENSE_DIM
from .errors import DimensionLimitError, LevelOverflowError
from .words import Word, word_from_position


@dataclass(frozen=True)
class TruncatedFockSpace:
    """Parameters (n, max_level, coeff_dim) of a truncated Fock space."""

    n: int
    max_level: int
    coeff_dim: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"alphabet size must be >= 1, got {self.n}")
        if self.max_level < 0:
            raise ValueError(f"max level must be >= 0, got {self.max_level}")
        if self.coeff_dim < 1:
            raise ValueError(f"coefficient dimension must be >= 1, got {self.coeff_dim}")

    def level_offset(self, level: int) -> int:
        """Word index of the first level-`level` word."""
        if self.n == 1:
            return level
        return (self.n**level - 1) // (self.n - 1)

    @property
    def num_words(self) -> int:
        return self.level_offset(self.max_level + 1)

    @property
    def dim(self) -> int:
        return self.num_words * self.coeff_dim

    def dim_upto(self, level: int) -> int:
        """Dimension of the subspace spanned by levels 0..level."""
        return self.level_offset(level + 1) * self.coeff_dim

    def level_slice(self, level: int) -> slice:
        """Contiguous basis-index block of the level-`level` slice."""
        d = self.coeff_dim
        return slice(self.level_offset(level) * d, self.level_offset(level + 1) * d)

    def word_index(self, word: Word) -> int:
        if word.n != self.n:
            raise ValueError(f"word over alphabet {word.n} used in space with n={self.n}")
        if word.level > self.max_level:
            raise LevelOverflowError(
                f"word of length {word.level} exceeds truncation level {self.max_level}"
            )
        return self.level_offset(word.level) + word.position()

    def level_of_word_index(self, index: int) -> int:
        if not 0 <= index < self.num_words:
            raise IndexError(f"word index {index} out of range")
        m = 0
        while self.level_offset(m + 1) <= index:
            m += 1
        return m

    def level_offsets(self) -> np.ndarray:
        """Word-index offsets of levels 0..M+1; the last one is num_words."""
        return np.array([self.level_offset(m) for m in range(self.max_level + 2)], dtype=np.int64)

    def word_levels(self, indices: np.ndarray) -> np.ndarray:
        """Levels of an array of word indices, by one search over the level offsets."""
        return np.searchsorted(self.level_offsets(), indices, side="right") - 1

    def word_at(self, index: int) -> Word:
        m = self.level_of_word_index(index)
        return word_from_position(self.n, m, index - self.level_offset(m))

    def basis_index(self, word: Word, p: int = 0) -> int:
        if not 0 <= p < self.coeff_dim:
            raise ValueError(f"coefficient coordinate {p} out of range 0..{self.coeff_dim - 1}")
        return self.word_index(word) * self.coeff_dim + p

    def basis_indices(self, words: np.ndarray) -> np.ndarray:
        """Basis indices of (w, 0), ..., (w, d-1) for each word index w in turn."""
        d = self.coeff_dim
        return np.repeat(words, d) * d + np.tile(np.arange(d), len(words))

    def split_basis_index(self, index: int) -> tuple[int, int]:
        """(word index, coefficient coordinate) of a basis index."""
        return divmod(index, self.coeff_dim)

    def shift_word_index(self, index: int, m: int) -> int | None:
        """Word index of 1^{tensor m} prepended to the word at `index`.

        Returns None when the result exceeds the truncation. Prepending ones
        contributes leading zero digits, so the position within the new level
        is unchanged.
        """
        level = self.level_of_word_index(index)
        if level + m > self.max_level:
            return None
        return self.level_offset(level + m) + (index - self.level_offset(level))

    def all_ones_index(self, m: int) -> int:
        """Word index of the length-m all-ones word (the level offset itself)."""
        if m > self.max_level:
            raise LevelOverflowError(f"level {m} exceeds truncation level {self.max_level}")
        return self.level_offset(m)

    def require_dense(self):
        if self.dim > MAX_DENSE_DIM:
            raise DimensionLimitError(
                f"space dimension {self.dim} exceeds the dense-matrix limit "
                f"{MAX_DENSE_DIM}; use the coefficient-based operations instead"
            )


@dataclass(frozen=True)
class Operator:
    """A square operator stored as a CSC array, with its truncation-exactness annotation.

    Any matrix-like input (dense or sparse) is stored as a `scipy.sparse.csc_array`.
    Columns indexed by basis vectors of level < exact_below incur no
    truncation error. `space` may be None for operators on plain
    finite-dimensional spaces outside the Fock indexing scheme.
    """

    matrix: sparse.csc_array
    space: TruncatedFockSpace | None
    exact_below: int

    def __post_init__(self):
        mat = sparse.csc_array(self.matrix)
        object.__setattr__(self, "matrix", mat)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat.data)):
            raise ValueError("operator matrix contains non-finite entries")
        if self.space is not None:
            if mat.shape[0] != self.space.dim:
                raise ValueError(
                    f"matrix dimension {mat.shape[0]} does not match space dimension "
                    f"{self.space.dim}"
                )
            if self.exact_below > self.space.max_level + 1:
                raise ValueError("exact_below cannot exceed max_level + 1")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def creation_word_map(space: TruncatedFockSpace, letter: int) -> np.ndarray:
    """Word-index map of left tensoring by e_letter on levels 0..M-1.

    Entry w is the word index of (letter . word_w); words at level M are not
    in the array (they are annihilated by the truncation).
    """
    if not 1 <= letter <= space.n:
        raise ValueError(f"letter {letter} outside alphabet 1..{space.n}")
    n = space.n
    targets = np.empty(space.level_offset(space.max_level), dtype=np.int64)
    for m in range(space.max_level):
        lo, hi = space.level_offset(m), space.level_offset(m + 1)
        pos = np.arange(hi - lo, dtype=np.int64)
        targets[lo:hi] = space.level_offset(m + 1) + (letter - 1) * n**m + pos
    return targets


def creation_basis_map(space: TruncatedFockSpace, letter: int, indices: np.ndarray) -> np.ndarray:
    """Basis index of (letter . word, p) for each basis index (word, p) of level <= M-1."""
    d = space.coeff_dim
    return creation_word_map(space, letter)[indices // d] * d + indices % d


def _creation_matrix(space: TruncatedFockSpace, letter: int) -> sparse.csc_array:
    """S_letter tensor I as a CSC index map, without the dense-size gate.

    Each column below level M holds a single 1.0; level-M columns are zero.
    Products with it move entries without rounding them.
    """
    cols = np.arange(space.dim_upto(space.max_level - 1))
    ones = np.ones(cols.size, dtype=complex)
    rows = creation_basis_map(space, letter, cols)
    return sparse.csc_array((ones, (rows, cols)), shape=(space.dim, space.dim))


def creation_operator(letter: int, space: TruncatedFockSpace) -> Operator:
    """S_letter tensor I on the truncation.

    Maps (word, p) to (letter . word, p) below level M and annihilates the
    level-M block, so columns below level M are exact.
    """
    space.require_dense()
    return Operator(_creation_matrix(space, letter), space, space.max_level)
