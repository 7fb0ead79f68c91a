"""Truncated vector-valued Fock spaces, their index maps and the sparse operators on them.

The truncation keeps levels 0..M of the Fock space over C^n, tensored with a
coefficient space C^d. Basis order is level-major, then base-n numeric order
of the word, then coefficient coordinate: the basis index of (word, p) is
word_index * d + p. This makes every level a contiguous index block.

The carry and the creation operators are closed-form maps of word indices
(`carry_word_map`, `creation_word_map`); creation operators are applied by
gathers and scatters through their maps, never as matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MAX_DENSE_DIM
from .csc import CSC, as_csc
from .errors import DimensionLimitError, LevelOverflowError


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
        # indices are int64; with n >= 2 and M >= 63 there are over 2^64 words
        if (self.n > 1 and self.max_level >= 63) or self.dim >= 2**63:
            raise ValueError(
                f"space (n={self.n}, max_level={self.max_level}, coeff_dim={self.coeff_dim}) "
                "has more basis vectors than int64 indices reach"
            )

    def level_offset(self, level: int) -> int:
        """Word index of the first level-`level` word; a level below 0 is refused."""
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
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
        """Dimension of the subspace spanned by levels 0..level; 0 for level -1."""
        return self.level_offset(level + 1) * self.coeff_dim

    def window(self, degree: int, top: int | None = None) -> int:
        """The window a check names: the highest level that a map raising level by
        `degree` keeps at or below `top` (default the top level); empty if negative."""
        return (self.max_level if top is None else top) - degree

    def level_slice(self, level: int) -> slice:
        """Contiguous basis-index block of the level-`level` slice."""
        d = self.coeff_dim
        return slice(self.level_offset(level) * d, self.level_offset(level + 1) * d)

    def level_of_word_index(self, index: int) -> int:
        if not 0 <= index < self.num_words:
            raise IndexError(f"word index {index} out of range")
        return int(self.word_levels(index))

    def level_offsets(self) -> np.ndarray:
        """Word-index offsets of levels 0..M+1; the last one is num_words."""
        return np.array([self.level_offset(m) for m in range(self.max_level + 2)], dtype=np.int64)

    def word_levels(self, indices: np.ndarray) -> np.ndarray:
        """Levels of an array of word indices, by one search over the level offsets."""
        return np.searchsorted(self.level_offsets(), indices, side="right") - 1

    def basis_indices(self, words: np.ndarray) -> np.ndarray:
        """Basis indices of (w, 0), ..., (w, d-1) for each word index w in turn."""
        d = self.coeff_dim
        return np.repeat(words, d) * d + np.tile(np.arange(d), len(words))

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
    """A square operator stored as a canonical `CSC`, with its truncation-exactness annotation.

    Any matrix-like input (a `CSC`, a scipy sparse array or a dense array) is
    stored as a `CSC`; `matrix` is a `scipy.sparse.csc_array` view of it,
    built when read. Columns indexed by basis vectors of level < exact_below
    incur no truncation error.
    """

    csc: CSC
    space: TruncatedFockSpace
    exact_below: int

    def __post_init__(self):
        mat = as_csc(self.csc)
        object.__setattr__(self, "csc", mat)
        if mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        if not np.all(np.isfinite(mat.data)):
            raise ValueError("operator matrix contains non-finite entries")
        if mat.shape[0] != self.space.dim:
            raise ValueError(
                f"matrix dimension {mat.shape[0]} does not match space dimension {self.space.dim}"
            )
        if not 0 <= self.exact_below <= self.space.max_level + 1:
            raise ValueError("exact_below must lie in 0..max_level + 1")

    @property
    def dim(self) -> int:
        return self.csc.shape[0]

    @property
    def matrix(self):
        """The stored matrix as a `scipy.sparse.csc_array` sharing its arrays."""
        return self.csc.scipy_view()


def carry_word_map(space: TruncatedFockSpace, words: np.ndarray) -> np.ndarray:
    """Word indices of the carry successors of `words`; -1 on the all-n words,
    the vacuum included, which overflow.

    The carry resets the leading letters n to 1 and raises the next one. On
    level m, with k the least integer such that n^k >= n^m - pos, position
    pos moves to pos + n^k + n^(k-1) - n^m: one to one onto positions > 0.
    """
    offsets = space.level_offsets()
    levels = space.word_levels(words)
    powers = np.int64(space.n) ** np.arange(space.max_level + 1)
    top, pos = powers[levels], words - offsets[levels]
    # k is 0 on the all-n words (pos = n^m - 1), whose values are discarded
    k = np.searchsorted(powers, top - pos)
    return np.where(pos < top - 1, words + powers[k] + powers[k - 1] - top, -1)


def creation_word_map(space: TruncatedFockSpace, letter: int) -> np.ndarray:
    """Word-index map of left tensoring by e_letter on levels 0..M-1.

    Entry w is the word index of (letter . word_w); words at level M are not
    in the array (they are annihilated by the truncation).
    """
    if not 1 <= letter <= space.n:
        raise ValueError(f"letter {letter} outside alphabet 1..{space.n}")
    offsets = space.level_offsets()
    words = np.arange(offsets[-2])
    levels = space.word_levels(words)
    pos = words - offsets[levels]
    return offsets[levels + 1] + (letter - 1) * np.int64(space.n) ** levels + pos


def creation_basis_map(space: TruncatedFockSpace, letter: int, indices: np.ndarray) -> np.ndarray:
    """Basis index of (letter . word, p) for each basis index (word, p) of level <= M-1."""
    d = space.coeff_dim
    return creation_word_map(space, letter)[indices // d] * d + indices % d


def apply_creation(space: TruncatedFockSpace, letter: int, x: np.ndarray | CSC) -> np.ndarray | CSC:
    """(S_letter x I) x for a dense array or a `CSC` x with D rows, as the sparse
    product gives it: the rows below level M move to their images, the rest
    drop out, values are added into +0.0 and a `CSC` drops its zeros."""
    low = space.dim_upto(space.max_level - 1)
    if isinstance(x, CSC):
        keep = (x.indices < low) & (x.data != 0)
        rows = creation_basis_map(space, letter, x.indices[keep])
        return CSC.from_triplets(rows, x.entry_cols[keep], x.data[keep] + 0.0, x.shape)
    out = np.zeros(x.shape, dtype=np.result_type(x, complex))
    out[creation_basis_map(space, letter, np.arange(low))] += x[:low]
    return out


def apply_annihilation(space: TruncatedFockSpace, letter: int,
                       x: np.ndarray | CSC) -> np.ndarray | CSC:
    """(S_letter x I)* x for a dense x with D rows: row r below level M is the row
    at the image of r, added into zeros; the level-M rows are 0. S_letter is
    real, so x (S_letter x I) is `apply_annihilation(space, letter, x.T).T`.
    A `CSC` x keeps the entries on words that begin with the letter, each moved
    to the word without it, as the sparse product gives them."""
    if isinstance(x, CSC):
        d, offsets = space.coeff_dim, space.level_offsets()
        word, p = np.divmod(x.indices.astype(np.int64), d)
        level = space.word_levels(word)
        # the first letter is the most significant base-n digit of the position
        below = np.int64(space.n) ** np.maximum(level - 1, 0)
        first, rest = np.divmod(word - offsets[level], below)
        keep = (level > 0) & (first == letter - 1) & (x.data != 0)
        rows = (offsets[level[keep] - 1] + rest[keep]) * d + p[keep]
        return CSC.from_triplets(rows, x.entry_cols[keep], x.data[keep] + 0.0, x.shape)
    low = space.dim_upto(space.max_level - 1)
    out = np.zeros(x.shape, dtype=np.result_type(x, complex))
    out[:low] += x[creation_basis_map(space, letter, np.arange(low))]
    return out
