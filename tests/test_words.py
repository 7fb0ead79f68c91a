"""Word enumeration, canonical indexing, and the carry action."""

import itertools

import pytest
from helpers import (
    Overflow,
    Word,
    carry_successor,
    enumerate_words,
    shift_word_index,
    vacuum,
    word_at,
    word_from_position,
    word_index,
)

from odofock import LevelOverflowError, TruncatedFockSpace


def brute_force_enumeration(n, max_level):
    """Independent oracle: lexicographic product per level."""
    out = []
    for m in range(max_level + 1):
        out.extend(sorted(itertools.product(range(1, n + 1), repeat=m)))
    return out


def test_enumerate_level_zero_only_vacuum():
    assert enumerate_words(2, 0) == [vacuum(2)]


def test_enumerate_n2_m2_matches_oracle():
    words = enumerate_words(2, 2)
    assert [w.letters for w in words] == brute_force_enumeration(2, 2)
    assert [w.letters for w in words] == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]


def test_enumerate_unary_alphabet():
    assert [w.letters for w in enumerate_words(1, 3)] == [(), (1,), (1, 1), (1, 1, 1)]


@pytest.mark.parametrize("n,max_level", [(1, 5), (2, 5), (3, 5)])
def test_index_is_enumeration_position(n, max_level):
    space = TruncatedFockSpace(n, max_level)
    words = enumerate_words(n, max_level)
    for pos, w in enumerate(words):
        assert word_index(space, w) == pos
        assert word_at(space, pos) == w


def test_index_examples():
    assert word_index(TruncatedFockSpace(2, 2), vacuum(2)) == 0
    assert word_index(TruncatedFockSpace(2, 2), Word((2, 1), 2)) == 5
    assert word_index(TruncatedFockSpace(3, 2), Word((1,), 3)) == 1


def test_index_rejects_too_long_words():
    space = TruncatedFockSpace(2, 2)
    with pytest.raises(LevelOverflowError):
        word_index(space, Word((1, 2, 1), 2))


def test_letters_validated():
    with pytest.raises(ValueError):
        Word((0, 1), 2)
    with pytest.raises(ValueError):
        Word((3,), 2)


def test_carry_examples():
    assert carry_successor(Word((2, 1), 2)) == Word((1, 2), 2)
    assert carry_successor(Word((1,), 2)) == Word((2,), 2)
    assert carry_successor(Word((2, 2), 2)) == Overflow(2)
    with pytest.raises(ValueError):
        carry_successor(vacuum(2))


@pytest.mark.parametrize("n,m", [(2, 1), (2, 3), (3, 2), (1, 4)])
def test_carry_cycle_visits_every_word_once(n, m):
    # the adding machine on level m is a single n^m cycle with one overflow
    start = Word((1,) * m, n)
    seen = {start}
    word = start
    overflows = 0
    for _ in range(n**m):
        step = carry_successor(word)
        if isinstance(step, Overflow):
            overflows += 1
            assert step.length == m
            word = Word((1,) * m, n)
        else:
            word = step
        seen.add(word)
    assert word == start
    assert overflows == 1
    assert len(seen) == n**m


def test_shift_word_index_prepends_ones():
    space = TruncatedFockSpace(2, 4)
    for idx in range(space.level_offset(3)):
        w = word_at(space, idx)
        shifted = shift_word_index(space, idx, 2)
        assert shifted == word_index(space, Word((1, 1) + w.letters, 2))
    # pushing past the truncation returns None
    top = space.level_offset(4)
    assert shift_word_index(space, top, 1) is None


def test_position_roundtrip_all_levels():
    for n in (1, 2, 3):
        for level in range(4):
            for pos in range(n**level):
                w = word_from_position(n, level, pos)
                assert w.position() == pos
                assert w.level == level
