"""Wire-format round trips and validation."""

import numpy as np
import pytest
from helpers import (
    random_pure_row_contraction,
    random_symbol,
    same_csc,
    small_spaces,
    symbol_of_kind,
)
from hypothesis import given
from hypothesis import strategies as st

from odofock import (
    ContractivePair,
    Operator,
    RowContraction,
    SchemaError,
    TruncatedFockSpace,
    adjoint_isometric,
    build_odometer,
    gallery_weak_bishift,
    scalar_symbol,
)
from odofock import jsonio
from odofock.cli import main as cli_main


def test_symbol_round_trip_is_byte_exact():
    rng = np.random.default_rng(1)
    space = TruncatedFockSpace(2, 3, 2)
    symbol = random_symbol(space, 2, rng)
    text = jsonio.dumps(symbol)
    again = jsonio.dumps(jsonio.loads(text))
    assert text == again


def test_vacuum_symbol_entries():
    space = TruncatedFockSpace(2, 2, 1)
    doc = jsonio.symbol_to_json(scalar_symbol(space, [1.0]))
    assert doc["entries"] == [[0, 0, 1.0, 0.0]]
    assert doc["kind"] == "symbol"
    assert (doc["n"], doc["max_level"], doc["coeff_dim"]) == (2, 2, 1)


def test_operator_round_trip_preserves_window():
    rng = np.random.default_rng(2)
    space = TruncatedFockSpace(2, 3, 1)
    wmap = build_odometer(random_symbol(space, 1, rng))
    text = jsonio.dumps(wmap.operator)
    op = jsonio.loads(text)
    assert isinstance(op, Operator)
    assert op.exact_below == wmap.exact_below
    assert same_csc(op.matrix, wmap.operator.matrix)
    assert jsonio.dumps(op) == text


def test_adjoint_document_round_trips_byte_identically():
    # the closed-form adjoint conjugates real coefficients, so it stores -0.0
    symbol = gallery_weak_bishift(2, 4).symbol
    text = jsonio.dumps(adjoint_isometric(build_odometer(symbol)))
    assert "-0.0" in text
    assert jsonio.dumps(jsonio.loads(text)) == text


def test_repeated_entry_is_rejected(tmp_path, capsys):
    doc = {"kind": "operator", "n": 1, "max_level": 1, "coeff_dim": 1, "exact_below": 2,
           "entries": [[0, 0, 1.0, 0.0], [1, 1, 1.0, 0.0], [0, 0, 1.0, 0.0]]}
    with pytest.raises(SchemaError):
        jsonio.from_json(doc)
    path = tmp_path / "repeated.json"
    jsonio.dump_path(doc, str(path))
    assert cli_main(["check", "representation", "--symbol", str(path)]) == 2
    capsys.readouterr()


def test_pair_round_trip():
    rng = np.random.default_rng(3)
    t = random_pure_row_contraction(2, 3, rng)
    w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    pair = ContractivePair(t, w)
    text = jsonio.dumps(pair)
    again = jsonio.loads(text)
    assert isinstance(again, ContractivePair)
    assert all(np.array_equal(a, b) for a, b in zip(pair.t.tuples, again.t.tuples))
    assert np.array_equal(pair.w, again.w)
    assert jsonio.dumps(again) == text


def test_subspace_round_trip():
    space = TruncatedFockSpace(2, 2, 1)
    cols = np.zeros((space.dim, 2), dtype=complex)
    cols[1, 0] = 1.0
    cols[2, 1] = 1j
    text = jsonio.dumps(jsonio.subspace_to_json(space, cols))
    got_space, got_cols = jsonio.loads(text)
    assert got_space == space
    assert np.array_equal(got_cols, cols)


seeds = st.integers(0, 2**32 - 1)


def with_negative_zeros(mat: np.ndarray, rng) -> np.ndarray:
    """Some entries set to -0.0 - 0.0j, others to real parts carrying -0.0 imaginary parts."""
    out = np.array(mat, dtype=complex)
    out[rng.random(out.shape) < 0.25] = complex(-0.0, -0.0)
    real = rng.random(out.shape) < 0.25
    out[real] = np.conj(out[real].real + 0j)
    return out


@given(small_spaces, st.sampled_from(["dense", "isometric", "signed"]), seeds)
def test_symbol_and_operator_documents_round_trip_byte_identically(space, kind, seed):
    symbol = symbol_of_kind(space, kind, np.random.default_rng(seed))
    wmap = build_odometer(symbol)
    operators = [wmap.operator]
    if kind != "dense":
        operators.append(adjoint_isometric(wmap))
    for obj in [symbol, *operators]:
        text = jsonio.dumps(obj)
        again = jsonio.loads(text)
        assert jsonio.dumps(again) == text
    if kind == "signed":
        assert "-0.0" in jsonio.dumps(operators[-1])
    for op in operators:
        assert same_csc(jsonio.loads(jsonio.dumps(op)).matrix, op.matrix)


@given(st.integers(1, 3), st.integers(1, 4), seeds)
def test_pair_documents_round_trip_byte_identically(n, h, seed):
    rng = np.random.default_rng(seed)
    t = random_pure_row_contraction(n, h, rng)
    tuples = [with_negative_zeros(m, rng) for m in t.tuples]
    if np.linalg.eigvalsh(sum(m @ m.conj().T for m in tuples))[-1] > 1.0:
        tuples = list(t.tuples)
    w = with_negative_zeros(rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)), rng)
    text = jsonio.dumps(ContractivePair(RowContraction(tuple(tuples)), w))
    again = jsonio.loads(text)
    assert jsonio.dumps(again) == text
    assert np.array_equal(np.signbit(again.w.imag), np.signbit(w.imag))


@given(small_spaces, st.integers(1, 4), seeds)
def test_subspace_documents_round_trip_byte_identically(space, k, seed):
    rng = np.random.default_rng(seed)
    cols = with_negative_zeros(rng.standard_normal((space.dim, k)), rng)
    text = jsonio.dumps(jsonio.subspace_to_json(space, cols))
    got_space, got_cols = jsonio.loads(text)
    assert got_space == space
    assert jsonio.dumps(jsonio.subspace_to_json(got_space, got_cols)) == text
    assert np.array_equal(np.signbit(got_cols.real), np.signbit(cols.real))
    assert np.array_equal(np.signbit(got_cols.imag), np.signbit(cols.imag))


def test_zero_entries_are_omitted():
    space = TruncatedFockSpace(2, 2, 1)
    doc = jsonio.symbol_to_json(scalar_symbol(space, [1.0, 0.0]))
    assert len(doc["entries"]) == 1


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"kind": "mystery"}',
        '{"kind": "symbol", "n": 2, "max_level": 2}',
        '{"kind": "symbol", "n": 0, "max_level": 2, "coeff_dim": 1, "entries": []}',
        '{"kind": "symbol", "n": 2, "max_level": 2, "coeff_dim": 1, "entries": [[99, 0, 1.0, 0.0]]}',
        '{"kind": "symbol", "n": 2, "max_level": 2, "coeff_dim": 1, "entries": [[0, 0, NaN, 0.0]]}',
        '{"kind": "pair", "n": 2, "dim": 1, "t": [[[1.0, 0.0]]], "w": [[1.0, 0.0]]}',
    ],
)
def test_malformed_documents_rejected(text):
    with pytest.raises(SchemaError):
        jsonio.loads(text)


def test_row_contraction_violation_is_schema_error():
    doc = (
        '{"kind": "pair", "n": 1, "dim": 1, "t": [[[2.0, 0.0]]], "w": [[1.0, 0.0]]}'
    )
    with pytest.raises(SchemaError):
        jsonio.loads(doc)
