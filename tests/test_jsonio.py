"""Wire-format round trips and validation."""

import copy
import json

import numpy as np
import pytest
from helpers import (
    random_pure_row_contraction,
    random_symbol,
    reference_dumps,
    reference_from_json,
    same_bits,
    same_csc,
    small_spaces,
    symbol_of_kind,
)
from hypothesis import given
from hypothesis import strategies as st

from odofock import (
    ContractivePair,
    DimensionLimitError,
    Operator,
    RowContraction,
    SchemaError,
    Symbol,
    TruncatedFockSpace,
    adjoint_isometric,
    build_odometer,
    gallery_weak_bishift,
    scalar_symbol,
)
from odofock import jsonio
from odofock.cli import Report
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


# --------------------------------------------------------------------------
# the canonical writer against the standard library's indented encoder

extreme_floats = st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16]
)
plain_numbers = st.one_of(
    st.integers(), st.floats(allow_nan=False, allow_infinity=False), extreme_floats,
    st.sampled_from([2**53 + 1, -(10**400)]),
)
json_scalars = st.one_of(
    st.none(), st.booleans(), plain_numbers, st.floats(),
    st.text(), st.sampled_from(['"\\\\/', "\b\f\n\r\t\x00\x1f", "é€\U0001f600", " "]),
)
# tables as the wire formats hold them, ragged or mixed lists of lists, and
# rows holding booleans, None, NaN or strings, which are no tables
tables = st.integers(0, 4).flatmap(
    lambda k: st.lists(st.lists(plain_numbers, min_size=k, max_size=k), max_size=6)
)
ragged = st.lists(st.lists(plain_numbers, max_size=4), max_size=5)
mixed_rows = st.lists(st.lists(json_scalars, min_size=2, max_size=2), max_size=4)
json_values = st.recursive(
    json_scalars | tables | ragged | mixed_rows,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    | st.tuples(inner, inner),
    max_leaves=30,
)
checks = st.fixed_dictionaries(
    {"name": st.text(max_size=12), "residual": st.none() | st.floats(),
     "tolerance": st.none() | st.floats(), "passed": st.booleans()},
    optional={"window": st.integers(-1, 12), "error": st.text(max_size=20)},
)
reports = st.fixed_dictionaries({
    "command": st.text(max_size=12),
    "parameters": st.dictionaries(st.text(max_size=8), json_values, max_size=4),
    "checks": st.lists(checks, max_size=5),
    "passed": st.booleans(),
    "levels": st.lists(st.fixed_dictionaries({"level": st.integers(0, 9), "eigenvalues": tables}),
                       max_size=3),
})


@given(st.one_of(json_values.map(lambda v: {"value": v}), reports,
                 st.dictionaries(st.text(), json_values, max_size=6)))
def test_writer_matches_the_standard_encoder(doc):
    assert jsonio.dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize("doc", [
    {"value": object()},
    {"value": np.int64(1)},
    {"value": [[1, np.float32(0.5)]]},
    {(1, 2): 0},
    {"a": 1, 2: 0},
])
def test_writer_refuses_what_the_standard_encoder_refuses(doc):
    with pytest.raises(TypeError) as expected:
        reference_dumps(doc)
    with pytest.raises(TypeError) as got:
        jsonio.dumps(doc)
    assert str(got.value) == str(expected.value)


def test_writer_keeps_non_string_keys_as_the_standard_encoder_does():
    doc = {True: 1, 2.5: [], None: {}, 7: -0.0, float("nan"): 1, float("-inf"): 2}
    # keys of different types do not sort; one at a time, each as json converts it
    for key, value in doc.items():
        assert jsonio.dumps({key: value}) == reference_dumps({key: value})


def test_cli_reports_are_what_the_standard_encoder_writes(tmp_path, capsys):
    space = TruncatedFockSpace(2, 4, 1)
    path = str(tmp_path / "phase.json")
    jsonio.dump_path(scalar_symbol(space, [np.exp(0.7j)]), path)
    for argv in (["spectrum", "--symbol", path, "--level", "3", "--histogram"],
                 ["check", "nica", "--symbol", path],
                 ["gen-example", "shift-symbol", "--d", "3"]):
        cli_main(argv)
        out = capsys.readouterr().out
        assert out == reference_dumps(json.loads(out)) + "\n"
    report = Report("edge", {"big": 10**400, "z": -0.0, "tiny": 5e-324})
    report.add("infinite", float("inf"), 1e-10)
    report.add("vacuous", float("nan"), 1e-10)
    report.add("signed", -0.0, float("inf"), True, window=-1)
    assert report.finish({"table": [[1.0, -0.0], [float("inf"), 2]]}) == 1
    out = capsys.readouterr().out
    assert "Infinity" in out and "null" in out and "-0.0" in out
    assert out == reference_dumps(json.loads(out)) + "\n"


# --------------------------------------------------------------------------
# the loader against the per-entry loader

wire_numbers = st.one_of(
    st.floats(-4.0, 4.0), st.integers(-3, 3), st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
)
big_numbers = st.sampled_from([2**53 + 1, 10**300, -(10**300), 1.7976931348623157e308])


def outcome(load, doc):
    """What a loader makes of a document: the object, or its error and message."""
    try:
        return load(doc)
    except (SchemaError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def same_result(got, expected) -> bool:
    if isinstance(expected, tuple) and isinstance(expected[0], str):
        return got == expected
    if isinstance(expected, (Symbol, Operator)):
        same_window = getattr(got, "exact_below", None) == getattr(expected, "exact_below", None)
        return (type(got) is type(expected) and got.space == expected.space and same_window
                and got.csc.indices.dtype == expected.csc.indices.dtype
                and same_csc(got.matrix, expected.matrix))
    if isinstance(expected, ContractivePair):
        return (same_bits(got.w, expected.w)
                and all(map(same_bits, got.t.tuples, expected.t.tuples)))
    return got[0] == expected[0] and same_bits(got[1], expected[1])


@st.composite
def wire_documents(draw):
    """Valid documents of every kind, entries in any order, explicit and signed
    zeros, integer values and doubles at the ends of the range."""
    kind = draw(st.sampled_from(["symbol", "operator", "pair", "subspace"]))
    values = st.one_of(wire_numbers, big_numbers) if kind != "pair" else wire_numbers
    if kind == "pair":
        n, h = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        dense = st.lists(st.lists(values.map(lambda v: v / 8), min_size=2, max_size=2),
                         min_size=h * h, max_size=h * h)
        return {"kind": "pair", "n": n, "dim": h, "t": draw(st.lists(dense, min_size=n, max_size=n)),
                "w": draw(st.lists(st.lists(values, min_size=2, max_size=2),
                                   min_size=h * h, max_size=h * h))}
    space = draw(small_spaces)
    doc = {"kind": kind, "n": space.n, "max_level": space.max_level, "coeff_dim": space.coeff_dim}
    if kind == "subspace":
        column = st.lists(st.lists(values, min_size=2, max_size=2),
                          min_size=space.dim, max_size=space.dim)
        doc["columns"] = draw(st.lists(column, min_size=1, max_size=3))
        return doc
    cols = space.coeff_dim if kind == "symbol" else space.dim
    coords = draw(st.lists(st.tuples(st.integers(0, space.dim - 1), st.integers(0, cols - 1)),
                           unique=True, max_size=12))
    doc["entries"] = [[r, c, draw(values), draw(values)] for r, c in coords]
    if kind == "operator" and draw(st.booleans()):
        doc["exact_below"] = draw(st.integers(0, space.max_level + 1))
    return doc


@given(wire_documents())
def test_loader_matches_the_per_entry_loader(doc):
    wire = json.loads(json.dumps(doc))
    assert same_result(outcome(jsonio.from_json, wire), outcome(reference_from_json, wire))


def base_documents():
    symbol = {"kind": "symbol", "n": 2, "max_level": 2, "coeff_dim": 2,
              "entries": [[0, 0, 1.0, 0.0], [3, 1, -0.5, 2], [5, 0, 0.0, -0.0],
                          [13, 1, 0.25, 1.5], [2, 1, -3, 0.125]]}
    operator = dict(symbol, kind="operator", coeff_dim=1, exact_below=2,
                    entries=[[0, 1, 1.0, 0.0], [6, 2, -0.5, 2], [1, 3, 0.0, -0.0],
                             [4, 4, 0.25, 1.5], [2, 0, -3, 0.125]])
    pair = {"kind": "pair", "n": 2, "dim": 2,
            "t": [[[0.1, 0.0], [0.0, -0.0], [0.2, 0.1], [0, 0]] for _ in range(2)],
            "w": [[1.0, 0.0], [0.0, 1.0], [-1, 0.5], [2.5, -0.0]]}
    subspace = {"kind": "subspace", "n": 1, "max_level": 2, "coeff_dim": 1,
                "columns": [[[1.0, 0.0], [0, -0.0], [0.5, 0.5]], [[0.0, 1.0], [2, 0], [0, 0]]]}
    return {"symbol": symbol, "operator": operator, "pair": pair, "subspace": subspace}


def _entry_faults():
    for kind, (rows, cols) in (("symbol", (14, 2)), ("operator", (7, 7))):
        for at in (0, 2, 4):
            def entry(value, slot=None, at=at):
                def fault(doc):
                    if slot is None:
                        doc["entries"][at] = value
                    else:
                        doc["entries"][at][slot] = value
                return fault
            yield kind, f"entry {at} not a list", entry("x")
            yield kind, f"entry {at} short", entry([0, 0, 1.0])
            yield kind, f"entry {at} long", entry([0, 0, 1.0, 0.0, 0.0])
            yield kind, f"entry {at} float row", entry(1.5, 0)
            yield kind, f"entry {at} string column", entry("1", 1)
            yield kind, f"entry {at} row -1", entry(-1, 0)
            yield kind, f"entry {at} row {rows}", entry(rows, 0)
            yield kind, f"entry {at} huge row", entry(10**30, 0)
            yield kind, f"entry {at} column {cols}", entry(cols, 1)
            yield kind, f"entry {at} column -4", entry(-4, 1)
            yield kind, f"entry {at} string value", entry("1.0", 2)
            yield kind, f"entry {at} null value", entry(None, 3)
            yield kind, f"entry {at} list value", entry([1.0], 2)
            yield kind, f"entry {at} NaN", entry(float("nan"), 2)
            yield kind, f"entry {at} infinity", entry(float("inf"), 3)
            yield kind, f"entry {at} -infinity", entry(float("-inf"), 2)

            def repeat(doc, at=at):
                doc["entries"][at][:2] = doc["entries"][1][:2]
            yield kind, f"entry {at} repeats entry 1", repeat
        yield kind, "no entries", lambda doc: doc.pop("entries")
        yield kind, "entries not a list", lambda doc: doc.update(entries={"0": 1})
        yield kind, "n missing", lambda doc: doc.pop("n")
        yield kind, "max_level a string", lambda doc: doc.update(max_level="2")
        yield kind, "coeff_dim a float", lambda doc: doc.update(coeff_dim=1.0)
        yield kind, "n zero", lambda doc: doc.update(n=0)
    yield "operator", "exact_below a string", lambda doc: doc.update(exact_below="2")
    yield "operator", "exact_below too large", lambda doc: doc.update(exact_below=9)


def _dense_faults():
    def value(path, slot, v):
        return lambda doc: _at(doc, path).__setitem__(slot, v)

    for where, path in (("w", ("w",)), ("t[1]", ("t", 1)), ("columns[1]", ("columns", 1))):
        kind = "subspace" if where.startswith("columns") else "pair"
        for at in (0, 2):
            yield kind, f"{where}[{at}] not a pair", value(path, at, [1.0])
            yield kind, f"{where}[{at}] a number", value(path, at, 1.0)
            yield kind, f"{where}[{at}] a string value", value(path + (at,), 1, "0")
            yield kind, f"{where}[{at}] NaN", value(path + (at,), 0, float("nan"))
            yield kind, f"{where}[{at}] infinity", value(path + (at,), 1, float("-inf"))
        yield kind, f"{where} short", lambda doc, path=path: _at(doc, path).pop()
        yield kind, f"{where} not a list", value(path[:-1], path[-1], {"re": 1.0})
    yield "pair", "t short", lambda doc: doc["t"].pop()
    yield "pair", "w missing", lambda doc: doc.pop("w")
    yield "pair", "dim a string", lambda doc: doc.update(dim="2")
    yield "pair", "n zero", lambda doc: doc.update(n=0)
    yield "pair", "not a row contraction", lambda doc: doc["t"][0].__setitem__(0, [2.0, 0.0])
    yield "subspace", "no columns", lambda doc: doc.update(columns=[])


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


single_faults = [*_entry_faults(), *_dense_faults()]


@pytest.mark.parametrize("kind, label, fault", single_faults,
                         ids=[f"{kind}: {label}" for kind, label, _ in single_faults])
def test_single_fault_documents_get_the_per_entry_loaders_message(kind, label, fault):
    doc = copy.deepcopy(base_documents()[kind])
    assert same_result(jsonio.from_json(copy.deepcopy(doc)), reference_from_json(doc))
    fault(doc)
    expected = outcome(reference_from_json, doc)
    assert isinstance(expected, tuple) and isinstance(expected[0], str), label
    assert outcome(jsonio.from_json, doc) == expected


# --------------------------------------------------------------------------
# booleans, integers beyond float range and oversized operators

@pytest.mark.parametrize("kind, fault, message", [
    ("symbol", lambda doc: doc.update(n=True), "field 'n' must be an integer"),
    ("symbol", lambda doc: doc.update(max_level=True), "field 'max_level' must be an integer"),
    ("operator", lambda doc: doc.update(coeff_dim=True), "field 'coeff_dim' must be an integer"),
    ("operator", lambda doc: doc.update(exact_below=True), "'exact_below' must be an integer"),
    ("pair", lambda doc: doc.update(dim=True), "field 'dim' must be an integer"),
    ("symbol", lambda doc: doc["entries"][1].__setitem__(0, True), "entry indices must be integers"),
    ("operator", lambda doc: doc["entries"][0].__setitem__(1, False),
     "entry indices must be integers"),
    ("symbol", lambda doc: doc["entries"][2].__setitem__(2, True), "entry values must be numbers"),
    ("pair", lambda doc: doc["w"][1].__setitem__(1, False), "w values must be numbers"),
    ("subspace", lambda doc: doc["columns"][0][0].__setitem__(0, True),
     "columns[0] values must be numbers"),
])
def test_booleans_are_not_numbers(kind, fault, message):
    doc = base_documents()[kind]
    fault(doc)
    with pytest.raises(SchemaError) as exc:
        jsonio.from_json(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("command, document, message", [
    (["check", "isometry", "--symbol"],
     '{"kind": "symbol", "n": true, "max_level": 2, "coeff_dim": 1, "entries": [[0, 0, 1.0, 0.0]]}',
     "field 'n' must be an integer"),
    (["check", "isometry", "--symbol"],
     '{"kind": "symbol", "n": 2, "max_level": 2, "coeff_dim": 1, "entries": [[true, 0, 1.0, 0.0]]}',
     "entry indices must be integers"),
    (["check", "isometry", "--symbol"],
     '{"kind": "symbol", "n": 2, "max_level": 2, "coeff_dim": 1, "entries": [[0, 0, true, 0.0]]}',
     "entry values must be numbers"),
    (["check", "isometry", "--symbol"],
     '{"kind": "symbol", "n": 2, "max_level": 2, "coeff_dim": 1, "entries": [[0, 0, 1'
     + "0" * 400 + ', 0.0]]}',
     "entry values must be finite"),
    (["dilate", "--level", "4", "--pair"],
     '{"kind": "pair", "n": 1, "dim": 1, "t": [[[0.5, 0.0]]], "w": [[-1' + "0" * 400 + ", 0]]}",
     "w values must be finite"),
    (["check", "representation", "--symbol"],
     '{"kind": "operator", "n": 2, "max_level": 13, "coeff_dim": 1, "entries": "unread"}',
     "exceeds the dense-matrix limit"),
])
def test_malformed_documents_exit_two(tmp_path, capsys, command, document, message):
    path = tmp_path / "doc.json"
    path.write_text(document)
    assert cli_main([*command, str(path)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and not captured.out


def test_integers_beyond_float_range_are_malformed():
    big = "1" + "0" * 400
    symbol = ('{"kind": "symbol", "n": 2, "max_level": 2, "coeff_dim": 1, '
              f'"entries": [[0, 0, {big}, 0.0]]}}')
    with pytest.raises(OverflowError):
        reference_from_json(json.loads(symbol))
    with pytest.raises(SchemaError, match="entry values must be finite"):
        jsonio.loads(symbol)
    pair = f'{{"kind": "pair", "n": 1, "dim": 1, "t": [[[0.5, -{big}]]], "w": [[1.0, 0.0]]}}'
    with pytest.raises(SchemaError, match=r"t\[0\] values must be finite"):
        jsonio.loads(pair)


def test_oversized_operators_are_refused_before_their_entries_are_read(monkeypatch):
    def unread(*args):
        raise AssertionError("entries read for an operator over the dense limit")

    monkeypatch.setattr(jsonio, "_read_entries", unread)
    doc = {"kind": "operator", "n": 2, "max_level": 13, "coeff_dim": 1, "exact_below": "x",
           "entries": [[0, 0, 1.0, 0.0]] * 3}
    with pytest.raises(DimensionLimitError):
        jsonio.from_json(doc)
