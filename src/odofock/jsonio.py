"""Bit-exact JSON wire formats for operators, symbols, pairs, and subspaces.

Sparse objects store [row, col, re, im] quadruples with zero entries omitted
and indices ascending row-major; dense matrices are flat row-major lists of
[re, im] pairs. Serialization is canonical, so identical objects produce
byte-identical documents and doubles round-trip exactly.

The text is what `json.dumps(doc, sort_keys=True, indent=1)` writes, but with
an `indent` set `json` skips its C encoder, so `dumps` lays the text out itself
and formats each table (equal-length lists of plain ints and finite floats,
such as `entries`) in one pass. The loader checks tables as whole arrays.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from typing import Any

import numpy as np

from .config import Check
from .csc import CSC
from .dilation import ContractivePair, RowContraction
from .errors import SchemaError
from .fock import Operator, TruncatedFockSpace
from .odometer import Symbol


def _require(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _space_header(space: TruncatedFockSpace) -> dict:
    return {"n": space.n, "max_level": space.max_level, "coeff_dim": space.coeff_dim}


def _read_space(doc: dict) -> TruncatedFockSpace:
    for key in ("n", "max_level", "coeff_dim"):
        _require(key in doc, f"missing field {key!r}")
        # `type(...) is int` also refuses JSON booleans, which Python reads as ints
        _require(type(doc[key]) is int, f"field {key!r} must be an integer")
    try:
        return TruncatedFockSpace(doc["n"], doc["max_level"], doc["coeff_dim"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _sparse_entries(mat: CSC) -> list[list]:
    rows, cols, vals = mat.row_major()
    live = vals != 0
    rows, cols, vals = rows[live].tolist(), cols[live].tolist(), vals[live]
    return list(map(list, zip(rows, cols, vals.real.tolist(), vals.imag.tolist())))


def _flat_rows(raw: list, width: int, message: str) -> list:
    """The items of `raw`, a list of `width`-item lists, row after row."""
    _require(set(map(type, raw)) <= {list} and set(map(len, raw)) <= {width}, message)
    return list(chain.from_iterable(raw))


def _floats(values: list, what: str) -> np.ndarray:
    _require(set(map(type, values)) <= {int, float}, f"{what} values must be numbers")
    try:
        out = np.array(values, dtype=float)
    except OverflowError:  # an integer literal beyond float range
        raise SchemaError(f"{what} values must be finite") from None
    _require(bool(np.isfinite(out).all()), f"{what} values must be finite")
    return out


def _read_entries(doc: dict, shape: tuple[int, int]) -> CSC:
    _require("entries" in doc, "missing field 'entries'")
    _require(isinstance(doc["entries"], list), "'entries' must be a list")
    flat = _flat_rows(doc["entries"], 4, "each entry must be [row, col, re, im]")
    index = (flat[0::4], flat[1::4])
    _require(set(map(type, index[0] + index[1])) <= {int}, "entry indices must be integers")
    for name, idx, bound in zip(("row", "column"), index, shape):
        if idx and (min(idx) < 0 or max(idx) >= bound):
            bad = next(i for i in idx if not 0 <= i < bound)
            raise SchemaError(f"entry {name} {bad} out of range 0..{bound - 1}")
    rows, cols = (np.array(idx, dtype=np.int64) for idx in index)
    first = np.unique(rows * shape[1] + cols, return_index=True)[1]
    if first.size < rows.size:
        k = np.setdiff1d(np.arange(rows.size), first)[0]  # first to repeat an earlier one
        raise SchemaError(f"entry ({rows[k]}, {cols[k]}) is repeated")
    re, im = _floats(flat[2::4] + flat[3::4], "entry").reshape(2, -1)
    vals = re.astype(complex)
    vals.imag = im  # set in place: re + 1j * im would turn an imaginary -0.0 into +0.0
    return CSC.from_triplets(rows, cols, vals, shape)


def _dense_flat(mat: np.ndarray) -> list[list[float]]:
    flat = np.asarray(mat, dtype=complex).reshape(-1)
    return np.column_stack((flat.real, flat.imag)).tolist()


def _read_dense(raw, rows: int, cols: int, what: str) -> np.ndarray:
    _require(isinstance(raw, list), f"{what} must be a list of [re, im] pairs")
    _require(len(raw) == rows * cols, f"{what} must have {rows * cols} entries")
    flat = _flat_rows(raw, 2, f"{what} entries must be [re, im] pairs")
    # interleaved re, im float64 pairs are complex128 values, signed zeros included
    return _floats(flat, what).view(complex).reshape(rows, cols)


def symbol_to_json(symbol: Symbol) -> dict:
    return {"kind": "symbol", **_space_header(symbol.space), "entries": _sparse_entries(symbol.csc)}


def operator_to_json(op: Operator) -> dict:
    return {"kind": "operator", **_space_header(op.space), "exact_below": op.exact_below,
            "entries": _sparse_entries(op.csc)}


def pair_to_json(pair: ContractivePair) -> dict:
    tuples = [_dense_flat(t) for t in pair.t.tuples]
    return {"kind": "pair", "n": pair.t.n, "dim": pair.t.dim, "t": tuples, "w": _dense_flat(pair.w)}


def subspace_to_json(space: TruncatedFockSpace, columns: np.ndarray) -> dict:
    cols = np.asarray(columns, dtype=complex)
    _require(cols.shape[0] == space.dim, "subspace columns do not match the space dimension")
    return {"kind": "subspace", **_space_header(space),
            "columns": [_dense_flat(cols[:, j]) for j in range(cols.shape[1])]}


def to_plain(value):
    """`value` in plain JSON values: numpy scalars as Python ones, complex numbers
    as [re, im], NaN as null, and a check as its name, residual, tolerance and
    passed, with its window and error when set."""
    if isinstance(value, Check):
        optional = {"window": value.window, "error": value.error}
        value = {"name": value.name, "residual": value.residual, "tolerance": value.tolerance,
                 "passed": value.passed, **{k: v for k, v in optional.items() if v is not None}}
    if isinstance(value, dict):
        return {k: to_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_plain(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, float)):
        return None if math.isnan(value) else float(value)
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()
    return value


def to_json(obj) -> dict:
    for kind, write in ((Symbol, symbol_to_json), (Operator, operator_to_json),
                        (ContractivePair, pair_to_json)):
        if isinstance(obj, kind):
            return write(obj)
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def from_json(doc: Any):
    """Decode a wire document into the corresponding in-memory object."""
    _require(isinstance(doc, dict), "top-level JSON value must be an object")
    kind = doc.get("kind")
    _require(isinstance(kind, str), "missing or invalid 'kind'")
    if kind == "symbol":
        space = _read_space(doc)
        return Symbol(space, _read_entries(doc, (space.dim, space.coeff_dim)))
    if kind == "operator":
        space = _read_space(doc)
        space.require_dense()
        exact_below = doc.get("exact_below", space.max_level + 1)
        _require(type(exact_below) is int, "'exact_below' must be an integer")
        _require(0 <= exact_below <= space.max_level + 1,
                 f"'exact_below' must lie in 0..{space.max_level + 1}")
        return Operator(_read_entries(doc, (space.dim, space.dim)), space, exact_below)
    if kind == "pair":
        for key in ("n", "dim"):
            _require(type(doc.get(key)) is int, f"field {key!r} must be an integer")
        n, h = doc["n"], doc["dim"]
        _require(n >= 1 and h >= 1, "'n' and 'dim' must be positive")
        _require(isinstance(doc.get("t"), list) and len(doc["t"]) == n, f"'t' must list {n} matrices")
        tuples = [_read_dense(raw, h, h, f"t[{i}]") for i, raw in enumerate(doc["t"])]
        w = _read_dense(doc.get("w"), h, h, "w")
        try:
            return ContractivePair(RowContraction(tuple(tuples)), w)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    if kind == "subspace":
        space = _read_space(doc)
        raw = doc.get("columns")
        _require(isinstance(raw, list) and raw, "'columns' must be a non-empty list")
        cols = [_read_dense(c, space.dim, 1, f"columns[{j}]") for j, c in enumerate(raw)]
        return space, np.hstack(cols)
    raise SchemaError(f"unknown kind {kind!r}")


_scalar = json.JSONEncoder().encode


def _key(key) -> str:
    if not isinstance(key, (str, int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
    return _scalar(key if isinstance(key, str) else _scalar(key))


def _table(rows: list | tuple, pad: str) -> str | None:
    """`rows` as `json` lays them out at `pad` if they form a table, else None."""
    widths = set(map(len, rows)) if set(map(type, rows)) <= {list, tuple} else ()
    cells = tuple(chain.from_iterable(rows)) if len(widths) == 1 else ()
    if not cells or not set(map(type, cells)) <= {int, float}:
        return None
    row = "[" + pad + "  " + ("," + pad + "  ").join(["%r"] * widths.pop()) + pad + " ]"
    text = ("[" + pad + " " + ("," + pad + " ").join([row] * len(rows)) + pad + "]") % cells
    # `%r` writes ints and finite floats as `json` does; nan and inf, which it
    # writes as NaN and Infinity, are the only cells that put an "n" in the text
    return None if "n" in text else text


def _text(value, pad: str) -> str:
    """`value` as `json.dumps(..., sort_keys=True, indent=1)` writes it at the
    indent of `pad` (a newline and one space per level)."""
    inner = pad + " "
    if isinstance(value, (list, tuple)):
        table = _table(value, pad) if value else "[]"
        return table or "[" + inner + ("," + inner).join(_text(v, inner) for v in value) + pad + "]"
    if isinstance(value, dict):
        items = [_key(k) + ": " + _text(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    return _scalar(value)


def dumps(obj) -> str:
    """The canonical text of a document or object."""
    return _text(obj if isinstance(obj, dict) else to_json(obj), "\n")


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    return from_json(doc)


def dump_path(obj, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load_path(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())
