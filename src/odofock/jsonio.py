"""Bit-exact JSON wire formats for operators, symbols, pairs, and subspaces.

Sparse objects store [row, col, re, im] quadruples with zero entries omitted
and indices ascending row-major; dense matrices are flat row-major lists of
[re, im] pairs. Serialization is canonical, so identical objects produce
byte-identical documents and doubles round-trip exactly.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

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
        _require(isinstance(doc[key], int), f"field {key!r} must be an integer")
    try:
        return TruncatedFockSpace(doc["n"], doc["max_level"], doc["coeff_dim"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def _sparse_entries(mat: CSC) -> list[list]:
    rows, cols, vals = mat.row_major()
    live = vals != 0
    rows, cols, vals = rows[live].tolist(), cols[live].tolist(), vals[live]
    return [list(entry) for entry in zip(rows, cols, vals.real.tolist(), vals.imag.tolist())]


def _read_entries(doc: dict, rows: int, cols: int) -> list[tuple[int, int, complex]]:
    _require("entries" in doc, "missing field 'entries'")
    raw = doc["entries"]
    _require(isinstance(raw, list), "'entries' must be a list")
    out = []
    seen = set()
    for item in raw:
        _require(
            isinstance(item, list) and len(item) == 4,
            "each entry must be [row, col, re, im]",
        )
        r, c, re, im = item
        _require(isinstance(r, int) and isinstance(c, int), "entry indices must be integers")
        _require(0 <= r < rows, f"entry row {r} out of range 0..{rows - 1}")
        _require(0 <= c < cols, f"entry column {c} out of range 0..{cols - 1}")
        _require((r, c) not in seen, f"entry ({r}, {c}) is repeated")
        seen.add((r, c))
        _require(
            isinstance(re, (int, float)) and isinstance(im, (int, float)),
            "entry values must be numbers",
        )
        _require(math.isfinite(re) and math.isfinite(im), "entry values must be finite")
        out.append((r, c, complex(re, im)))
    return out


def _dense_flat(mat: np.ndarray) -> list[list[float]]:
    flat = np.asarray(mat, dtype=complex).reshape(-1)
    return [[float(v.real), float(v.imag)] for v in flat]


def _read_dense(raw, rows: int, cols: int, what: str) -> np.ndarray:
    _require(isinstance(raw, list), f"{what} must be a list of [re, im] pairs")
    _require(len(raw) == rows * cols, f"{what} must have {rows * cols} entries")
    values = np.empty(rows * cols, dtype=complex)
    for i, item in enumerate(raw):
        _require(
            isinstance(item, list) and len(item) == 2,
            f"{what} entries must be [re, im] pairs",
        )
        re, im = item
        _require(
            isinstance(re, (int, float)) and isinstance(im, (int, float)),
            f"{what} values must be numbers",
        )
        _require(math.isfinite(re) and math.isfinite(im), f"{what} values must be finite")
        values[i] = complex(re, im)
    return values.reshape(rows, cols)


def symbol_to_json(symbol: Symbol) -> dict:
    doc = {"kind": "symbol", **_space_header(symbol.space)}
    doc["entries"] = _sparse_entries(symbol.csc)
    return doc


def operator_to_json(op: Operator) -> dict:
    _require(op.space is not None, "only operators on Fock spaces serialize")
    doc = {"kind": "operator", **_space_header(op.space)}
    doc["exact_below"] = op.exact_below
    doc["entries"] = _sparse_entries(op.csc)
    return doc


def pair_to_json(pair: ContractivePair) -> dict:
    return {
        "kind": "pair",
        "n": pair.t.n,
        "dim": pair.t.dim,
        "t": [_dense_flat(t) for t in pair.t.tuples],
        "w": _dense_flat(pair.w),
    }


def subspace_to_json(space: TruncatedFockSpace, columns: np.ndarray) -> dict:
    cols = np.asarray(columns, dtype=complex)
    _require(cols.shape[0] == space.dim, "subspace columns do not match the space dimension")
    return {
        "kind": "subspace",
        **_space_header(space),
        "columns": [_dense_flat(cols[:, j]) for j in range(cols.shape[1])],
    }


def to_json(obj) -> dict:
    if isinstance(obj, Symbol):
        return symbol_to_json(obj)
    if isinstance(obj, Operator):
        return operator_to_json(obj)
    if isinstance(obj, ContractivePair):
        return pair_to_json(obj)
    raise TypeError(f"no JSON form for {type(obj).__name__}")


def from_json(doc: Any):
    """Decode a wire document into the corresponding in-memory object."""
    _require(isinstance(doc, dict), "top-level JSON value must be an object")
    kind = doc.get("kind")
    _require(isinstance(kind, str), "missing or invalid 'kind'")
    if kind == "symbol":
        space = _read_space(doc)
        entries = _read_entries(doc, space.dim, space.coeff_dim)
        from .odometer import symbol_from_entries

        try:
            return symbol_from_entries(space, entries)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
    if kind == "operator":
        space = _read_space(doc)
        exact_below = doc.get("exact_below", space.max_level + 1)
        _require(isinstance(exact_below, int), "'exact_below' must be an integer")
        entries = _read_entries(doc, space.dim, space.dim)
        space.require_dense()
        # entries are distinct, so each value is stored as read, signed zeros included
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
        cols = np.hstack(
            [_read_dense(c, space.dim, 1, f"columns[{j}]") for j, c in enumerate(raw)]
        )
        return space, cols
    raise SchemaError(f"unknown kind {kind!r}")


def dumps(obj) -> str:
    doc = obj if isinstance(obj, dict) else to_json(obj)
    return json.dumps(doc, sort_keys=True, indent=1)


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
