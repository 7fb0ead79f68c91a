"""Seeded inputs for the four benchmark workloads, each with its expected verdict.

Everything here is plain numpy: no odofock import, so the inputs and their
expected outcomes are fixed before the program sees them. A workload is a
list of items; an item is one input (a symbol, a pair, a subspace or a CLI
command) plus the verdict that input must produce. `jobs.py` turns items
into program objects and runs them.

Sizes are fixed per workload and only the values vary with the seed, so the
cost of a pass does not depend on the seed.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("construct", "classify", "dilate_factor", "cli_session")

# About the seconds one pass took at the commit that defined the benchmark
# (2 cores, two OpenBLAS threads). A run makes round(seconds / this) passes, at least
# two, so every run of a workload does the same work at any speed of the
# program and its statistics always pool the same number of samples.
NOMINAL_PASS_S = {"construct": 11.0, "classify": 7.0, "dilate_factor": 5.0, "cli_session": 7.0}

TOL = 1e-10
LIFT_TOL = 1e-8  # the lift compares two truncations; criterion 07 uses 1e-8
SPECTRUM_TOL = 1e-9  # eigvals of a permutation-like block; criterion 09 uses 1e-9


def passes_for(workload: str, seconds: int) -> int:
    return max(2, round(seconds / NOMINAL_PASS_S[workload]))


# --------------------------------------------------------------------------
# Fock-space index arithmetic (independent of the program's own code)


def level_offset(n: int, m: int) -> int:
    return m if n == 1 else (n**m - 1) // (n - 1)


def num_words(n: int, max_level: int) -> int:
    return level_offset(n, max_level + 1)


def space_dim(n: int, max_level: int, d: int) -> int:
    return num_words(n, max_level) * d


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def phase(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.random()))


def _symbol(n, M, d, rows, cols, vals, family, isometric, nica, unitary, support):
    """Symbol item data: entries plus the verdicts the family guarantees."""
    vals = np.asarray(vals, dtype=complex)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    height = int(rows.max()) + 1
    coeff = np.zeros((height, d), dtype=complex)
    np.add.at(coeff, (rows, cols), vals)
    return {
        "n": n, "M": M, "d": d, "family": family,
        "rows": rows, "cols": cols, "vals": vals,
        "expect": {
            "isometric": isometric, "nica": nica, "unitary": unitary,
            "support": support,
            "symbol_norm": float(np.linalg.norm(coeff, 2)),
        },
    }


def constant_unitary(n, M, d, rng):
    u = haar_unitary(d, rng)
    p, q = np.nonzero(np.ones((d, d)))
    return _symbol(n, M, d, p, q, u[p, q], "constant_unitary", True, True, True, 0)


def ones_diagonal(n, M, rng, support):
    """d = 1, a seeded phase sent `support` levels up the all-ones diagonal."""
    row = level_offset(n, support)
    const = support == 0
    return _symbol(n, M, 1, [row], [0], [phase(rng)], "ones_diagonal", True, const, const,
                   support)


def weak_bishift(n, M, d, rng):
    """h_m -> phase_m * (ones^m, h_m): isometric, Nica only for d = 1."""
    rows = [level_offset(n, m) * d + m for m in range(d)]
    vals = [phase(rng) for _ in range(d)]
    return _symbol(n, M, d, rows, list(range(d)), vals, "weak_bishift", True, d == 1, d == 1,
                   d - 1)


def non_isometric(n, M, d, rng):
    """Support degree 2: a Toeplitz-like positive all-ones diagonal (the
    criterion-06 shape, whose map norm exceeds 1 + ||L||) plus small seeded
    mass on every other word of levels <= 2."""
    rows, cols, vals = [], [], []
    for w in range(level_offset(n, 3)):
        for p in range(d):
            for q in range(d):
                on_diag = w in (0, level_offset(n, 1), level_offset(n, 2)) and p == q
                if on_diag:
                    v = 0.8 + 0.4 * rng.random()
                else:
                    v = 0.1 * (rng.standard_normal() + 1j * rng.standard_normal())
                rows.append(w * d + p)
                cols.append(q)
                vals.append(v)
    return _symbol(n, M, d, rows, cols, vals, "non_isometric", False, False, False, 2)


def padded_shift(n, M, d, rng):
    """Constant shift h_p -> phase_p (vacuum, h_{p+1}); the last column is zero."""
    rows = list(range(1, d))
    vals = [phase(rng) for _ in range(d - 1)]
    item = _symbol(n, M, d, rows, list(range(d - 1)), vals, "padded_shift", True, True, False, 0)
    item["columns"] = list(range(d - 1))
    item["expect"]["surjectivity_defect"] = 1
    return item


# --------------------------------------------------------------------------
# construct: symbol -> build W -> verify -> norm -> adjoint -> JSON round trip

CONSTRUCT_RUNGS = (
    # id, n, M, d, family, norm. Families rotate across the ladder; the norm is
    # skipped at D=4095, where the dense SVD alone takes 33-39 s.
    ("D511", 2, 8, 1, "constant_unitary", True),
    ("D1023", 2, 9, 1, "non_isometric", True),
    # two more families at D=1023 put twelve norms above every other job of a
    # two-pass run, so the tail (ten jobs beyond it) is a norm, as on a user's
    # ladder, and not whichever memory-bound call happens to rank eleventh
    ("D1023-cu", 2, 9, 1, "constant_unitary", True),
    ("D1023-od", 2, 9, 1, "ones_diagonal", True),
    ("D2047", 2, 10, 1, "ones_diagonal", True),
    ("D2186", 3, 6, 2, "weak_bishift", True),
    ("D4095", 2, 11, 1, "ones_diagonal", False),
    # the smallest size the dense path refuses
    ("D16383", 2, 13, 1, "constant_unitary", False),
)

MAX_DENSE_DIM = 8192  # the program's documented dense limit; beyond it a refusal is expected


def _family(family, n, M, d, rng, support=1):
    if family == "constant_unitary":
        return constant_unitary(n, M, d, rng)
    if family == "ones_diagonal":
        return ones_diagonal(n, M, rng, support)
    if family == "weak_bishift":
        return weak_bishift(n, M, d, rng)
    return non_isometric(n, M, d, rng)


def gen_construct(rng):
    items = []
    for rid, n, M, d, family, norm in CONSTRUCT_RUNGS:
        # support 2 at D=4095 keeps the verified window (and its SVD) small
        sym = _family(family, n, M, d, rng, support=2 if M == 11 else 1)
        items.append({
            "id": rid, "kind": "rung", "symbol": sym, "norm": norm,
            "over_limit": space_dim(n, M, d) > MAX_DENSE_DIM,
        })
    return items


# --------------------------------------------------------------------------
# classify: accepted and rejected symbols, single checks, gallery, spectra


def gen_classify(rng):
    items = [
        {"id": "const-n3M6d2", "kind": "classify", "symbol": constant_unitary(3, 6, 2, rng)},
        {"id": "bishift-d3M7", "kind": "classify", "symbol": weak_bishift(2, 7, 3, rng)},
        {"id": "onesdiag-M9", "kind": "classify", "symbol": ones_diagonal(2, 9, rng, 1)},
        {"id": "shift-d5M5", "kind": "classify", "symbol": padded_shift(2, 5, 5, rng)},
        {"id": "checks-n2M8d2", "kind": "checks", "symbol": constant_unitary(2, 8, 2, rng)},
        {"id": "spectrum-M9L8", "kind": "spectrum", "symbol": ones_diagonal(2, 9, rng, 0),
         "level": 8},
        {"id": "gallery-bishift-d3M8", "kind": "gallery", "example": "weak_bishift",
         "d": 3, "M": 8},
        {"id": "gallery-shift-d5", "kind": "gallery", "example": "shift_symbol", "d": 5, "M": 3},
    ]
    # rejected symbols leave after the isometry test, which works on the
    # coefficients, so they run far beyond the dense limit
    for n, M, d in ((2, 12, 1), (2, 14, 1), (2, 16, 1), (3, 8, 1), (3, 9, 1)):
        items.append({"id": f"rejected-n{n}M{M}d{d}", "kind": "classify",
                      "symbol": non_isometric(n, M, d, rng)})
    items.append({"id": "nica-rejected-n2M8", "kind": "nica_refused",
                  "symbol": non_isometric(2, 8, 1, rng)})
    return items


# --------------------------------------------------------------------------
# dilate_factor: row contractions, pairs and subspaces, dense by nature


def strict_row_contraction(n, h, row_norm, rng):
    mats = [rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h)) for _ in range(n)]
    scale = row_norm / np.linalg.svd(np.hstack(mats), compute_uv=False)[0]
    return np.stack([scale * m for m in mats])


def creation_closed_columns(n, M, d, level, rng):
    """Columns S_mu v for |mu| <= M - level, v a seeded unit vector on `level`.

    Prepending mu (position mu_pos on level k) to the words of `level` keeps
    their order, so S_mu v is v copied to the block starting at position
    mu_pos * n**level of level + k.
    """
    width = n**level * d
    v = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    v /= np.linalg.norm(v)
    cols = []
    for k in range(M - level + 1):
        for mu_pos in range(n**k):
            start = (level_offset(n, level + k) + mu_pos * n**level) * d
            col = np.zeros(space_dim(n, M, d), dtype=complex)
            col[start:start + width] = v
            cols.append(col)
    return np.stack(cols, axis=1)


def levels_columns(n, M, d, lo):
    start = level_offset(n, lo) * d
    dim = space_dim(n, M, d)
    return np.eye(dim, dtype=complex)[:, start:]


def gen_dilate_factor(rng):
    items = []
    for n, h, L, r in ((2, 1, 8, 0.15), (2, 2, 8, 0.15), (3, 1, 6, 0.1)):
        # tail <= r**(2(L+1)) < 1e-12, so the kernel at level L is exact
        items.append({"id": f"strict-n{n}h{h}L{L}", "kind": "row_contraction",
                      "t": strict_row_contraction(n, h, r, rng), "level": L})
    for sid, sym, k, L in (
        ("pair-n2M6d1", constant_unitary(2, 6, 1, rng), 2, 8),
        ("pair-n2M5d2", constant_unitary(2, 5, 2, rng), 2, 8),
        ("pair-n3M4d1", constant_unitary(3, 4, 1, rng), 2, 6),
        ("pair-nonunitary-n2M6", non_isometric(2, 6, 1, rng), 2, 8),
    ):
        items.append({"id": sid, "kind": "pair", "symbol": sym, "k": k, "level": L})
    h = 3
    items.append({"id": "nonpure-h3", "kind": "nonpure_pair", "level": 8,
                  "t": np.stack([np.eye(h, dtype=complex), np.zeros((h, h), dtype=complex)]),
                  "w": haar_unitary(h, rng)})
    for n, M, d in ((2, 8, 1), (3, 4, 2)):
        items.append({"id": f"levels-n{n}M{M}d{d}", "kind": "subspace", "n": n, "M": M,
                      "d": d, "columns": levels_columns(n, M, d, 1),
                      "symbol": constant_unitary(n, M, d, rng),
                      "expect": {"wandering_dim": n * d}})
    for n, M, d in ((2, 9, 1), (3, 5, 2)):
        items.append({"id": f"generated-n{n}M{M}d{d}", "kind": "subspace", "n": n, "M": M,
                      "d": d, "columns": creation_closed_columns(n, M, d, 1, rng),
                      "symbol": None, "expect": {"wandering_dim": 1}})
    return items


# --------------------------------------------------------------------------
# cli_session: the README command sequence, one child process per command

GOLDEN_OMEGA = (1.0 - math.sqrt(5.0)) / 2.0


def golden_nica_residual(level: int) -> float:
    """Mass of the golden-ratio symbol above the vacuum, from its closed form."""
    c0 = math.sqrt(2.0 / (math.sqrt(5.0) + 3.0))
    return math.sqrt(sum((c0 * GOLDEN_OMEGA ** (p - 1)) ** 2 for p in range(1, level + 1)))


def gen_cli_session(rng):
    q = phase(rng)
    docs = {
        "wsym.json": ones_diagonal(2, 7, rng, 1),
        "pair.json": {"kind": "pair_from_symbol", "symbol": constant_unitary(2, 6, 1, rng),
                      "k": 2},
        "sub.json": {"kind": "subspace", "n": 2, "M": 5, "d": 1,
                     "columns": levels_columns(2, 5, 1, 1)},
        "const.json": constant_unitary(2, 5, 1, rng),
        "phase.json": ones_diagonal(2, 6, rng, 0),
    }
    golden_nica = golden_nica_residual(24)

    def cmd(cid, argv, exit_code, out=None, **expect):
        return {"id": cid, "kind": "command", "argv": argv, "exit": exit_code, "out": out,
                "expect": expect}

    items = [
        cmd("gen-golden", ["gen-example", "golden-ratio", "--terms", "60", "--level", "24",
                           "--out", "golden.json"], 0, out="golden.json"),
        cmd("check-isometry-golden", ["check", "isometry", "--symbol", "golden.json"], 0),
        cmd("check-nica-golden", ["check", "nica", "--symbol", "golden.json"], 1,
            residual={"nica_residual": golden_nica}),
        cmd("check-unitary-golden", ["check", "unitary", "--symbol", "golden.json"], 1),
        cmd("gen-bishift", ["gen-example", "weak-bishift", "--d", "3", "--out", "bishift.json"],
            0, out="bishift.json"),
        cmd("gen-shift", ["gen-example", "shift-symbol", "--d", "5"], 0),
        cmd("gen-adding", ["gen-example", "adding-machine", f"--q={q.real!r}{q.imag:+.17g}j",
                           "--size", "16"], 0),
        cmd("gen-golden8", ["gen-example", "golden-ratio", "--terms", "8", "--level", "8",
                            "--out", "golden8.json"], 0, out="golden8.json"),
        # README case with an empty window: the verdict is vacuous, so only the
        # named window is checked and the exit code is recorded, not judged
        cmd("check-representation-golden8",
            ["check", "representation", "--symbol", "golden8.json"], None, vacuous=True),
        cmd("build-w", ["build-w", "--symbol", "wsym.json", "--out", "w.json"], 0, out="w.json"),
        cmd("check-representation-w", ["check", "representation", "--symbol", "w.json"], 0),
        cmd("adjoint", ["adjoint", "--symbol", "bishift.json", "--out", "adj.json"], 0,
            out="adj.json"),
        cmd("dilate", ["dilate", "--pair", "pair.json", "--level", "6"], 0),
        cmd("lift", ["lift", "--pair", "pair.json", "--level", "6", "--out", "lift.json"], 0,
            out="lift.json"),
        cmd("factor", ["factor", "--subspace", "sub.json", "--symbol", "const.json",
                       "--out", "induced.json"], 0, out="induced.json"),
        cmd("spectrum", ["spectrum", "--symbol", "phase.json", "--level", "6", "--histogram"],
            0, eigenvalues=level_offset(2, 7)),
    ]
    return [{"id": "documents", "kind": "documents", "docs": docs}] + items


GENERATORS = {
    "construct": gen_construct,
    "classify": gen_classify,
    "dilate_factor": gen_dilate_factor,
    "cli_session": gen_cli_session,
}


def generate(workload: str, seed: int, pass_index: int = 0) -> list[dict]:
    """The workload's items for one pass; the same seed gives the same items.

    Each pass gets its own values (same sizes), so no pass repeats the
    inputs of another and nothing a run computes can be reused by a later pass.
    """
    stream = np.random.SeedSequence([int(seed), WORKLOADS.index(workload), pass_index])
    return GENERATORS[workload](np.random.default_rng(stream))


def warmup(workload: str) -> list[dict]:
    """Small seed-independent items run once, untimed, at the end of set-up."""
    rng = np.random.default_rng(0)
    if workload == "construct":
        return [{"id": "warmup", "kind": "rung", "symbol": constant_unitary(2, 6, 1, rng),
                 "norm": True, "over_limit": False}]
    if workload == "classify":
        return [{"id": "warmup", "kind": "classify", "symbol": constant_unitary(2, 4, 2, rng)},
                {"id": "warmup-spectrum", "kind": "spectrum",
                 "symbol": ones_diagonal(2, 5, rng, 0), "level": 4}]
    if workload == "dilate_factor":
        return [{"id": "warmup", "kind": "pair", "symbol": constant_unitary(2, 5, 1, rng),
                 "k": 2, "level": 6},
                {"id": "warmup-levels", "kind": "subspace", "n": 2, "M": 4, "d": 1,
                 "columns": levels_columns(2, 4, 1, 1), "symbol": constant_unitary(2, 4, 1, rng),
                 "expect": {"wandering_dim": 2}}]
    return [{"id": "warmup", "kind": "command", "argv": ["gen-example", "shift-symbol", "--d", "5"],
             "exit": 0, "out": None, "expect": {}}]


def canonical_bytes(value) -> bytes:
    """Exact byte encoding of generated items, arrays included bit for bit."""
    if isinstance(value, dict):
        return b"{" + b",".join(
            repr(k).encode() + b":" + canonical_bytes(value[k]) for k in sorted(value)
        ) + b"}"
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(canonical_bytes(v) for v in value) + b"]"
    if isinstance(value, np.ndarray):
        return f"array({value.dtype.str},{value.shape})".encode() + value.tobytes()
    return repr(value).encode()
