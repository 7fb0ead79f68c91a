"""Named example constructors and the spectrum of unitary odometer maps.

The gallery holds four families: the phase-twisted adding machine on the
half-line sequence space (kept outside the Fock indexing, with its own index
window), the block-diagonal weak bi-shift, the vacuum shift symbol with a
padded boundary column, and the golden-ratio coefficient sequence. Spectrum
reports read each level block of a constant unitary symbol's W off its
stored entries, certify it as one cycle of the carry closed by the level-0
block, take its eigenvalues as roots of the cycle product, spot-check
eigenpairs by matvec, and compare them against the root sets predicted from
the symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classify import ClassificationReport, check_unitary, classify, level0_block
from .config import Check, Verdict, resolve_tol
from .csc import CSC
from .errors import CertificateError, NotUnitaryError
from .fock import TruncatedFockSpace, apply_annihilation
from .linalg import max_angular_gap, op_norm
from .odometer import Symbol, build_odometer, constant_symbol, scalar_symbol, symbol_from_entries


@dataclass(frozen=True)
class LevelSpectrum:
    """One level block's eigenvalues (read off W), the roots predicted from the
    symbol, their Hausdorff distance, and the largest eigenpair residual of the
    spot check by matvec."""

    level: int
    eigenvalues: np.ndarray
    predicted: np.ndarray
    hausdorff: float
    eigpair_residual: float


@dataclass(frozen=True)
class SpectrumReport(Verdict):
    per_level: tuple[LevelSpectrum, ...]
    max_gap: float
    unimodularity_residual: float


# eigenpairs each level's matvec spot check tests at most
EIGPAIR_SAMPLES = 32


def _roots(values: np.ndarray, order: int) -> np.ndarray:
    """The order-th roots of each value, value-major: row i holds the roots of values[i]."""
    principal = np.abs(values) ** (1.0 / order) * np.exp(1j * np.angle(values) / order)
    return np.outer(principal, np.exp(2j * np.pi * np.arange(order) / order)).ravel()


def _ring_hausdorff(mu: np.ndarray, u: np.ndarray, order: int) -> float:
    """Hausdorff distance between the order-th roots of the values `mu` and of `u`.

    The roots of each value form a ring of `order` equally spaced points that
    a turn by 2 pi / order maps onto itself, so every point of the ring of
    mu_a lies at one distance from the ring of u_b: |r_a - r_b e^(i delta)|,
    with r = |.|^(1/order) and delta = (arg u_b - arg mu_a) / order wrapped
    into [-pi/order, pi/order). The distance takes O(|mu| |u|) work.
    """
    turns = (np.angle(u)[None, :] - np.angle(mu)[:, None]) / (2.0 * np.pi)
    delta = (turns - np.floor(turns + 0.5)) * (2.0 * np.pi / order)
    ra = np.abs(mu)[:, None] ** (1.0 / order)
    rb = np.abs(u)[None, :] ** (1.0 / order)
    dist = np.abs(ra - rb * np.exp(1j * delta))
    return float(np.maximum(dist.min(axis=1).max(), dist.min(axis=0).max()))


def _level_cycle_spectrum(
    space: TruncatedFockSpace, w: CSC, level: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Eigenvalues mu of the cycle product and those of W's level block, from its
    cycle certificate, and the largest residual ||W_m v - lambda v|| over a spot
    check of unit eigenvectors.

    The stored entries of W on the level's rows and columns must send each
    column word into exactly one row word, and that word map must be one
    N = n^m cycle through position 0; otherwise `CertificateError` carries the
    failing check `level_<m>_certificate`. Along the cycle x_0 -> x_1 -> ...
    -> x_{N-1} -> x_0 with d x d blocks B_k, the block is a cyclic block shift
    up to the order of the words, whose characteristic polynomial is
    det(lambda^N - P) for P = B_{N-1}...B_0. So the eigenvalues are the N-th
    roots of those of P, with eigenvector v_j = lambda^(-j) B_{j-1}...B_0 u on
    x_j for P u = lambda^N u.
    """
    d, size = space.coeff_dim, space.n**level
    sl = space.level_slice(level)
    block = w[sl, sl]
    row_word, row_coord = np.divmod(block.indices, d)
    col_word, col_coord = np.divmod(block.entry_cols, d)
    succ = np.full(size, -1, dtype=np.int64)
    succ[col_word] = row_word
    refused = (Check(f"level_{level}_certificate", None, 0.0, level, verdict=False),)
    if (succ < 0).any() or (succ[col_word] != row_word).any():
        raise CertificateError(f"level {level}: a column word of W does not map into one row word",
                               refused)
    # order[k] = succ^k(0): each pass doubles the known prefix, jumping it 2^i steps
    order, jump = np.zeros(1, dtype=np.int64), succ
    while order.size < size:
        order, jump = np.concatenate([order, jump[order]]), jump[jump]
    order = order[:size]
    if np.unique(order).size != size or succ[order[-1]] != 0:
        raise CertificateError(f"level {level}: the carry of W is not one {size}-cycle", refused)
    place = np.empty(size, dtype=np.int64)
    place[order] = np.arange(size)
    blocks = np.zeros((size, d, d), dtype=complex)
    blocks[place[col_word], row_coord, col_coord] = block.data
    # prefix[k] = B_k ... B_0 by doubling scans
    prefix, step = blocks, 1
    while step < size:
        prefix = np.concatenate([prefix[:step], prefix[step:] @ prefix[:-step]])
        step *= 2
    mu, u = np.linalg.eig(prefix[-1])
    eigs = _roots(mu, size)

    samples = min(EIGPAIR_SAMPLES, eigs.size)
    picked = np.unique(np.linspace(0, eigs.size - 1, samples).round().astype(np.int64))
    lam = eigs[picked]
    # C_j u for C_0 = I and C_j = B_{j-1}...B_0, then the powers of lambda
    carried = np.concatenate([u[None], prefix[:-1] @ u])[:, :, picked // size]
    vecs = np.zeros((size * d, lam.size), dtype=complex)
    coords = (order[:, None] * d + np.arange(d)).ravel()
    steps = np.arange(size)[:, None, None]
    powers = np.abs(lam) ** -steps * np.exp(-1j * np.angle(lam) * steps)
    vecs[coords] = (carried * powers).reshape(size * d, -1)
    vecs /= np.linalg.norm(vecs, axis=0)
    residual = np.linalg.norm(block @ vecs - vecs * lam, axis=0).max()
    return mu, eigs, float(residual)


def spectrum_per_level(
    symbol: Symbol, max_level: int | None = None, tol: float | None = None
) -> SpectrumReport:
    """Eigenvalues of each level block of a constant unitary odometer map.

    Constant symbols preserve levels. Each level-m block of W, read off its
    stored entries, is certified to be one n^m-cycle of d x d blocks, the
    carry's identities closed by the level-0 block U on the all-n column;
    its eigenvalues are the n^m-th roots of the eigenvalues of the product
    of the blocks around the cycle, one d x d eigensolve per level. A matvec
    with W checks up to `EIGPAIR_SAMPLES` evenly spaced eigenpairs of the
    closed-form eigenvectors (`eigpair_residual`, for unit vectors). The
    prediction is the n^m-th roots of eig(U), taken from the symbol and not
    from W, and `hausdorff` is their distance to the eigenvalues, taken from
    the d x d distances between their rings of roots. Each `LevelSpectrum`
    holds level, eigenvalues, predicted, hausdorff and eigpair_residual; the
    report adds the largest angular gap across all computed eigenvalues and
    the largest distance of one from the unit circle. Levels run
    0..max_level, which must lie in 0..M. An isometric symbol that fails
    `check_unitary` raises `NotUnitaryError` with its checks.
    """
    tol = resolve_tol(tol)
    space = symbol.space
    if max_level is None:
        max_level = space.max_level
    if not 0 <= max_level <= space.max_level:
        raise ValueError(f"spectrum level {max_level} outside 0..{space.max_level}")
    unitary = check_unitary(symbol, tol)
    if not unitary.passed:
        raise NotUnitaryError("spectrum prediction requires a constant unitary symbol",
                              unitary.checks)

    w = build_odometer(symbol).operator.csc
    base_eigs = np.linalg.eigvals(level0_block(symbol))
    levels, checks = [], []
    for m in range(max_level + 1):
        mu, eigs, residual = _level_cycle_spectrum(space, w, m)
        hausdorff = _ring_hausdorff(mu, base_eigs, space.n**m)
        levels.append(LevelSpectrum(m, eigs, _roots(base_eigs, space.n**m), hausdorff, residual))
        checks += [Check(f"level_{m}_hausdorff", hausdorff, tol),
                   Check(f"level_{m}_eigpair_residual", residual, tol, m)]
    all_eigs = np.concatenate([lv.eigenvalues for lv in levels])
    unimod = float(np.abs(np.abs(all_eigs) - 1.0).max())
    checks.append(Check("unimodularity", unimod, tol))
    return SpectrumReport(tuple(checks), tuple(levels), max_angular_gap(all_eigs), unimod)


def angle_histogram(points: np.ndarray, bins: int = 24, width: int = 50) -> list[str]:
    """Plain-text histogram of eigenvalue angles over [-pi, pi)."""
    angles = np.angle(np.asarray(points, dtype=complex).ravel())
    counts, edges = np.histogram(angles, bins=bins, range=(-np.pi, np.pi))
    peak = max(int(counts.max()), 1)
    lines = []
    for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(width * c / peak))
        lines.append(f"[{lo:+.3f}, {hi:+.3f}) {c:4d} {bar}")
    return lines


@dataclass(frozen=True)
class GalleryEntry:
    """A named example with its constructed objects, verification data and report `verdicts`."""

    name: str
    parameters: dict
    symbol: Symbol | None = None
    operators: dict[str, np.ndarray] = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    checks: dict[str, float] = field(default_factory=dict)
    classification: ClassificationReport | None = None
    verdicts: tuple[Check, ...] = ()


def gallery_adding_machine(q: complex, size: int, tol: float | None = None) -> GalleryEntry:
    """Twisted adding machine on the truncated half-line sequence space.

    V_1 e_k = conj(q)^{2k} e_{2k}, V_2 e_k = conj(q)^{2k+1} e_{2k+1} and
    W e_k = conj(q) e_{k+1}; images beyond the truncation are dropped and all
    identities are checked on the index window k <= (size - 2) / 2. The pair
    satisfies the adjoint covariance relation exactly when q = 1. This lives
    on a plain sequence space, outside the Fock classification pipeline.
    """
    tol = resolve_tol(tol)
    q = complex(q)
    if abs(abs(q) - 1.0) > 1e-12:
        raise ValueError(f"phase must be unimodular, got |q| = {abs(q)}")
    if size < 4:
        raise ValueError(f"truncation {size} leaves an empty index window")
    qb = np.conj(q)
    v1 = np.zeros((size, size), dtype=complex)
    v2 = np.zeros((size, size), dtype=complex)
    w = np.zeros((size, size), dtype=complex)
    for k in range(size):
        if 2 * k < size:
            v1[2 * k, k] = qb ** (2 * k)
        if 2 * k + 1 < size:
            v2[2 * k + 1, k] = qb ** (2 * k + 1)
        if k + 1 < size:
            w[k + 1, k] = qb

    window = (size - 2) // 2
    cols = np.arange(window + 1)
    rel1 = op_norm((w @ v1 - v2)[:, cols])
    rel2 = op_norm((w @ v2 - q * v1 @ w)[:, cols])
    nica = op_norm((w.conj().T @ v1 - v2 @ w.conj().T)[:, cols])
    twisted_nica = op_norm((w.conj().T @ v1 - qb * v2 @ w.conj().T)[:, cols])
    expected = {"nica": abs(q - 1.0) <= 1e-12}
    return GalleryEntry(
        name="adding-machine",
        parameters={"q": q, "size": size, "window": window},
        operators={"v1": v1, "v2": v2, "w": w},
        expected=expected,
        checks={
            "carry_relation": rel1,
            "twist_relation": rel2,
            "nica_relation": nica,
            "twisted_nica_relation": twisted_nica,
        },
        verdicts=(Check("carry_relation", rel1, tol), Check("twist_relation", rel2, tol),
                  Check("twisted_nica_relation", twisted_nica, tol),
                  Check("nica_flag_matches_phase", nica, tol,
                        verdict=Check("nica", nica, tol).passed == expected["nica"])),
    )


def gallery_weak_bishift(
    d: int, max_level: int, n: int = 2, tol: float | None = None
) -> GalleryEntry:
    """Block-diagonal symbol sending h_m to the m-fold all-ones word over h_m.

    Isometric for every d; Nica covariant only in the degenerate d = 1 case
    where the single block is constant. The non-covariance witness is the
    one-step annihilation of W(vacuum, h_m) landing at level m - 1, taken on
    the symbol's entries, so the space may exceed the dense limit.
    """
    tol = resolve_tol(tol)
    if d < 1:
        raise ValueError("d must be >= 1")
    if d > max_level:
        raise ValueError(f"d = {d} blocks need truncation level >= {d}, got {max_level}")
    space = TruncatedFockSpace(n, max_level, d)
    entries = [(space.all_ones_index(m) * d + m, m, 1.0) for m in range(d)]
    symbol = symbol_from_entries(space, entries)
    report = classify(symbol, tol)
    witness = 0.0
    for m in range(1, d):  # W(vacuum, h_m) = L h_m exactly
        image = apply_annihilation(space, 1, symbol.csc[:, [m]])
        target = CSC.from_triplets([space.all_ones_index(m - 1) * d + m], [0], [1.0], image.shape)
        witness = max(witness, op_norm(image - target))
    # the weak bi-shift property itself (trivial unitary part of the
    # shift-decomposition) rests on machinery outside this package and is
    # expected, not verified
    expected = {"isometric": True, "nica": d == 1, "weak_bishift": "expected, unverified"}
    return GalleryEntry(
        name="weak-bishift",
        parameters={"d": d, "max_level": max_level, "n": n},
        symbol=symbol,
        expected=expected,
        checks={"witness_residual": witness},
        classification=report,
        verdicts=(Check("isometric", report.residuals["shifted_correlations"], tol,
                        verdict=report.is_isometric),
                  Check("nica_matches_expectation", report.residuals["nica_residual"], tol,
                        verdict=report.is_nica == expected["nica"]),
                  Check("witness_residual", witness, tol)),
    )


@dataclass(frozen=True)
class GoldenRatioSequence:
    """Truncated golden-ratio coefficient sequence with its symbol and diagnostics."""

    coeffs: np.ndarray
    symbol: Symbol
    unit_sum_error: float
    unit_tail_bound: float
    correlations: tuple[complex, ...]
    correlation_tail_bounds: tuple[float, ...]
    verdicts: tuple[Check, ...]


GOLDEN_OMEGA = (1.0 - math.sqrt(5.0)) / 2.0


def golden_ratio_coeffs(terms: int) -> np.ndarray:
    """c_0 = sqrt(2 / (sqrt 5 + 3)), c_p = c_0 omega^(p-1) with omega = (1 - sqrt 5)/2."""
    if terms < 1:
        raise ValueError("at least one shifted term is required")
    c0 = math.sqrt(2.0 / (math.sqrt(5.0) + 3.0))
    coeffs = np.empty(terms + 1)
    coeffs[0] = c0
    coeffs[1:] = c0 * GOLDEN_OMEGA ** np.arange(terms)
    return coeffs


def gallery_golden_ratio(
    terms: int, n: int = 2, max_level: int | None = None, max_corr: int = 4
) -> GoldenRatioSequence:
    """The golden-ratio sequence, its scalar symbol, and partial-sum diagnostics.

    The symbol keeps the coefficients up to the truncation level (defaulting
    to the full sequence); the diagnostics compare the partial sums against
    their analytic geometric tails.
    """
    coeffs = golden_ratio_coeffs(terms)
    if max_level is None:
        max_level = terms
    space = TruncatedFockSpace(n, max_level, 1)
    symbol = scalar_symbol(space, coeffs)

    c0sq = coeffs[0] ** 2
    omega = GOLDEN_OMEGA
    geom = c0sq / (1.0 - omega**2)
    unit_error = abs(float(np.sum(coeffs**2)) - 1.0)
    unit_bound = geom * abs(omega) ** (2 * terms)
    corrs = []
    bounds = []
    for r in range(1, max_corr + 1):
        if r > terms:
            # no two of the terms + 1 coefficients lie r apart
            corrs.append(0j)
            bounds.append(0.0)
            continue
        corrs.append(complex(np.sum(coeffs[r:] * coeffs[: terms + 1 - r])))
        bounds.append(geom * abs(omega) ** (2 * terms - r))
    # each partial sum is checked against its analytic tail, with one rounding to spare
    verdicts = [Check("unit_sum_error", unit_error, unit_bound + 1e-15)]
    verdicts += [Check(f"correlation_{r}", abs(corr), bound + 1e-15)
                 for r, (corr, bound) in enumerate(zip(corrs, bounds), 1)]
    return GoldenRatioSequence(
        coeffs, symbol, unit_error, unit_bound, tuple(corrs), tuple(bounds), tuple(verdicts)
    )


def gallery_shift_symbol(
    d: int, n: int = 2, max_level: int = 3, tol: float | None = None
) -> GalleryEntry:
    """Constant shift symbol h_p -> (vacuum, h_{p+1}) with a padded last column.

    The finite truncation of the coefficient shift: the boundary column is
    zero, so isometry and Nica covariance are certified on the interior
    columns h_0..h_{d-2} only, while the surjectivity defect of the level-0
    block is globally 1.
    """
    tol = resolve_tol(tol)
    if d < 2:
        raise ValueError("the shift needs d >= 2 (one interior column at least)")
    space = TruncatedFockSpace(n, max_level, d)
    symbol = constant_symbol(space, np.eye(d, k=-1, dtype=complex))
    interior = tuple(range(d - 1))
    report = classify(symbol, tol, columns=interior)
    defect = report.residuals["surjectivity_defect"]
    return GalleryEntry(
        name="shift-symbol",
        parameters={"d": d, "n": n, "max_level": max_level, "interior_columns": interior},
        symbol=symbol,
        expected={"nica_on_interior": True, "unitary": False, "surjectivity_defect": 1},
        checks={"surjectivity_defect": defect},
        classification=report,
        verdicts=(Check("nica_on_interior", report.residuals["nica_residual"], tol,
                        verdict=report.is_nica),
                  Check("not_unitary", defect, None,
                        verdict=not report.is_unitary and defect == 1.0)),
    )
