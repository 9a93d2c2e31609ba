"""Entanglement detection criteria.

* disorder (majorization) check: partial sums of the full spectrum against a
  subsystem's, any violated index certifies entanglement;
* Peres check: smallest partial-transpose eigenvalue;
* entropic detectors with bounded parameter search over the Tsallis q and
  the peaked-family (alpha, t), including the constructive alpha
  recommendation alpha = p_j of the reduced state at the first violated
  index j. The ``*_batch`` forms search many points at once; the
  ``*_spectra`` forms are their one-point case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bipartite import BipartiteDensity, partial_trace, partial_transpose
from .entropy import (
    peaked_differences,
    probabilities,
    tsallis_differences,
    tsallis_differences_unchecked,
)
from .hermitian import Spectrum, eigenvalues

MAJORIZATION_TOL = 1e-10
DETECTION_THRESHOLD = -1e-12
ALPHA_JITTER = 1e-3
DEFAULT_Q_BOUNDS = (1e-2, 1e3)
DEFAULT_Q_POINTS = 96
DEFAULT_T_SCHEDULE = (1e1, 1e2, 1e3, 1e4)

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def default_q_grid() -> np.ndarray:
    """96 log-spaced q values in [1e-2, 1e3].

    The lower bound is pragmatic: detection regions collapse onto the outer
    positivity border as q -> 0+.
    """
    return np.geomspace(DEFAULT_Q_BOUNDS[0], DEFAULT_Q_BOUNDS[1], DEFAULT_Q_POINTS)


@dataclass(frozen=True)
class MajorizationReport:
    """Per-index comparison of leading partial sums against one subsystem."""

    side: str
    cumsum_rho: np.ndarray
    cumsum_reduced: np.ndarray
    violated_indices: tuple[int, ...]
    first_violation: int | None
    tol: float = MAJORIZATION_TOL

    @property
    def is_violated(self) -> bool:
        return bool(self.violated_indices)


@dataclass(frozen=True)
class DetectionVerdict:
    """Outcome of a bounded detector sweep.

    ``detected`` means the most negative conditional difference found is
    below DETECTION_THRESHOLD; it is a bounded-search statement, not a proof
    over the whole parameter range. ``witness`` always records the deepest
    point sampled.
    """

    detected: bool
    witness: dict | None
    margin: float


def majorization_compare(
    full: Spectrum, reduced: Spectrum, side: str = "A", tol: float = MAJORIZATION_TOL
) -> MajorizationReport:
    """Compare the first k partial sums (k = reduced dimension)."""
    k = reduced.dim
    cs_rho = full.cumsums[:k].copy()
    cs_red = reduced.cumsums.copy()
    violated = tuple(int(i) + 1 for i in np.nonzero(cs_rho > cs_red + tol)[0])
    first = violated[0] if violated else None
    return MajorizationReport(side, cs_rho, cs_red, violated, first, tol)


def disorder_check(
    rho: BipartiteDensity, tol: float = MAJORIZATION_TOL
) -> tuple[MajorizationReport, MajorizationReport]:
    """Majorization reports against both subsystems; any violation certifies
    entanglement."""
    full = rho.spectrum()
    rep_a = majorization_compare(full, eigenvalues(partial_trace(rho, "A")), "A", tol)
    rep_b = majorization_compare(full, eigenvalues(partial_trace(rho, "B")), "B", tol)
    return rep_a, rep_b


def peres_check(rho: BipartiteDensity) -> float:
    """Smallest eigenvalue of the partial transpose; negative certifies
    entanglement."""
    return float(np.linalg.eigvalsh(partial_transpose(rho).mat)[0])


def _golden_min(fn, lo: np.ndarray, hi: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Golden-section minima of fn on every bracket [lo_j, hi_j], in lockstep.

    ``fn(idx, x)`` returns the values at the points ``x``, where ``x[m]``
    lies in bracket ``idx[m]``, so each bracket can carry its own function.
    Each bracket shrinks as a search on its own would, until its width is
    <= tol, and fn is called once per iteration on the new points of the
    brackets still open.
    """
    every = np.arange(lo.size)
    a, b = lo.copy(), hi.copy()
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = np.split(fn(np.concatenate((every, every)), np.concatenate((c, d))), 2)
    open_ = np.nonzero((b - a) > tol)[0]
    while open_.size:
        aj, bj, cj, dj = a[open_], b[open_], c[open_], d[open_]
        fcj, fdj = fc[open_], fd[open_]
        left = fcj < fdj
        # keep [a, d] when f(c) < f(d), else [c, b]; one interior point survives
        bj, aj = np.where(left, dj, bj), np.where(left, aj, cj)
        kept, f_kept = np.where(left, cj, dj), np.where(left, fcj, fdj)
        new = np.where(left, bj - _INVPHI * (bj - aj), aj + _INVPHI * (bj - aj))
        f_new = fn(open_, new)
        a[open_], b[open_] = aj, bj
        c[open_], d[open_] = np.where(left, new, kept), np.where(left, kept, new)
        fc[open_], fd[open_] = np.where(left, f_new, f_kept), np.where(left, f_kept, f_new)
        open_ = open_[(bj - aj) > tol]
    mid = 0.5 * (a + b)
    return mid, fn(every, mid)


def _stacked_pairs(fulls, reduceds) -> tuple[np.ndarray, np.ndarray]:
    """Checked probabilities (``probabilities``) of the full and reduced
    spectra of every point, one row per point; np.array raises ValueError
    for spectra of different dimensions."""
    if len(fulls) != len(reduceds):
        raise ValueError(f"{len(fulls)} full spectra but {len(reduceds)} reduced ones")
    return (np.array([probabilities(spectrum) for spectrum in fulls]),
            np.array([probabilities(spectrum) for spectrum in reduceds]))


def tsallis_sweep_batch(
    fulls,
    reduceds,
    q_grid: np.ndarray | None = None,
    refine_tol: float = 1e-6,
    threshold: float = DETECTION_THRESHOLD,
) -> list[DetectionVerdict]:
    """Minimize the Tsallis conditional difference over q, for every point.

    ``fulls`` and ``reduceds`` hold one (full, reduced) spectrum pair per
    point, all of one dimension. The grid is sampled on every point in one
    kernel call; then the brackets around every sampled local minimum of
    every point are golden-refined together (dips narrower than the grid
    spacing would otherwise be missed near detection onsets). Each point
    reports the deepest value it reached: its grid minimum, or else its
    first refinement, in grid order, that is strictly deeper.
    """
    qs = default_q_grid() if q_grid is None else np.asarray(q_grid, dtype=float)
    if qs.size == 0:
        raise ValueError("the Tsallis q grid is empty")
    if len(fulls) == 0:
        return []
    p_full, p_reduced = _stacked_pairs(fulls, reduceds)
    vals = tsallis_differences(p_full, p_reduced, qs)
    edge = np.full((vals.shape[0], 1), np.inf)
    left = np.concatenate((edge, vals[:, :-1]), axis=1)
    right = np.concatenate((vals[:, 1:], edge), axis=1)
    point, k = np.nonzero((vals <= left) & (vals <= right))
    log_qs = np.log(qs)
    lo = log_qs[np.maximum(k - 1, 0)]
    hi = log_qs[np.minimum(k + 1, qs.size - 1)]
    # every refined q lies inside the checked grid's range
    bracket_full, bracket_reduced = p_full[point], p_reduced[point]
    log_q_min, v_min = _golden_min(
        lambda idx, lq: tsallis_differences_unchecked(
            bracket_full[idx], bracket_reduced[idx], np.exp(lq)[:, None])[:, 0],
        lo, hi, refine_tol,
    )
    bounds = np.searchsorted(point, np.arange(vals.shape[0] + 1))
    verdicts = []
    for i, best in enumerate(np.argmin(vals, axis=1)):
        best_q, best_v = float(qs[best]), float(vals[i, best])
        for lq, v in zip(log_q_min[bounds[i]:bounds[i + 1]], v_min[bounds[i]:bounds[i + 1]]):
            if v < best_v:
                best_q, best_v = math.exp(lq), float(v)
        verdicts.append(DetectionVerdict(best_v < threshold, {"q": best_q}, best_v))
    return verdicts


def tsallis_sweep_spectra(
    full: Spectrum,
    reduced: Spectrum,
    side: str = "A",
    q_grid: np.ndarray | None = None,
    refine_tol: float = 1e-6,
    threshold: float = DETECTION_THRESHOLD,
) -> DetectionVerdict:
    """The Tsallis sweep (``tsallis_sweep_batch``) of one point."""
    return tsallis_sweep_batch([full], [reduced], q_grid, refine_tol, threshold)[0]


def tsallis_sweep(
    rho: BipartiteDensity,
    side: str = "A",
    q_grid: np.ndarray | None = None,
    refine_tol: float = 1e-6,
    threshold: float = DETECTION_THRESHOLD,
) -> DetectionVerdict:
    full = rho.spectrum()
    reduced = eigenvalues(partial_trace(rho, keep=side))
    return tsallis_sweep_spectra(full, reduced, side, q_grid, refine_tol, threshold)


def recommend_alpha_from_spectrum(reduced: Spectrum, j: int) -> float:
    """p_j of the reduced spectrum (1-based, descending): the constructive
    peak location for detecting a first violation at index j."""
    if not 1 <= j <= reduced.dim:
        raise IndexError(f"index {j} outside 1..{reduced.dim}")
    return float(reduced.values[j - 1])


def recommend_alpha(rho: BipartiteDensity, side: str, j: int) -> float:
    return recommend_alpha_from_spectrum(eigenvalues(partial_trace(rho, keep=side)), j)


def recommended_alphas(reduced: Spectrum, jitter: float = ALPHA_JITTER) -> tuple[float, ...]:
    """Jittered peak recommendations for every index of the reduced spectrum.

    The exact eigenvalue sits on the kink of the sharp-peak limit, so each
    p_j is bracketed by p_j +- jitter (clipped to (0, 1), deduplicated).
    """
    alphas: list[float] = []
    for value in reduced.values:
        for a in (value - jitter, value, value + jitter):
            if 0.0 < a < 1.0 and a not in alphas:
                alphas.append(a)
    return tuple(alphas)


def peaked_search_batch(
    fulls,
    reduceds,
    alphas,
    ts=None,
    threshold: float = DETECTION_THRESHOLD,
) -> list[DetectionVerdict]:
    """Evaluate the peaked conditional difference over each point's (alpha, t) lattice.

    ``fulls`` and ``reduceds`` hold one spectrum pair per point, all of one
    dimension, and ``alphas`` one sequence of peak locations per point (their
    counts may differ); every point shares the t schedule. The (point, alpha)
    rows of all points go through one kernel call. For each point the witness
    is the first cell below threshold in (alpha-major, t-minor) order, or the
    deepest cell when none is; the margin is the most negative value over
    its whole lattice.
    """
    ts = np.asarray(DEFAULT_T_SCHEDULE if ts is None else tuple(ts), dtype=float)
    if len(fulls) == 0:
        return []
    p_full, p_reduced = _stacked_pairs(fulls, reduceds)
    rows = [np.asarray(tuple(point_alphas), dtype=float) for point_alphas in alphas]
    if len(rows) != len(fulls):
        raise ValueError(f"{len(rows)} alpha sequences for {len(fulls)} points")
    row_point = np.repeat(np.arange(len(rows)), [row.size for row in rows])
    row_alpha = np.concatenate(rows)
    diffs = peaked_differences(p_full[row_point], p_reduced[row_point],
                               row_alpha[:, None], ts).reshape(-1)
    bounds = (np.searchsorted(row_point, np.arange(len(rows) + 1)) * ts.size).tolist()
    verdicts = []
    for start, stop in zip(bounds[:-1], bounds[1:]):
        cells = diffs[start:stop]
        if cells.size == 0:
            verdicts.append(DetectionVerdict(False, None, math.inf))
            continue
        deepest = int(np.argmin(cells))
        margin = float(cells[deepest])
        detected = margin < threshold
        cell = start + (int(np.argmax(cells < threshold)) if detected else deepest)
        row, k = divmod(cell, ts.size)
        verdicts.append(DetectionVerdict(
            detected, {"alpha": float(row_alpha[row]), "t": float(ts[k])}, margin))
    return verdicts


def peaked_search_spectra(
    full: Spectrum,
    reduced: Spectrum,
    alphas,
    ts=None,
    side: str = "A",
    threshold: float = DETECTION_THRESHOLD,
) -> DetectionVerdict:
    """The peaked search (``peaked_search_batch``) of one point."""
    return peaked_search_batch([full], [reduced], [alphas], ts, threshold)[0]


def peaked_search(
    rho: BipartiteDensity,
    side: str = "A",
    alphas=None,
    ts=None,
    threshold: float = DETECTION_THRESHOLD,
) -> DetectionVerdict:
    """Peaked-family detector; by default tries the recommended alphas for
    every index of the reduced spectrum."""
    full = rho.spectrum()
    reduced = eigenvalues(partial_trace(rho, keep=side))
    if alphas is None:
        alphas = recommended_alphas(reduced)
    return peaked_search_spectra(full, reduced, alphas, ts, side, threshold)
