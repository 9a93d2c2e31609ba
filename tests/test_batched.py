"""The batched entropy kernel against a per-parameter loop of the scalar path.

The references below copy the per-point code that the batched Tsallis sweep
and peaked search replaced: ``scalar_difference`` evaluates one conditional
difference from the scalar Tsallis and peaked trace forms, the reference
sweeps call it once per parameter point, and the golden-section refinement
visits one bracket at a time. None of them calls the batched kernel, which
the scalar ``entropy`` path now shares. The batched sweeps over several
points are checked against the one-point sweeps and these references.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorlens.criteria import (
    DEFAULT_T_SCHEDULE,
    DETECTION_THRESHOLD,
    default_q_grid,
    peaked_search_batch,
    peaked_search_spectra,
    recommended_alphas,
    tsallis_sweep_batch,
    tsallis_sweep_spectra,
)
from majorlens.entropy import (
    EntropicFamily,
    conditional_from_spectra,
    log_cosh_kernel,
    peaked_differences,
    probabilities,
    tsallis_differences,
)
from majorlens.hermitian import Spectrum

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
MARGIN_TOL = 1e-12
NEAR_ONE = (1.0 - 5e-7, 1.0, 1.0 + 5e-7)


def scalar_f(family, arr):
    if family.kind == "tsallis":
        q = family.q
        if q == 1.0:
            safe = np.where(arr > 0.0, arr, 1.0)
            return -safe * np.log(safe) * (arr > 0.0)
        if abs(q - 1.0) < 1e-6:
            safe = np.where(arr > 0.0, arr, 1.0)
            return -safe * np.expm1((q - 1.0) * np.log(safe)) / (q - 1.0) * (arr > 0.0)
        return (arr - arr**q) / (q - 1.0)
    a, t = family.alpha, family.t
    return (
        log_cosh_kernel(arr - a, t)
        - (1.0 - arr) * log_cosh_kernel(-a, t)
        - arr * log_cosh_kernel(1.0 - a, t)
    )


def scalar_difference(family, full, reduced):
    s_full = float(np.sum(scalar_f(family, np.clip(full.values, 0.0, 1.0))))
    s_reduced = float(np.sum(scalar_f(family, np.clip(reduced.values, 0.0, 1.0))))
    return s_full - s_reduced


def scalar_golden_min(fn, lo, hi, tol):
    a, b = lo, hi
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return mid, fn(mid)


def scalar_tsallis_sweep(full, reduced, qs, refine_tol=1e-6, threshold=DETECTION_THRESHOLD):
    def diff_at(q):
        return scalar_difference(EntropicFamily.tsallis(q), full, reduced)

    vals = np.array([diff_at(q) for q in qs])
    best_q, best_v = float(qs[np.argmin(vals)]), float(np.min(vals))
    log_qs = np.log(qs)
    for i in range(qs.size):
        left = vals[i - 1] if i > 0 else np.inf
        right = vals[i + 1] if i < qs.size - 1 else np.inf
        if vals[i] <= left and vals[i] <= right:
            lo = log_qs[max(0, i - 1)]
            hi = log_qs[min(qs.size - 1, i + 1)]
            qm, vm = scalar_golden_min(lambda lq: diff_at(math.exp(lq)), lo, hi, refine_tol)
            if vm < best_v:
                best_q, best_v = math.exp(qm), vm
    return best_v < threshold, best_q, best_v


def scalar_peaked_search(full, reduced, alphas, ts, threshold=DETECTION_THRESHOLD):
    witness = None
    margin = np.inf
    margin_cell = None
    for a in alphas:
        for t in ts:
            diff = scalar_difference(EntropicFamily.peaked(a, t), full, reduced)
            if diff < margin:
                margin, margin_cell = diff, {"alpha": float(a), "t": float(t)}
            if witness is None and diff < threshold:
                witness = {"alpha": float(a), "t": float(t)}
    detected = margin < threshold
    return detected, witness if detected else margin_cell, float(margin)


def _draw_pair(draw, k):
    weight = st.floats(1e-3, 1.0)
    full = draw(st.lists(weight, min_size=1, max_size=min(9, k * k)))
    reduced = draw(st.lists(weight, min_size=1, max_size=k))
    full = np.array(full + [0.0] * (k * k - len(full)))
    reduced = np.array(reduced + [0.0] * (k - len(reduced)))
    return Spectrum.from_values(full / full.sum()), Spectrum.from_values(reduced / reduced.sum())


@st.composite
def spectrum_pairs(draw):
    """A full spectrum of dimension k^2 and rank 1..9 with a k-dim reduced one."""
    return _draw_pair(draw, draw(st.integers(2, 3)))


@st.composite
def spectrum_batches(draw):
    """1-6 spectrum pairs of one dimension, as ``spectrum_pairs`` draws them."""
    k = draw(st.integers(2, 3))
    return [_draw_pair(draw, k) for _ in range(draw(st.integers(1, 6)))]


@given(pair=spectrum_pairs(), q=st.floats(1e-2, 1e3))
@settings(max_examples=150, deadline=None)
def test_tsallis_kernel_matches_scalar(pair, q):
    full, reduced = pair
    qs = np.array([1e-2, *NEAR_ONE, 1e3, q])
    batched = tsallis_differences(probabilities(full), probabilities(reduced), qs)
    for value, qv in zip(batched, qs):
        fam = EntropicFamily.tsallis(qv)
        assert abs(value - scalar_difference(fam, full, reduced)) <= MARGIN_TOL
        assert abs(value - conditional_from_spectra(fam, full, reduced).difference) <= MARGIN_TOL


@given(pair=spectrum_pairs(), alpha=st.floats(0.0, 1.0), t=st.floats(1e-3, 1e4))
@settings(max_examples=150, deadline=None)
def test_peaked_kernel_matches_scalar(pair, alpha, t):
    full, reduced = pair
    alphas = np.array([0.0, 1.0, alpha, *full.values.clip(0.0, 1.0),
                       *reduced.values.clip(0.0, 1.0)])
    ts = np.array([*DEFAULT_T_SCHEDULE, t])
    batched = peaked_differences(probabilities(full), probabilities(reduced), alphas, ts)
    assert batched.shape == (alphas.size, ts.size)
    for i, a in enumerate(alphas):
        for k, tv in enumerate(ts):
            fam = EntropicFamily.peaked(a, tv)
            assert abs(batched[i, k] - scalar_difference(fam, full, reduced)) <= MARGIN_TOL
            scalar = conditional_from_spectra(fam, full, reduced).difference
            assert abs(batched[i, k] - scalar) <= MARGIN_TOL


GRIDS = {
    "default": default_q_grid(),
    "near-one": np.sort(np.concatenate((np.geomspace(1e-2, 1e3, 21), NEAR_ONE))),
}


@pytest.mark.parametrize("grid", sorted(GRIDS))
@given(pair=spectrum_pairs())
@settings(max_examples=60, deadline=None)
def test_tsallis_sweep_matches_scalar(grid, pair):
    full, reduced = pair
    qs = GRIDS[grid]
    detected, _, margin = scalar_tsallis_sweep(full, reduced, qs)
    verdict = tsallis_sweep_spectra(full, reduced, q_grid=qs)
    assert verdict.detected == detected
    assert abs(verdict.margin - margin) <= MARGIN_TOL


@given(pair=spectrum_pairs(), alpha=st.floats(0.0, 1.0), t=st.floats(1e-3, 1e4))
@settings(max_examples=150, deadline=None)
def test_peaked_search_matches_scalar(pair, alpha, t):
    full, reduced = pair
    alphas = (0.0, 1.0, alpha, *reduced.values, *recommended_alphas(reduced))
    ts = (*DEFAULT_T_SCHEDULE, t)
    detected, _, margin = scalar_peaked_search(full, reduced, alphas, ts)
    verdict = peaked_search_spectra(full, reduced, alphas, ts)
    assert verdict.detected == detected
    assert abs(verdict.margin - margin) <= MARGIN_TOL


@pytest.mark.parametrize("grid", sorted(GRIDS))
@given(batch=spectrum_batches())
@settings(max_examples=40, deadline=None)
def test_tsallis_sweep_batch_matches_points(grid, batch):
    qs = GRIDS[grid]
    fulls, reduceds = zip(*batch)
    verdicts = tsallis_sweep_batch(fulls, reduceds, qs)
    assert len(verdicts) == len(batch)
    for verdict, (full, reduced) in zip(verdicts, batch):
        assert verdict == tsallis_sweep_spectra(full, reduced, q_grid=qs)
        detected, q, margin = scalar_tsallis_sweep(full, reduced, qs)
        assert verdict.detected == detected
        assert abs(verdict.margin - margin) <= MARGIN_TOL
        if verdict.witness != {"q": q}:
            # only a tie within round-off, e.g. on a flat large-q tail, may pick another q
            depth = scalar_difference(EntropicFamily.tsallis(verdict.witness["q"]), full, reduced)
            assert abs(depth - margin) <= MARGIN_TOL


@given(batch=spectrum_batches(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_peaked_search_batch_matches_points(batch, data):
    # each point searches its own alphas, so the (point, alpha) rows differ in count
    fulls, reduceds = zip(*batch)
    alphas = [data.draw(st.lists(st.floats(0.0, 1.0), max_size=4))
              + list(recommended_alphas(reduced)) for reduced in reduceds]
    ts = (*DEFAULT_T_SCHEDULE, data.draw(st.floats(1e-3, 1e4)))
    verdicts = peaked_search_batch(fulls, reduceds, alphas, ts)
    assert len(verdicts) == len(batch)
    for verdict, (full, reduced), point_alphas in zip(verdicts, batch, alphas):
        assert verdict == peaked_search_spectra(full, reduced, point_alphas, ts)
        detected, witness, margin = scalar_peaked_search(full, reduced, point_alphas, ts)
        assert verdict.detected == detected
        assert abs(verdict.margin - margin) <= MARGIN_TOL
        if verdict.witness != witness:
            # only cells tied within round-off (with the threshold when detected,
            # else with the margin) may pick another cell
            fam = EntropicFamily.peaked(verdict.witness["alpha"], verdict.witness["t"])
            depth = scalar_difference(fam, full, reduced)
            assert depth < DETECTION_THRESHOLD + MARGIN_TOL if detected \
                else abs(depth - margin) <= MARGIN_TOL


def test_batched_sweeps_edge_cases():
    full, reduced = Spectrum.from_values([0.5, 0.5, 0.0, 0.0]), Spectrum.from_values([0.5, 0.5])
    assert tsallis_sweep_batch([], []) == []
    assert peaked_search_batch([], [], []) == []
    # a point without alphas keeps the empty-lattice verdict beside its neighbours
    empty, searched = peaked_search_batch([full, full], [reduced, reduced], [(), (0.3, 0.5)])
    assert (empty.detected, empty.witness, empty.margin) == (False, None, math.inf)
    assert searched == peaked_search_spectra(full, reduced, (0.3, 0.5))
    with pytest.raises(ValueError, match="alpha sequences"):
        peaked_search_batch([full, full], [reduced, reduced], [(0.3,)])
    with pytest.raises(ValueError, match="reduced"):
        tsallis_sweep_batch([full, full], [reduced])
    with pytest.raises(ValueError, match="inhomogeneous"):
        tsallis_sweep_batch([full, Spectrum.from_values([1.0] + [0.0] * 8)], [reduced, reduced])
