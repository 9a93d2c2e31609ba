import numpy as np
import pytest

from majorlens.bipartite import BipartiteDensity
from majorlens.criteria import (
    default_q_grid,
    disorder_check,
    majorization_compare,
    peaked_search,
    peaked_search_spectra,
    peres_check,
    recommend_alpha,
    recommend_alpha_from_spectrum,
    recommended_alphas,
    tsallis_sweep,
    tsallis_sweep_batch,
    tsallis_sweep_spectra,
)
from majorlens.entropy import EntropicFamily, conditional_from_spectra
from majorlens.hermitian import Spectrum
from majorlens.families import (
    FamilySpec,
    analytic_reduced,
    analytic_spectrum,
    build,
    pt_min_eigenvalue,
)

from conftest import bell_matrix, random_density_matrix, sample_family_weights


def test_disorder_first_violation_axis():
    rep_a, rep_b = disorder_check(build(FamilySpec(3, (0.5, 0.0))))
    for rep in (rep_a, rep_b):
        assert rep.first_violation == 1
        assert rep.violated_indices == (1,)
        assert abs(rep.cumsum_rho[0] - 5.0 / 9.0) <= 1e-12
        assert abs(rep.cumsum_reduced[0] - 5.0 / 12.0) <= 1e-12


def test_disorder_second_only_diagonal():
    rep_a, _ = disorder_check(build(FamilySpec(3, (0.4, 0.4))))
    assert rep_a.violated_indices == (2,)
    assert abs(rep_a.cumsum_rho[1] - 0.8444444444444444) <= 1e-12
    assert abs(rep_a.cumsum_reduced[1] - 0.7333333333333333) <= 1e-12
    assert rep_a.cumsum_rho[0] < rep_a.cumsum_reduced[0]


def test_disorder_pure_product():
    rho = BipartiteDensity.from_matrix(np.diag([1.0, 0, 0, 0, 0, 0]), (2, 3))
    rep_a, rep_b = disorder_check(rho)
    assert not rep_a.is_violated and not rep_b.is_violated
    assert abs(rep_a.cumsum_reduced[0] - 1.0) <= 1e-12
    assert abs(rep_b.cumsum_reduced[0] - 1.0) <= 1e-12


def test_peres_examples(rng):
    bell = BipartiteDensity.from_matrix(bell_matrix(), (2, 2))
    assert abs(peres_check(bell) - (-0.5)) <= 1e-14
    werner_boundary = build(FamilySpec(2, (1.0 / 3.0,)))
    assert abs(peres_check(werner_boundary)) <= 1e-12
    mats = [np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 3))
            for _ in range(4)]
    w = rng.dirichlet(np.ones(4))
    sep = BipartiteDensity.from_matrix(sum(wi * m for wi, m in zip(w, mats)), (2, 3))
    assert peres_check(sep) >= -1e-10


def test_tsallis_sweep_detection_onset():
    detected = tsallis_sweep(build(FamilySpec(3, (0.4, 0.4))))
    assert detected.detected
    assert detected.witness is not None
    # re-evaluating at the witness reproduces the margin
    spec = FamilySpec(3, (0.4, 0.4))
    rep = conditional_from_spectra(
        EntropicFamily.tsallis(detected.witness["q"]),
        analytic_spectrum(spec), analytic_reduced(spec),
    )
    assert abs(rep.difference - detected.margin) <= 1e-12
    assert rep.difference < -1e-12

    below = tsallis_sweep(build(FamilySpec(3, (0.37, 0.37))))
    assert not below.detected


def test_tsallis_sweep_near_critical_point():
    # at the reported diagonal onset the dip just touches zero near q ~ 3.6
    spec = FamilySpec(3, (0.381, 0.381))
    verdict = tsallis_sweep_spectra(analytic_spectrum(spec), analytic_reduced(spec))
    assert abs(verdict.margin) < 1e-3
    # the deepest sampled point may sit in the flat large-q tail here; the
    # interior dip is resolved once the margin goes negative (see acceptance)


def test_tsallis_sweep_q_one_on_grid():
    # the default grid contains q = 1 exactly; the von Neumann fallback at
    # that point must not produce nan
    qs = default_q_grid()
    assert 1.0 in qs
    spec = FamilySpec(3, (0.3, 0.2))
    verdict = tsallis_sweep_spectra(
        analytic_spectrum(spec), analytic_reduced(spec), q_grid=qs
    )
    assert np.isfinite(verdict.margin)


def test_tsallis_sweep_rejects_nan_grid():
    # a NaN grid used to yield margin = nan and a witness q = nan
    spec = FamilySpec(3, (0.4, 0.4))
    qs = np.geomspace(np.nan, 1e3, 96)
    with pytest.raises(ValueError, match="q > 0"):
        tsallis_sweep_spectra(analytic_spectrum(spec), analytic_reduced(spec), q_grid=qs)


def test_tsallis_sweep_rejects_empty_grid():
    # an empty grid used to fail in numpy's argmin instead of naming the grid
    spec = FamilySpec(3, (0.4, 0.4))
    full, red = analytic_spectrum(spec), analytic_reduced(spec)
    with pytest.raises(ValueError, match="q grid is empty"):
        tsallis_sweep_spectra(full, red, q_grid=np.geomspace(1e-2, 1e3, 0))
    with pytest.raises(ValueError, match="q grid is empty"):
        tsallis_sweep_batch([full, full], [red, red], q_grid=[])


def test_peaked_search_examples():
    rho = build(FamilySpec(3, (0.33, 0.33)))
    assert peaked_search(rho, alphas=(0.28,), ts=(1e3,)).detected

    rho = build(FamilySpec(3, (0.35, 0.0)))
    assert peaked_search(rho, alphas=(0.39,), ts=(1e3,)).detected

    rho = build(FamilySpec(3, (0.05, 0.05)))
    verdict = peaked_search(rho)  # default lattice, recommended alphas
    assert not verdict.detected
    assert verdict.margin >= -1e-12


def test_peaked_witness_is_first_negative_cell():
    spec = FamilySpec(3, (0.4, 0.4))
    full, red = analytic_spectrum(spec), analytic_reduced(spec)
    verdict = peaked_search_spectra(full, red, alphas=(0.9, 0.28), ts=(10.0, 1e3))
    assert verdict.detected
    # alpha = 0.9 finds nothing; the first detecting cell is (0.28, 10)
    assert verdict.witness["alpha"] == 0.28
    assert verdict.witness["t"] == 10.0
    rep = conditional_from_spectra(EntropicFamily.peaked(0.28, 10.0), full, red)
    assert rep.difference < -1e-12


def test_recommend_alpha_values():
    rho = build(FamilySpec(3, (4.0 / 13.0, 0.0)))
    assert abs(recommend_alpha(rho, "A", 1) - 5.0 / 13.0) <= 1e-10
    rho = build(FamilySpec(3, (0.32, 0.32)))
    assert abs(recommend_alpha(rho, "A", 2) - 0.28) <= 1e-10
    mixed = BipartiteDensity.from_matrix(np.eye(9) / 9.0, (3, 3))
    for j in (1, 2, 3):
        assert abs(recommend_alpha(mixed, "A", j) - 1.0 / 3.0) <= 1e-12
    with pytest.raises(IndexError):
        recommend_alpha(mixed, "A", 4)
    with pytest.raises(IndexError):
        recommend_alpha(mixed, "A", 0)


def test_recommended_alphas_jittered():
    reduced = Spectrum.from_values([0.5, 0.3, 0.2])
    alphas = recommended_alphas(reduced)
    assert 0.5 in alphas and 0.5 - 1e-3 in alphas and 0.5 + 1e-3 in alphas
    assert all(0.0 < a < 1.0 for a in alphas)


def test_disorder_implies_peres_on_family_grid():
    values = np.linspace(-1.0 / 7.0, 1.0, 41)
    for x1 in values:
        for x2 in values:
            spec = FamilySpec(3, (float(x1), float(x2)))
            if not spec.in_region():
                continue
            full, red = analytic_spectrum(spec), analytic_reduced(spec)
            rep = majorization_compare(full, red)
            if rep.is_violated:
                assert pt_min_eigenvalue(spec) < 0


def test_entropic_detection_within_disorder_region():
    values = np.linspace(-1.0 / 7.0, 1.0, 21)
    vn = EntropicFamily.von_neumann()
    for x1 in values:
        for x2 in values:
            spec = FamilySpec(3, (float(x1), float(x2)))
            if not spec.in_region():
                continue
            full, red = analytic_spectrum(spec), analytic_reduced(spec)
            rep = majorization_compare(full, red)
            if rep.is_violated:
                continue
            assert conditional_from_spectra(vn, full, red).difference >= -1e-12
            assert not tsallis_sweep_spectra(full, red).detected
            assert not peaked_search_spectra(
                full, red, recommended_alphas(red)
            ).detected


def test_peaked_completeness_random_spectra(rng):
    """Any majorization violation is caught by the peak recommended at the
    first violated index, for large enough sharpness."""
    found = 0
    while found < 500:
        k = int(rng.integers(2, 5))
        full = Spectrum.from_values(rng.dirichlet(np.ones(k * k)))
        reduced = Spectrum.from_values(rng.dirichlet(np.ones(k)))
        rep = majorization_compare(full, reduced)
        if rep.first_violation is None:
            continue
        j = rep.first_violation
        gap = rep.cumsum_rho[j - 1] - rep.cumsum_reduced[j - 1]
        if gap < 1e-3:  # finite sharpness cannot resolve arbitrarily thin gaps
            continue
        found += 1
        peak = recommend_alpha_from_spectrum(reduced, j)
        alphas = [a for a in (peak - 1e-3, peak, peak + 1e-3) if 0 < a < 1]
        verdict = peaked_search_spectra(full, reduced, alphas)
        assert verdict.detected, (full.values, reduced.values, j)


def test_tsallis_incompleteness_point():
    spec = FamilySpec(3, (0.35, 0.35))
    full, red = analytic_spectrum(spec), analytic_reduced(spec)
    assert majorization_compare(full, red).violated_indices == (2,)
    assert not tsallis_sweep_spectra(full, red).detected
    assert peaked_search_spectra(full, red, recommended_alphas(red)).detected


def test_monotone_onsets_along_diagonal():
    xs = np.linspace(0.0, 0.4999, 101)
    fired = {"disorder": [], "vn": [], "tsallis": [], "peres": []}
    vn = EntropicFamily.von_neumann()
    for x in xs:
        spec = FamilySpec(3, (float(x), float(x)))
        full, red = analytic_spectrum(spec), analytic_reduced(spec)
        fired["peres"].append(pt_min_eigenvalue(spec) < 0)
        fired["disorder"].append(majorization_compare(full, red).is_violated)
        fired["vn"].append(conditional_from_spectra(vn, full, red).difference < -1e-12)
        fired["tsallis"].append(tsallis_sweep_spectra(full, red).detected)
    for name, flags in fired.items():
        flips = sum(flags[i] != flags[i + 1] for i in range(len(flags) - 1))
        assert flips == 1, name
        assert flags[-1], name
