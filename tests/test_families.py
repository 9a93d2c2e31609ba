import numpy as np
import pytest

from majorlens.bipartite import partial_trace
from majorlens.criteria import majorization_compare, peres_check
from majorlens.hermitian import eigenvalues
from majorlens.families import (
    FamilySpec,
    RegionError,
    analytic_reduced,
    analytic_spectrum,
    build,
    family_matrix,
    family_partial_sums,
    pt_min_eigenvalue,
    separability_witness,
    thresholds,
    violation_predictor,
)

from conftest import sample_family_weights


def test_werner_state_matrix():
    x = 0.3
    rho = build(FamilySpec(2, (x,)))
    y = (1 - x) / 4.0
    expected = y * np.eye(4)
    expected[1, 1] += x / 2
    expected[2, 2] += x / 2
    expected[1, 2] -= x / 2
    expected[2, 1] -= x / 2
    np.testing.assert_allclose(rho.op.mat, expected, atol=1e-15)


def test_maximally_mixed_and_axis_spectrum():
    spec = analytic_spectrum(FamilySpec(3, (0.0, 0.0)))
    np.testing.assert_allclose(spec.values, np.full(9, 1.0 / 9.0), atol=0)
    spec = analytic_spectrum(FamilySpec(3, (0.5, 0.0)))
    np.testing.assert_allclose(spec.values, [5.0 / 9.0] + [1.0 / 18.0] * 8, atol=1e-15)


def test_build_outside_region():
    with pytest.raises(RegionError, match="exceeds 1"):
        build(FamilySpec(3, (1.2, 0.0)))
    with pytest.raises(RegionError, match=r"x\[1\]"):
        build(FamilySpec(3, (-0.2, 0.0)))


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(1, (0.1,))
    with pytest.raises(ValueError):
        FamilySpec(3, (0.1, 0.1, 0.1))  # n > d - 1
    with pytest.raises(ValueError):
        FamilySpec(3, (0.1, 0.1), "weird")


@pytest.mark.parametrize("x", [(np.nan, 0.1), (0.1, np.inf), (-np.inf, 0.0)])
def test_spec_rejects_non_finite_weights(x):
    # a NaN weight used to pass every region comparison
    with pytest.raises(ValueError, match="finite"):
        FamilySpec(3, x).in_region()


def test_reduced_examples():
    np.testing.assert_allclose(
        analytic_reduced(FamilySpec(3, (0.5, 0.0))).values,
        [5.0 / 12.0, 5.0 / 12.0, 1.0 / 6.0],
        atol=1e-15,
    )
    np.testing.assert_allclose(
        analytic_reduced(FamilySpec(3, (0.32, 0.32))).values,
        [0.44, 0.28, 0.28],
        atol=1e-15,
    )
    np.testing.assert_allclose(
        analytic_reduced(FamilySpec(6, (0.0,) * 5)).values,
        np.full(6, 1.0 / 6.0),
        atol=1e-15,
    )


def test_pt_minimum_examples():
    assert abs(pt_min_eigenvalue(FamilySpec(3, (0.5, 0.0))) - (-7.0 / 36.0)) <= 1e-15
    sep = pt_min_eigenvalue(FamilySpec(3, (0.05, 0.05)))
    assert abs(sep - (0.1 - 0.05 * np.sqrt(2.0) / 2.0)) <= 1e-15
    assert sep > 0
    depleted = FamilySpec(6, (-1.0 / 31.0,) * 5)
    sigma = pt_min_eigenvalue(depleted)
    assert abs(sigma - (1.0 / 31.0 - np.sqrt(5.0) / 62.0)) <= 1e-15
    assert sigma < 0


@pytest.mark.parametrize("exchange", ["antisymmetric", "symmetric"])
def test_analytic_matches_numeric(rng, exchange):
    for d in range(2, 7):
        for n in range(1, d):
            for x in sample_family_weights(rng, d, n, 8):
                spec = FamilySpec(d, tuple(x), exchange)
                rho = build(spec)
                np.testing.assert_allclose(
                    eigenvalues(rho.op).values,
                    analytic_spectrum(spec).values,
                    atol=1e-12,
                )
                np.testing.assert_allclose(
                    eigenvalues(partial_trace(rho, "A")).values,
                    analytic_reduced(spec).values,
                    atol=1e-12,
                )
                np.testing.assert_allclose(
                    eigenvalues(partial_trace(rho, "B")).values,
                    analytic_reduced(spec).values,
                    atol=1e-12,
                )
                assert abs(peres_check(rho) - pt_min_eigenvalue(spec)) <= 1e-10


def test_separability_witness_examples():
    witness = separability_witness(FamilySpec(3, (0.05, 0.05)))
    assert witness is not None and witness.valid
    np.testing.assert_allclose(witness.weights, [0.5, 0.5], atol=1e-15)
    # x_i^2 = 0.0025 <= 4 q_i y^2 = 0.02
    np.testing.assert_allclose(witness.margins, [0.0175, 0.0175], atol=1e-15)

    uniform = separability_witness(FamilySpec(3, (0.0, 0.0)))
    assert uniform is not None and uniform.valid
    np.testing.assert_allclose(uniform.weights, [0.5, 0.5], atol=0)

    assert separability_witness(FamilySpec(3, (0.5, 0.0))) is None


def test_witness_iff_ppt(rng):
    for x in sample_family_weights(rng, 3, 2, 200):
        spec = FamilySpec(3, tuple(x))
        witness = separability_witness(spec)
        if pt_min_eigenvalue(spec) >= 0:
            assert witness is not None and witness.valid
        else:
            assert witness is None
    for x in sample_family_weights(rng, 6, 5, 50):
        spec = FamilySpec(6, tuple(x))
        witness = separability_witness(spec)
        assert (witness is not None) == (pt_min_eigenvalue(spec) >= 0)


def test_symmetric_exchange_equivalence(rng):
    for x in sample_family_weights(rng, 4, 3, 25):
        anti = build(FamilySpec(4, tuple(x), "antisymmetric"))
        sym = build(FamilySpec(4, tuple(x), "symmetric"))
        np.testing.assert_allclose(
            eigenvalues(anti.op).values, eigenvalues(sym.op).values, atol=1e-12
        )
        assert abs(peres_check(anti) - peres_check(sym)) <= 1e-12
        rep_anti = majorization_compare(
            eigenvalues(anti.op), eigenvalues(partial_trace(anti, "A"))
        )
        rep_sym = majorization_compare(
            eigenvalues(sym.op), eigenvalues(partial_trace(sym, "A"))
        )
        assert rep_anti.violated_indices == rep_sym.violated_indices


def test_threshold_values():
    assert abs(thresholds(2, 1).peres_axis - 1.0 / 3.0) <= 1e-15
    t3 = thresholds(3, 2)
    assert abs(t3.disorder_i1_axis - 4.0 / 13.0) <= 1e-15
    assert abs(t3.disorder_in_diag - 0.32) <= 1e-15
    assert abs(t3.peres_diag - 1.0 / (2.0 + 9.0 / np.sqrt(2.0))) <= 1e-15
    # the diagonal onset is the gamma = 0 radius divided by sqrt(n)
    assert abs(t3.peres_diag - t3.peres_radius(0.0) / np.sqrt(2.0)) <= 1e-15
    t65 = thresholds(6, 5)
    assert abs(t65.disorder_in_diag - 5.0 / 28.6) <= 1e-12
    assert abs(thresholds(6, 4).disorder_in_diag - 4.0 / 19.6) <= 1e-12
    # region corners: unit axes plus the depletion vertex
    assert t65.vertices[-1] == tuple([-1.0 / 31.0] * 5)
    with pytest.raises(ValueError):
        thresholds(3, 3)


def test_threshold_curves_consistent():
    t3 = thresholds(3, 2)
    # curves reduce to the axis/diagonal onsets at their endpoints
    assert abs(t3.disorder_i1_curve(0.0) - t3.disorder_i1_axis) <= 1e-15
    assert abs(t3.disorder_i1_mixed_curve(0.0) - t3.disorder_i1_axis) <= 1e-15
    diag = t3.disorder_in_diag
    assert abs(t3.disorder_i2_curve(diag) - diag) <= 1e-12


def test_violation_predictor_examples():
    assert violation_predictor(FamilySpec(3, (0.5, 0.0))) == (1,)
    assert violation_predictor(FamilySpec(3, (0.4, 0.4))) == (2,)
    assert violation_predictor(FamilySpec(6, (0.19,) * 5)) == (5,)
    assert violation_predictor(FamilySpec(6, (-1.0 / 31.0,) * 5)) == ()
    # order of the weights must not matter
    assert violation_predictor(FamilySpec(3, (0.0, 0.5))) == (1,)


def test_violation_predictor_agrees_with_spectra(rng):
    for d, n in ((2, 1), (3, 2), (4, 3), (6, 5)):
        for x in sample_family_weights(rng, d, n, 60):
            spec = FamilySpec(d, tuple(x))
            rho = build(spec)
            rep = majorization_compare(
                eigenvalues(rho.op), eigenvalues(partial_trace(rho, "A"))
            )
            assert violation_predictor(spec) == rep.violated_indices, x


def test_family_partial_sums_vectorized(rng):
    xs = sample_family_weights(rng, 6, 5, 40)
    cs_rho, cs_red = family_partial_sums(6, xs)
    for row, x in enumerate(xs):
        spec = FamilySpec(6, tuple(x))
        full = analytic_spectrum(spec)
        red = analytic_reduced(spec)
        np.testing.assert_allclose(cs_rho[row], full.cumsums[:6], atol=1e-12)
        np.testing.assert_allclose(cs_red[row], red.cumsums, atol=1e-12)


def test_high_index_sums_never_violated(rng):
    # the third and higher partial sums are majorized everywhere in the
    # d = 3 region, with equality only on the outer border
    for x in sample_family_weights(rng, 3, 2, 200):
        spec = FamilySpec(3, tuple(x))
        full, red = analytic_spectrum(spec), analytic_reduced(spec)
        assert full.cumsums[2] <= red.cumsums[2] + 1e-12
    for x1 in np.linspace(0.05, 0.95, 7):
        spec = FamilySpec(3, (float(x1), float(1.0 - x1)))
        full, red = analytic_spectrum(spec), analytic_reduced(spec)
        assert abs(full.cumsums[2] - red.cumsums[2]) <= 1e-12
        assert abs(full.cumsums[1] - 1.0) <= 1e-12


def test_boundary_depletion_points_stay_ppt():
    # single-component depletion down to the region edge keeps the partial
    # transpose positive for every dimension
    for d in range(2, 8):
        x = [0.0] * (d - 1)
        x[-1] = -1.0 / (d * d - 1.0)
        spec = FamilySpec(d, tuple(x))
        assert spec.in_region()
        assert pt_min_eigenvalue(spec) > 0
