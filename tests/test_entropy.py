import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majorlens.bipartite import BipartiteDensity
from majorlens.entropy import (
    EntropicFamily,
    conditional,
    conditional_from_spectra,
    entropy,
    f_eval,
    log_cosh_kernel,
    peaked_differences,
    tsallis_differences,
    tsallis_q2_limit_check,
)
from majorlens.hermitian import Spectrum
from majorlens.families import FamilySpec, analytic_reduced, analytic_spectrum, build

from conftest import bell_matrix, random_probability_vector

FAMILIES = [
    EntropicFamily.von_neumann(),
    EntropicFamily.tsallis(0.5),
    EntropicFamily.tsallis(2.0),
    EntropicFamily.tsallis(7.0),
    EntropicFamily.peaked(0.28, 10.0),
    EntropicFamily.peaked(0.5, 1e3),
    EntropicFamily.peaked_limit(0.25),
    EntropicFamily.peaked_limit(0.7),
]


def test_f_eval_peaked_limit_maximum():
    # the sharp-peak limit tops out at alpha (1 - alpha)
    assert abs(f_eval(EntropicFamily.peaked_limit(0.25), 0.25) - 3.0 / 16.0) <= 1e-15


def test_f_eval_tsallis_direct():
    assert abs(f_eval(EntropicFamily.tsallis(2.0), 0.5) - 0.25) <= 1e-15


def test_f_eval_peaked_below_limit():
    value = f_eval(EntropicFamily.peaked(0.25, 50.0), 0.25)
    assert 3.0 / 16.0 - 0.02 < value < 3.0 / 16.0


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
def test_f_boundary_values(family):
    assert abs(f_eval(family, 0.0)) <= 1e-12
    assert abs(f_eval(family, 1.0)) <= 1e-12


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
def test_concavity_random_triples(rng, family):
    for _ in range(1000):
        p1, p2, p3 = np.sort(rng.uniform(0.0, 1.0, size=3))
        if p3 - p1 < 1e-12:
            continue
        w = (p2 - p1) / (p3 - p1)
        chord = (1 - w) * f_eval(family, p1) + w * f_eval(family, p3)
        assert f_eval(family, p2) >= chord - 1e-12


@given(
    p1=st.floats(0.0, 1.0),
    p2=st.floats(0.0, 1.0),
    p3=st.floats(0.0, 1.0),
    q=st.floats(0.05, 20.0),
    alpha=st.floats(0.01, 0.99),
)
@settings(max_examples=300, deadline=None)
def test_concavity_hypothesis(p1, p2, p3, q, alpha):
    lo, mid, hi = np.sort([p1, p2, p3])
    if hi - lo < 1e-9:
        return
    w = (mid - lo) / (hi - lo)
    for family in (EntropicFamily.tsallis(q), EntropicFamily.peaked(alpha, 100.0),
                   EntropicFamily.peaked_limit(alpha)):
        chord = (1 - w) * f_eval(family, lo) + w * f_eval(family, hi)
        assert f_eval(family, mid) >= chord - 1e-12


def test_peaked_limit_collapses_at_endpoints():
    # the sharp-peak limit is identically zero for alpha in {0, 1}; the
    # finite-sharpness family stays usable there
    for alpha in (0.0, 1.0):
        fam = EntropicFamily.peaked_limit(alpha)
        assert np.all(f_eval(fam, np.linspace(0, 1, 11)) == 0.0)
        finite = EntropicFamily.peaked(alpha, 50.0)
        assert f_eval(finite, 0.5) != 0.0


def test_entropy_maximally_mixed():
    spec = Spectrum.from_values(np.full(9, 1.0 / 9.0))
    assert abs(entropy(EntropicFamily.von_neumann(), spec) - np.log(9.0)) <= 1e-12


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.label)
def test_entropy_pure_state(family):
    spec = Spectrum.from_values([1.0] + [0.0] * 8)
    assert abs(entropy(family, spec)) <= 1e-10


def test_entropy_nonnegative(rng):
    for _ in range(50):
        spec = Spectrum.from_values(random_probability_vector(rng, 9))
        for family in FAMILIES:
            assert entropy(family, spec) >= -1e-10


def test_peaked_limit_family_value():
    # alpha (n_alpha - 1) + 1 - sum of eigenvalues above alpha, by hand
    spec = analytic_spectrum(FamilySpec(3, (0.4, 0.4)))
    top = 2 * (0.4 + 0.2 / 9.0)
    expected = 0.28 * (2 - 1) + 1.0 - top
    got = entropy(EntropicFamily.peaked_limit(0.28), spec)
    assert abs(got - expected) <= 1e-12
    finite_t = entropy(EntropicFamily.peaked(0.28, 1e4), spec)
    assert abs(finite_t - expected) <= 1e-3


def test_domain_and_sum_validation():
    with pytest.raises(ValueError, match="outside"):
        f_eval(EntropicFamily.von_neumann(), 1.5)
    with pytest.raises(ValueError, match="sums to"):
        entropy(EntropicFamily.von_neumann(), Spectrum.from_values([0.9, 0.2]))
    with pytest.raises(ValueError):
        EntropicFamily.tsallis(0.0)
    with pytest.raises(ValueError):
        EntropicFamily.peaked(1.2, 10.0)
    with pytest.raises(ValueError):
        EntropicFamily.peaked(0.5, -1.0)


@pytest.mark.parametrize("make", [
    lambda: EntropicFamily.tsallis(np.nan),
    lambda: EntropicFamily.tsallis(np.inf),
    lambda: EntropicFamily.peaked(0.3, np.inf),
    lambda: EntropicFamily.peaked(0.3, np.nan),
    lambda: EntropicFamily.peaked(np.nan, 10.0),
    lambda: EntropicFamily.peaked_limit(np.nan),
    lambda: tsallis_differences(np.ones(1), np.ones(1), [2.0, np.nan]),
    lambda: tsallis_differences(np.ones(1), np.ones(1), [0.0]),
    lambda: peaked_differences(np.ones(1), np.ones(1), [0.3], [10.0, np.inf]),
    lambda: peaked_differences(np.ones(1), np.ones(1), [np.nan], [10.0]),
    lambda: peaked_differences(np.ones(1), np.ones(1), [1.5], [10.0]),
], ids=["tsallis-nan", "tsallis-inf", "peaked-t-inf", "peaked-t-nan", "peaked-alpha-nan",
        "limit-alpha-nan", "kernel-q-nan", "kernel-q-zero", "kernel-t-inf",
        "kernel-alpha-nan", "kernel-alpha-above-one"])
def test_non_finite_or_out_of_range_parameters_rejected(make):
    with pytest.raises(ValueError):
        make()


def test_conditional_family_examples():
    rho_hot = build(FamilySpec(3, (0.46, 0.46)))
    assert conditional(EntropicFamily.von_neumann(), rho_hot).difference < 0

    rho_sep = build(FamilySpec(3, (0.05, 0.05)))
    for family in FAMILIES:
        assert conditional(family, rho_sep).difference >= -1e-12

    bell = BipartiteDensity.from_matrix(bell_matrix(), (2, 2))
    for family in FAMILIES:
        rep = conditional(family, bell)
        assert abs(rep.difference + rep.s_reduced) <= 1e-12
        assert rep.difference < 0


def test_conditional_normalized_sign(rng):
    # the normalizer is positive, so the normalized value keeps the sign
    for x in ((0.4, 0.4), (0.05, 0.05), (0.46, 0.46)):
        spec = FamilySpec(3, x)
        full, red = analytic_spectrum(spec), analytic_reduced(spec)
        for family in FAMILIES:
            rep = conditional_from_spectra(family, full, red)
            assert np.sign(rep.normalized) == np.sign(rep.difference) or rep.difference == 0


def test_q2_limit_maximally_mixed():
    rho = BipartiteDensity.from_matrix(np.eye(9) / 9.0, (3, 3))
    # S_2 of the uniform 9-spectrum is 1 - 1/9
    dev = tsallis_q2_limit_check(rho, 1e-3)
    assert dev <= 1e-4


def test_q2_limit_pure_product():
    rho = BipartiteDensity.from_matrix(np.diag([1.0, 0, 0, 0]), (2, 2))
    assert tsallis_q2_limit_check(rho, 1e-3) <= 1e-12


def test_q2_limit_alpha_independent():
    rho = build(FamilySpec(3, (0.4, 0.4)))
    d1 = tsallis_q2_limit_check(rho, 1e-4, alpha=0.1)
    d2 = tsallis_q2_limit_check(rho, 1e-4, alpha=0.9)
    assert abs(d1 - d2) <= 1e-6


def test_q2_limit_quadratic_order():
    rho = build(FamilySpec(3, (0.4, 0.4)))
    dev_t = tsallis_q2_limit_check(rho, 1e-2)
    dev_half = tsallis_q2_limit_check(rho, 5e-3)
    assert dev_t / dev_half == pytest.approx(4.0, abs=1.0)
    with pytest.raises(ValueError):
        tsallis_q2_limit_check(rho, 0.5)


def block_average(p, start, width):
    """Average a block of entries: a doubly-stochastic (mixing) action."""
    q = p.copy()
    q[start:start + width] = q[start:start + width].mean()
    return np.sort(q)[::-1]


def test_schur_concavity(rng):
    for _ in range(300):
        dim = int(rng.integers(3, 12))
        sharper = random_probability_vector(rng, dim)
        start = int(rng.integers(0, dim - 1))
        width = int(rng.integers(2, dim - start + 1))
        mixed = block_average(sharper, start, width)
        s_mixed = Spectrum.from_values(mixed)
        s_sharp = Spectrum.from_values(sharper)
        for family in FAMILIES:
            assert entropy(family, s_mixed) >= entropy(family, s_sharp) - 1e-12


def test_tsallis_continuity_at_one(rng):
    vn = EntropicFamily.von_neumann()
    for _ in range(50):
        spec = Spectrum.from_values(random_probability_vector(rng, 7))
        for q in (1.0 - 1e-5, 1.0 + 1e-5):
            gap = abs(entropy(EntropicFamily.tsallis(q), spec) - entropy(vn, spec))
            assert gap <= 1e-3


def test_peaked_limit_bound(rng):
    for _ in range(100):
        dim = int(rng.integers(2, 12))
        spec = Spectrum.from_values(random_probability_vector(rng, dim))
        alpha = rng.uniform(0.05, 0.95)
        for t in (1e2, 1e3, 1e4):
            gap = abs(
                entropy(EntropicFamily.peaked(alpha, t), spec)
                - entropy(EntropicFamily.peaked_limit(alpha), spec)
            )
            assert gap <= dim * np.log(2.0) / (2.0 * t)


def test_uniform_spectrum_maximizes(rng):
    dim = 6
    uniform = Spectrum.from_values(np.full(dim, 1.0 / dim))
    for family in FAMILIES:
        cap = entropy(family, uniform)
        for _ in range(100):
            spec = Spectrum.from_values(random_probability_vector(rng, dim))
            assert entropy(family, spec) <= cap + 1e-12


def test_large_q_sign():
    # when the top eigenvalue of the full state exceeds the reduced one,
    # the Tsallis difference turns negative at large q
    full = Spectrum.from_values([0.6, 0.2, 0.1, 0.05, 0.03, 0.02])
    reduced = Spectrum.from_values([0.5, 0.3, 0.2])
    fam = EntropicFamily.tsallis(200.0)
    rep = conditional_from_spectra(fam, full, reduced)
    assert rep.difference < 0


def test_log_cosh_kernel_stability():
    # exact identity: K_t(x) = -|x|/2 - ln((1 + exp(-2 t |x|)) / 2)/(2 t)
    for t in (1.0, 50.0, 1e4):
        for x in (0.0, 1e-8, 0.3, -0.7, 1.0):
            expected = -abs(x) / 2.0 - np.log((1 + np.exp(-2 * t * abs(x))) / 2.0) / (2 * t)
            assert abs(float(log_cosh_kernel(x, t)) - expected) <= 1e-14
    # no overflow at extreme sharpness
    assert np.isfinite(log_cosh_kernel(1.0, 1e308))


def test_entropy_peaked_trace_form_identity(rng):
    # sum_i f(p_i) equals the trace form with the (D-1) g(-alpha) + g(1-alpha)
    # subtraction, for any spectrum
    alpha, t = 0.3, 1e3
    spec = Spectrum.from_values(random_probability_vector(rng, 9))
    direct = entropy(EntropicFamily.peaked(alpha, t), spec)
    kernel_sum = float(np.sum(log_cosh_kernel(spec.values - alpha, t)))
    shifted = (
        kernel_sum
        - (spec.dim - 1) * float(log_cosh_kernel(-alpha, t))
        - float(log_cosh_kernel(1.0 - alpha, t))
    )
    assert abs(direct - shifted) <= 1e-12
