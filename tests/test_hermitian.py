import numpy as np
import pytest

from majorlens.hermitian import (
    HermitianOperator,
    NotHermitianError,
    Spectrum,
    eigensystem,
    eigenvalues,
    is_psd,
)
from majorlens.families import FamilySpec, family_matrix

from conftest import random_unitary, random_density_matrix


def antisym_family_9x9(x1, x2):
    """The d=3 family matrix, assembled by hand (independent of the library)."""
    y = (1.0 - x1 - x2) / 9.0
    mat = y * np.eye(9, dtype=complex)
    for i, xi in ((1, x1), (2, x2)):
        v = np.zeros(9)
        v[i] = 1.0 / np.sqrt(2.0)       # |0 i>
        v[3 * i] = -1.0 / np.sqrt(2.0)  # |i 0>
        mat += xi * np.outer(v, v)
    return mat


def test_identity_spectrum():
    spec = eigenvalues(HermitianOperator(np.eye(4)))
    np.testing.assert_allclose(spec.values, [1, 1, 1, 1])
    np.testing.assert_allclose(spec.cumsums, [1, 2, 3, 4])


def test_offdiagonal_two_by_two():
    spec = eigenvalues(HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]])))
    np.testing.assert_allclose(spec.values, [1.0, -1.0], atol=1e-14)


def test_family_spectrum_nine_by_nine():
    spec = eigenvalues(HermitianOperator(antisym_family_9x9(0.5, 0.0)))
    expected = [5.0 / 9.0] + [1.0 / 18.0] * 8
    np.testing.assert_allclose(spec.values, expected, atol=1e-13)


def test_non_hermitian_error_names_entry():
    mat = np.eye(3, dtype=complex)
    mat[0, 2] = 1.0
    with pytest.raises(NotHermitianError, match=r"\(0,2\)"):
        HermitianOperator(mat)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        HermitianOperator(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_rejects_non_finite_entries(bad):
    # NaN deviations compare false against the Hermiticity tolerance
    mat = np.eye(3, dtype=complex) / 3.0
    mat[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        HermitianOperator(mat)


@pytest.mark.parametrize("dim", [2, 3, 5, 9, 17, 33, 64])
def test_reconstruction_and_trace(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    op = HermitianOperator(a + a.conj().T)
    spec, vecs = eigensystem(op)
    recon = vecs @ np.diag(spec.values) @ vecs.conj().T
    assert np.max(np.abs(op.mat - recon)) <= 1e-10
    assert abs(spec.trace - op.trace()) <= 1e-10
    assert np.all(np.diff(spec.values) <= 0)


def test_unitary_invariance(rng):
    for dim in (3, 6, 9):
        mat = random_density_matrix(rng, dim)
        u = random_unitary(rng, dim)
        before = eigenvalues(HermitianOperator(mat))
        after = eigenvalues(HermitianOperator(u @ mat @ u.conj().T))
        np.testing.assert_allclose(before.values, after.values, atol=1e-9)
        # density spectra: nonnegative, so partial sums are non-decreasing
        assert np.all(np.diff(after.cumsums) >= -1e-12)


def test_deterministic_output(rng):
    a = rng.standard_normal((8, 8))
    op = HermitianOperator(a + a.T)
    s1 = eigenvalues(op)
    s2 = eigenvalues(op)
    assert np.array_equal(s1.values, s2.values)


def test_is_psd_examples():
    assert is_psd(HermitianOperator(np.eye(4) / 4.0))
    outside = family_matrix(FamilySpec(3, (1.2, 0.0)))
    assert not is_psd(outside)
    vertex = family_matrix(FamilySpec(3, (-1.0 / 7.0, -1.0 / 7.0)))
    assert is_psd(vertex)
    smallest = eigenvalues(vertex).values[-1]
    assert abs(smallest) <= 1e-12


def test_spectrum_helpers():
    spec = Spectrum.from_values([0.5, 0.2, 0.5 - 1e-12, 0.3 - 1e-12, 0.3])
    assert spec.top_multiplicity() == 2
    assert spec.count_above(0.25) == 4
    assert spec.partial_sum(1) == spec.values[0]
    with pytest.raises(IndexError):
        spec.partial_sum(6)
    with pytest.raises(IndexError):
        spec.partial_sum(0)


def test_spectrum_rejects_increasing():
    with pytest.raises(ValueError):
        Spectrum(np.array([0.0, 1.0]), np.array([0.0, 1.0]))


def test_json_roundtrip(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    op = HermitianOperator(a + a.conj().T)
    back = HermitianOperator.from_json_dict(op.to_json_dict())
    np.testing.assert_allclose(back.mat, op.mat, atol=0)
    bad = op.to_json_dict()
    bad["dim"] = 5
    with pytest.raises(ValueError):
        HermitianOperator.from_json_dict(bad)
