import numpy as np
import pytest

from majorlens.bipartite import (
    BipartiteDensity,
    partial_trace,
    partial_transpose,
    tensor,
)
from majorlens.hermitian import HermitianOperator, eigenvalues
from majorlens.families import FamilySpec, build

from conftest import bell_matrix, random_density_matrix


def brute_force_pt(mat, d_a, d_b):
    """Partial transpose on B by explicit index loops (test oracle)."""
    out = np.zeros_like(mat)
    for i in range(d_a):
        for a in range(d_b):
            for j in range(d_a):
                for b in range(d_b):
                    out[i * d_b + a, j * d_b + b] = mat[i * d_b + b, j * d_b + a]
    return out


def test_bell_partial_trace():
    rho = BipartiteDensity.from_matrix(bell_matrix(), (2, 2))
    red = partial_trace(rho, "A")
    np.testing.assert_allclose(red.mat, np.eye(2) / 2.0, atol=1e-14)
    assert abs(red.trace() - 1.0) <= 1e-10


def test_product_partial_trace_exact(rng):
    a = random_density_matrix(rng, 3)
    b = random_density_matrix(rng, 4)
    rho = BipartiteDensity.from_matrix(np.kron(a, b), (3, 4))
    np.testing.assert_allclose(partial_trace(rho, "A").mat, a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(rho, "B").mat, b, atol=1e-12)


def test_family_reduced_diagonal():
    rho = build(FamilySpec(3, (0.5, 0.0)))
    red = partial_trace(rho, "A")
    np.testing.assert_allclose(
        np.diag(red.mat).real,
        [0.25 + 1.0 / 6.0, 0.25 + 1.0 / 6.0, 1.0 / 6.0],
        atol=1e-13,
    )


def test_bell_pt_minimum():
    rho = BipartiteDensity.from_matrix(bell_matrix(), (2, 2))
    oracle = np.linalg.eigvalsh(brute_force_pt(bell_matrix(), 2, 2))
    assert abs(oracle[0] - (-0.5)) <= 1e-14
    pt = partial_transpose(rho)
    np.testing.assert_allclose(pt.mat, brute_force_pt(bell_matrix(), 2, 2), atol=0)
    assert abs(np.linalg.eigvalsh(pt.mat)[0] - (-0.5)) <= 1e-14


def test_product_pt_psd(rng):
    a = random_density_matrix(rng, 3)
    b = random_density_matrix(rng, 3)
    rho = BipartiteDensity.from_matrix(np.kron(a, b), (3, 3))
    assert np.linalg.eigvalsh(partial_transpose(rho).mat)[0] >= -1e-10


def test_family_pt_minimum():
    rho = build(FamilySpec(3, (0.5, 0.0)))
    smallest = np.linalg.eigvalsh(partial_transpose(rho).mat)[0]
    assert abs(smallest - (1.0 / 18.0 - 0.25)) <= 1e-12


def test_pt_involution(rng):
    mat = random_density_matrix(rng, 12)
    rho = BipartiteDensity.from_matrix(mat, (3, 4))
    pt = partial_transpose(rho)
    twice = partial_transpose(BipartiteDensity((3, 4), pt, psd_tol=np.inf))
    np.testing.assert_allclose(twice.mat, mat, atol=1e-14)


def test_reduced_traces_match(rng):
    for dims in ((2, 2), (3, 4), (4, 3)):
        rho = BipartiteDensity.from_matrix(
            random_density_matrix(rng, dims[0] * dims[1]), dims
        )
        assert abs(partial_trace(rho, "A").trace() - 1.0) <= 1e-10
        assert abs(partial_trace(rho, "B").trace() - 1.0) <= 1e-10


def test_schmidt_symmetry(rng):
    v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    v /= np.linalg.norm(v)
    rho = BipartiteDensity.from_matrix(np.outer(v, v.conj()), (3, 4))
    spec_a = eigenvalues(partial_trace(rho, "A")).values
    spec_b = eigenvalues(partial_trace(rho, "B")).values
    np.testing.assert_allclose(spec_a, spec_b[:3], atol=1e-9)
    np.testing.assert_allclose(spec_b[3:], 0.0, atol=1e-9)


def test_separable_mixture_pt_psd(rng):
    dims = (3, 3)
    mats = [
        np.kron(random_density_matrix(rng, 3), random_density_matrix(rng, 3))
        for _ in range(6)
    ]
    w = rng.dirichlet(np.ones(6))
    rho = BipartiteDensity.from_matrix(sum(wi * m for wi, m in zip(w, mats)), dims)
    assert np.linalg.eigvalsh(partial_transpose(rho).mat)[0] >= -1e-10


def test_tensor_examples():
    eye2 = HermitianOperator(np.eye(2))
    np.testing.assert_allclose(tensor(eye2, eye2).mat, np.eye(4), atol=0)
    a = HermitianOperator(np.diag([1.0, 0.0]))
    b = HermitianOperator(np.diag([0.0, 1.0]))
    np.testing.assert_allclose(np.diag(tensor(a, b).mat).real, [0, 1, 0, 0], atol=0)
    eye3 = HermitianOperator(np.eye(3) / 3.0)
    spec = eigenvalues(tensor(eye3, eye3))
    np.testing.assert_allclose(spec.values, np.full(9, 1.0 / 9.0), atol=1e-15)


def test_density_validation():
    with pytest.raises(ValueError, match="trace"):
        BipartiteDensity.from_matrix(np.eye(4), (2, 2))
    with pytest.raises(ValueError, match="PSD"):
        BipartiteDensity.from_matrix(np.diag([1.5, -0.5, 0.0, 0.0]), (2, 2))
    with pytest.raises(ValueError, match="incompatible"):
        BipartiteDensity.from_matrix(np.eye(4) / 4.0, (2, 3))
    with pytest.raises(ValueError):
        partial_trace(BipartiteDensity.from_matrix(np.eye(4) / 4.0, (2, 2)), "C")


def test_density_keeps_its_spectrum(rng):
    for rho in (build(FamilySpec(3, (0.4, 0.1))),
                BipartiteDensity.from_matrix(random_density_matrix(rng, 6), (2, 3))):
        kept, fresh = rho.spectrum(), eigenvalues(rho.op)
        np.testing.assert_array_equal(kept.values, fresh.values)
        np.testing.assert_array_equal(kept.cumsums, fresh.cumsums)


def test_density_json_roundtrip():
    rho = build(FamilySpec(3, (0.4, 0.1)))
    back = BipartiteDensity.from_json_dict(rho.to_json_dict())
    assert back.dims == rho.dims
    np.testing.assert_allclose(back.op.mat, rho.op.mat, atol=0)
    data = rho.to_json_dict()
    del data["dims"]
    with pytest.raises(ValueError, match="dims"):
        BipartiteDensity.from_json_dict(data)
