"""Bipartite structure on top of Hermitian operators.

Tensor products, partial trace, partial transpose and density validation.
Basis convention: the product state |i>_A |j>_B maps to row i * d_B + j.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hermitian import HermitianOperator, Spectrum

TRACE_TOL = 1e-10


@dataclass(frozen=True)
class BipartiteDensity:
    """A density operator on C^{d_A} x C^{d_B}.

    Validates unit trace and positive semidefiniteness (within psd_tol)
    on construction, and keeps the spectrum the PSD check computes.
    """

    dims: tuple[int, int]
    op: HermitianOperator
    psd_tol: float = 1e-10
    _spectrum: Spectrum = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d_a, d_b = self.dims
        if d_a < 1 or d_b < 1:
            raise ValueError(f"factor dimensions must be positive, got {self.dims}")
        if d_a * d_b != self.op.dim:
            raise ValueError(
                f"dims {self.dims} incompatible with operator dimension {self.op.dim}"
            )
        tr = self.op.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density trace is {tr!r}, expected 1")
        values = np.linalg.eigvalsh(self.op.mat)
        smallest = float(values[0])
        if smallest < -self.psd_tol:
            raise ValueError(f"density is not PSD: min eigenvalue {smallest:.3e}")
        object.__setattr__(self, "dims", (int(d_a), int(d_b)))
        object.__setattr__(self, "_spectrum", Spectrum.from_values(values))

    @classmethod
    def from_matrix(cls, mat, dims: tuple[int, int], psd_tol: float = 1e-10) -> "BipartiteDensity":
        return cls(tuple(dims), HermitianOperator(np.asarray(mat)), psd_tol)

    @property
    def d_a(self) -> int:
        return self.dims[0]

    @property
    def d_b(self) -> int:
        return self.dims[1]

    @property
    def dim(self) -> int:
        return self.op.dim

    def spectrum(self) -> Spectrum:
        """The eigenvalues of ``op``, descending; equal to ``eigenvalues(op)``."""
        return self._spectrum

    def to_json_dict(self) -> dict:
        data = self.op.to_json_dict()
        data["dims"] = [self.d_a, self.d_b]
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "BipartiteDensity":
        if "dims" not in data:
            raise ValueError("density JSON must carry a 'dims' entry [d_A, d_B]")
        op = HermitianOperator.from_json_dict(data)
        d_a, d_b = (int(v) for v in data["dims"])
        return cls((d_a, d_b), op)


def partial_trace(rho: BipartiteDensity, keep: str = "A") -> HermitianOperator:
    """Reduced density of one subsystem: (rho_A)_{ij} = sum_b rho_{(i b),(j b)}."""
    d_a, d_b = rho.dims
    four = rho.op.mat.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return HermitianOperator(np.einsum("ibjb->ij", four))
    if keep == "B":
        return HermitianOperator(np.einsum("aiaj->ij", four))
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(rho: BipartiteDensity) -> HermitianOperator:
    """Transpose subsystem B only: (rho^PT)_{(i a),(j b)} = rho_{(i b),(j a)}.

    The result is Hermitian with unit trace but in general not PSD.
    Transposing A instead yields the same spectrum.
    """
    d_a, d_b = rho.dims
    four = rho.op.mat.reshape(d_a, d_b, d_a, d_b)
    return HermitianOperator(four.transpose(0, 3, 2, 1).reshape(rho.dim, rho.dim))


def tensor(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product under the row = i * d_B + j convention."""
    return HermitianOperator(np.kron(a.mat, b.mat))
