"""Dense Hermitian linear algebra at small dimension.

Construction and validation of Hermitian operators, full eigenvalue
decomposition, and sorted spectra with cumulative partial sums.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-12


class NotHermitianError(ValueError):
    """Raised when a matrix fails the Hermiticity check."""


@dataclass(frozen=True)
class HermitianOperator:
    """A validated D x D complex Hermitian matrix.

    The matrix must be finite and is checked entrywise against its conjugate
    transpose on construction (absolute tolerance ``HERMITICITY_TOL``) and stored
    read-only; all operations on it are pure.
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        if mat.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        if not np.all(np.isfinite(mat)):
            raise ValueError("matrix has non-finite entries")
        dev = np.abs(mat - mat.conj().T)
        worst = np.unravel_index(np.argmax(dev), dev.shape)
        if dev[worst] > HERMITICITY_TOL:
            j, k = int(worst[0]), int(worst[1])
            raise NotHermitianError(
                f"matrix is not Hermitian: entries ({j},{k})/({k},{j}) "
                f"differ from conjugates by {dev[worst]:.3e}"
            )
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def to_json_dict(self) -> dict:
        """Row-major exchange format {"dim": D, "re": [[...]], "im": [[...]]}."""
        return {
            "dim": self.dim,
            "re": self.mat.real.tolist(),
            "im": self.mat.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "HermitianOperator":
        dim = int(data["dim"])
        re = np.asarray(data["re"], dtype=float)
        im = np.asarray(data["im"], dtype=float)
        if re.shape != (dim, dim) or im.shape != (dim, dim):
            raise ValueError(f"matrix data does not match declared dim {dim}")
        return cls(re + 1j * im)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted in decreasing order, with cumulative partial sums.

    ``degeneracy_tol`` is used only when counting multiplicities; the raw
    values are never snapped together.
    """

    values: np.ndarray
    cumsums: np.ndarray
    degeneracy_tol: float = 1e-9

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        cumsums = np.asarray(self.cumsums, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("spectrum must be a non-empty 1-d array")
        if np.any(np.diff(values) > 0):
            raise ValueError("spectrum values must be non-increasing")
        values = values.copy()
        cumsums = cumsums.copy()
        values.setflags(write=False)
        cumsums.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "cumsums", cumsums)

    @classmethod
    def from_values(cls, values, degeneracy_tol: float = 1e-9) -> "Spectrum":
        """Sort descending (stable) and accumulate partial sums."""
        values = np.asarray(values, dtype=float)
        ordered = np.sort(values, kind="stable")[::-1]
        return cls(ordered, np.cumsum(ordered), degeneracy_tol)

    @property
    def dim(self) -> int:
        return self.values.size

    @property
    def trace(self) -> float:
        return float(self.cumsums[-1])

    def partial_sum(self, i: int) -> float:
        """Sum of the i largest eigenvalues (1-based i)."""
        if not 1 <= i <= self.dim:
            raise IndexError(f"partial sum index {i} outside 1..{self.dim}")
        return float(self.cumsums[i - 1])

    def top_multiplicity(self) -> int:
        """Number of eigenvalues within degeneracy_tol of the largest."""
        return int(np.sum(self.values >= self.values[0] - self.degeneracy_tol))

    def count_above(self, level: float) -> int:
        """Number of eigenvalues strictly greater than ``level``."""
        return int(np.sum(self.values > level))

    def is_density_like(self, tol: float = 1e-10) -> bool:
        """True when nonnegative within tol and summing to one within tol."""
        return bool(self.values[-1] >= -tol and abs(self.trace - 1.0) <= tol)


def eigenvalues(op: HermitianOperator) -> Spectrum:
    """All eigenvalues of ``op``, sorted descending. Deterministic."""
    vals = np.linalg.eigvalsh(op.mat)
    return Spectrum.from_values(vals)


def eigensystem(op: HermitianOperator) -> tuple[Spectrum, np.ndarray]:
    """Eigenvalues (descending) and the matching eigenvector columns."""
    vals, vecs = np.linalg.eigh(op.mat)
    order = np.arange(vals.size)[::-1]
    return Spectrum.from_values(vals), vecs[:, order]


def is_psd(op: HermitianOperator, tol: float = 1e-10) -> bool:
    """True iff the smallest eigenvalue of ``op`` is >= -tol."""
    return bool(np.linalg.eigvalsh(op.mat)[0] >= -tol)
