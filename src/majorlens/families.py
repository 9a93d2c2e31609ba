"""The two-qudit mixed-state families with closed-form theory.

States mix n <= d-1 exchange-antisymmetric (or symmetric) components
|0i^-> = (|0i> - |i0>)/sqrt(2) with weights x_i on top of the maximally
mixed background: rho = sum_i x_i |0i^-><0i^-| + y I (x) I, with
y = (1 - sum_i x_i)/d^2.

Everything about these states is analytic: the spectrum, the reduced
spectrum, the smallest partial-transpose eigenvalue y - |x|/2 (negative
exactly on the entangled set), an explicit separable decomposition on the
complement, and every detection threshold along the standard rays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bipartite import BipartiteDensity
from .hermitian import HermitianOperator, Spectrum

REGION_TOL = 1e-12

_EXCHANGES = ("antisymmetric", "symmetric")


class RegionError(ValueError):
    """Raised when family parameters leave the positivity region."""


@dataclass(frozen=True)
class FamilySpec:
    """Parameters (d, x, exchange) of one family state.

    Construction does not require the point to lie in the positivity
    region R = {y >= 0, x_i >= -y}; scanning code records out-of-region
    points explicitly. ``build`` and the analytic accessors do require it.
    """

    d: int
    x: tuple[float, ...]
    exchange: str = "antisymmetric"

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"subsystem dimension must be >= 2, got {self.d}")
        x = tuple(float(v) for v in np.atleast_1d(np.asarray(self.x, dtype=float)))
        if not 1 <= len(x) <= self.d - 1:
            raise ValueError(f"need 1 <= n <= d-1 weights, got n={len(x)} for d={self.d}")
        if not all(map(math.isfinite, x)):
            raise ValueError(f"weights must be finite, got {x}")
        if self.exchange not in _EXCHANGES:
            raise ValueError(f"exchange must be one of {_EXCHANGES}")
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def dim(self) -> int:
        return self.d * self.d

    @property
    def y(self) -> float:
        return (1.0 - sum(self.x)) / self.dim

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.x))

    def region_violation(self, tol: float = REGION_TOL) -> str | None:
        """Name of the violated positivity constraint, or None when inside R."""
        y = self.y
        if y < -tol:
            return f"sum(x) = {sum(self.x)!r} exceeds 1 (background weight y < 0)"
        for i, v in enumerate(self.x):
            if v < -y - tol:
                return f"x[{i + 1}] = {v!r} below -y = {-y!r}"
        return None

    def in_region(self, tol: float = REGION_TOL) -> bool:
        return self.region_violation(tol) is None


def family_matrix(spec: FamilySpec) -> HermitianOperator:
    """The d^2 x d^2 matrix of the family state (no positivity check)."""
    d, y = spec.d, spec.y
    sign = -1.0 if spec.exchange == "antisymmetric" else 1.0
    mat = np.zeros((spec.dim, spec.dim), dtype=np.complex128)
    np.fill_diagonal(mat, y)
    for i, xi in enumerate(spec.x, start=1):
        top, bot = i, i * d  # |0 i> and |i 0> rows
        mat[top, top] += xi / 2.0
        mat[bot, bot] += xi / 2.0
        mat[top, bot] += sign * xi / 2.0
        mat[bot, top] += sign * xi / 2.0
    return HermitianOperator(mat)


def build(spec: FamilySpec) -> BipartiteDensity:
    """Validated density for an in-region spec; raises RegionError outside."""
    reason = spec.region_violation()
    if reason is not None:
        raise RegionError(reason)
    return BipartiteDensity((spec.d, spec.d), family_matrix(spec))


def analytic_spectrum(spec: FamilySpec) -> Spectrum:
    """Eigenvalues without diagonalization: x_i + y and y ((d^2-n)-fold)."""
    _require_region(spec)
    x = np.asarray(spec.x, dtype=float)
    vals = np.concatenate([x + spec.y, np.full(spec.dim - spec.n, spec.y)])
    return Spectrum.from_values(vals)


def analytic_reduced(spec: FamilySpec) -> Spectrum:
    """Reduced-density eigenvalues: sum(x)/2 + y d, x_i/2 + y d, and y d
    ((d-1-n)-fold)."""
    _require_region(spec)
    x = np.asarray(spec.x, dtype=float)
    yd = spec.y * spec.d
    vals = np.concatenate([[x.sum() / 2.0 + yd], x / 2.0 + yd,
                           np.full(spec.d - 1 - spec.n, yd)])
    return Spectrum.from_values(vals)


def pt_min_eigenvalue(spec: FamilySpec) -> float:
    """Smallest partial-transpose eigenvalue, y - |x|/2.

    Negative if and only if the state is entangled (for these families the
    Peres criterion is exact in both directions).
    """
    _require_region(spec)
    return spec.y - spec.norm / 2.0


def _require_region(spec: FamilySpec) -> None:
    reason = spec.region_violation()
    if reason is not None:
        raise RegionError(reason)


@dataclass(frozen=True)
class SeparabilityWitness:
    """Explicit separable decomposition data for a PPT family state.

    Each component carries weight q_i = x_i^2/|x|^2 and is separable when
    x_i^2 <= 4 q_i y^2; ``margins`` stores 4 q_i y^2 - x_i^2.
    """

    weights: tuple[float, ...]
    margins: tuple[float, ...]
    valid: bool


def separability_witness(spec: FamilySpec, tol: float = 1e-12) -> SeparabilityWitness | None:
    """Witness of separability when the partial transpose is PSD, else None."""
    if pt_min_eigenvalue(spec) < 0.0:
        return None
    x = np.asarray(spec.x, dtype=float)
    norm_sq = float(np.dot(x, x))
    if norm_sq == 0.0:
        weights = np.full(spec.n, 1.0 / spec.n)
    else:
        weights = x * x / norm_sq
    margins = 4.0 * weights * spec.y**2 - x * x
    valid = (
        bool(np.all(margins >= -tol))
        and abs(float(weights.sum()) - 1.0) <= tol
        and bool(np.all(weights >= 0.0))
    )
    return SeparabilityWitness(tuple(weights.tolist()), tuple(margins.tolist()), valid)


@dataclass(frozen=True)
class ThresholdSet:
    """Closed-form detection bounds for given (d, n).

    ``peres_*`` bound the exact entanglement border; ``disorder_*`` bound the
    majorization-violation region. ``vertices`` are the corners of the
    positivity region R.
    """

    d: int
    n: int
    peres_axis: float
    peres_diag: float
    disorder_i1_axis: float
    disorder_in_diag: float
    vertices: tuple[tuple[float, ...], ...]

    @property
    def _scale(self) -> float:
        return self.d**2 / (2.0 * (self.d - 1.0))

    def peres_radius(self, gamma: float) -> float:
        """|x| onset of entanglement at angle gamma to the all-equal ray."""
        return 1.0 / (np.sqrt(self.n) * np.cos(gamma) + self.d**2 / 2.0)

    def disorder_i1_curve(self, x2: float) -> float:
        """x_1 onset of the first-sum violation at given x_2 >= 0 (n = 2)."""
        s = self._scale
        return (1.0 + x2 * (s - 1.0)) / (s + 1.0)

    def disorder_i1_mixed_curve(self, x2: float) -> float:
        """x_1 onset of the first-sum violation for x_2 <= 0 (n = 2)."""
        return (1.0 - x2) / (1.0 + self._scale)

    def disorder_i2_curve(self, x2: float) -> float:
        """x_1 onset of the second-sum violation at given x_2 (n = 2,
        x_1 >= x_2 >= 0)."""
        return 1.0 - x2 * (1.0 + self._scale / 2.0)


def thresholds(d: int, n: int) -> ThresholdSet:
    """Evaluate every closed-form bound for subsystem dimension d and n
    mixed components."""
    if d < 2 or not 1 <= n <= d - 1:
        raise ValueError(f"need d >= 2 and 1 <= n <= d-1, got d={d}, n={n}")
    scale = d**2 / (2.0 * (d - 1.0))
    verts = []
    for i in range(n):
        e = [0.0] * n
        e[i] = 1.0
        verts.append(tuple(e))
    verts.append(tuple([-1.0 / (d**2 - n)] * n))
    return ThresholdSet(
        d=d,
        n=n,
        peres_axis=1.0 / (1.0 + d**2 / 2.0),
        peres_diag=1.0 / (n + np.sqrt(n) * d**2 / 2.0),
        disorder_i1_axis=1.0 / (1.0 + scale),
        disorder_in_diag=n / (n**2 + scale),
        vertices=tuple(verts),
    )


def family_partial_sums(d: int, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading d partial sums of the full and reduced spectra, vectorized.

    ``xs`` has shape (N, n); returns two (N, d) arrays. Exact for any sign
    pattern of the weights: the top d eigenvalues of the full state are the
    top d of {x_i + y} union d copies of y, since the y level is
    (d^2 - n >= d)-fold degenerate and separates positive from depleted
    components.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    count, n = xs.shape
    if not 1 <= n <= d - 1:
        raise ValueError(f"need 1 <= n <= d-1 columns, got {n} for d={d}")
    y = (1.0 - xs.sum(axis=1)) / d**2
    head = np.concatenate([xs + y[:, None], np.repeat(y[:, None], d, axis=1)], axis=1)
    head = -np.sort(-head, axis=1)[:, :d]
    reduced = np.concatenate(
        [
            (xs.sum(axis=1) / 2.0 + d * y)[:, None],
            xs / 2.0 + d * y[:, None],
            np.repeat((d * y)[:, None], d - 1 - n, axis=1),
        ],
        axis=1,
    )
    reduced = -np.sort(-reduced, axis=1)
    return np.cumsum(head, axis=1), np.cumsum(reduced, axis=1)


def violation_predictor(spec: FamilySpec, tol: float = 1e-10) -> tuple[int, ...]:
    """Analytically violated partial-sum indices, sorted.

    Nonnegative weights use the closed-form per-index inequality on the
    descending-sorted weights; the documented n = 2 mixed-sign case uses its
    first-sum bound; anything else falls back to the exact spectral sums.
    """
    _require_region(spec)
    xs = np.sort(np.asarray(spec.x, dtype=float))[::-1]
    d, n, y = spec.d, spec.n, spec.y
    if xs[-1] >= -tol:
        # slack_i = x_i - (suffix_sum_i / 2 + i y (d-1)) equals the partial-sum gap
        suffix = np.cumsum(xs[::-1])[::-1]
        i_idx = np.arange(1, n + 1, dtype=float)
        slack = xs - (suffix / 2.0 + i_idx * y * (d - 1.0))
        return tuple(int(i) + 1 for i in np.nonzero(slack > tol)[0])
    if n == 2 and xs[0] >= -tol:
        # x_1 >= 0 >= x_2: only the first sum can be violated inside R
        slack = xs[0] / 2.0 - y * (d - 1.0)
        return (1,) if slack > tol else ()
    cs_rho, cs_red = family_partial_sums(d, xs[None, :])
    return tuple(int(i) + 1 for i in np.nonzero(cs_rho[0] > cs_red[0] + tol)[0])
