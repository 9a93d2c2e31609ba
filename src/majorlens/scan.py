"""Region scanning, threshold bisection, curve sweeps and area fractions.

Grid points are classified in row-major blocks of SCAN_BLOCK points. Each
point's spectra, majorization report, von Neumann difference and sector
label come first, one point at a time; then the Tsallis sweeps and the
peaked searches of the block's in-region points run together, one batched
sweep each. Every point's verdict depends on that point alone, so the
output does not depend on the block size, and repeated scans are
byte-identical.

Sector labels are derived, not drawn: "outside" (positivity violated),
"separable" (partial transpose PSD), "entangled" (negative PT eigenvalue,
no violated partial sum), and "entangled-v<i><j>..." listing the violated
partial-sum indices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import criteria, families
from .bipartite import partial_trace
from .criteria import DetectionVerdict
from .entropy import EntropicFamily, conditional_from_spectra
from .hermitian import Spectrum, eigenvalues

BISECT_TOL = 1e-5
PRE_SCAN_POINTS = 33
BISECT_MAX_STEPS = 64
# grid points per batched sweep. It bounds the sweep's working arrays (about
# SCAN_BLOCK * 96 q values * (d^2 + d) eigenvalues per temporary) on 801^2
# grids; a 101^2 d=3 scan runs as fast with 64 as with 256, but 256 raised
# its peak RSS by 12%, 64 by 3%
SCAN_BLOCK = 64


@dataclass(frozen=True)
class AxisSpec:
    """One scanned direction: the 1-based weight components it drives (tied
    together), and the sampled range."""

    components: tuple[int, ...]
    start: float
    stop: float
    count: int

    def __post_init__(self):
        comps = tuple(int(c) for c in self.components)
        if not comps:
            raise ValueError("axis must drive at least one component")
        if self.count < 2:
            raise ValueError("axis step count must be >= 2")
        object.__setattr__(self, "components", comps)

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)

    def cell_centers(self) -> np.ndarray:
        step = (self.stop - self.start) / self.count
        return self.start + (np.arange(self.count) + 0.5) * step


@dataclass(frozen=True)
class GridSpec:
    """A 1- or 2-axis grid over family parameters at fixed (d, n)."""

    d: int
    n: int
    axes: tuple[AxisSpec, ...]
    fixed: tuple[float, ...] | None = None
    exchange: str = "antisymmetric"

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 2:
            raise ValueError("grid needs 1 or 2 axes")
        seen: set[int] = set()
        for axis in self.axes:
            for c in axis.components:
                if not 1 <= c <= self.n:
                    raise ValueError(f"axis component {c} outside 1..{self.n}")
                if c in seen:
                    raise ValueError(f"component {c} driven by two axes")
                seen.add(c)
        fixed = self.fixed if self.fixed is not None else (0.0,) * self.n
        if len(fixed) != self.n:
            raise ValueError(f"fixed vector must have n={self.n} entries")
        object.__setattr__(self, "fixed", tuple(float(v) for v in fixed))

    def x_at(self, coords: tuple[float, ...]) -> tuple[float, ...]:
        x = list(self.fixed)
        for axis, value in zip(self.axes, coords):
            for c in axis.components:
                x[c - 1] = float(value)
        return tuple(x)

    def spec_at(self, coords: tuple[float, ...]) -> families.FamilySpec:
        return families.FamilySpec(self.d, self.x_at(coords), self.exchange)

    def points(self) -> list[tuple[float, ...]]:
        """Row-major coordinate tuples (first axis outermost)."""
        grids = [axis.values() for axis in self.axes]
        if len(grids) == 1:
            return [(float(v),) for v in grids[0]]
        return [(float(u), float(v)) for u in grids[0] for v in grids[1]]


@dataclass(frozen=True)
class ScanOptions:
    """Which detectors to run at each grid point, and their parameters."""

    side: str = "A"
    von_neumann: bool = True
    tsallis: bool = True
    peaked: bool = True
    q_grid: np.ndarray | None = None
    alphas: tuple[float, ...] | None = None
    ts: tuple[float, ...] | None = None
    majorization_tol: float = criteria.MAJORIZATION_TOL
    threshold: float = criteria.DETECTION_THRESHOLD
    numeric: bool = False


@dataclass(frozen=True)
class ScanRecord:
    """Full classification of one grid point."""

    coords: tuple[float, ...]
    x: tuple[float, ...]
    in_region: bool
    sigma: float
    violated: tuple[int, ...]
    first_violation: int | None
    vn_diff: float
    tsallis: DetectionVerdict | None
    peaked: DetectionVerdict | None
    sector: str


def _sector_label(in_region: bool, sigma: float, violated: tuple[int, ...]) -> str:
    if not in_region:
        return "outside"
    if sigma >= 0.0:
        return "separable"
    if not violated:
        return "entangled"
    return "entangled-" + "".join(f"v{i}" for i in violated)


def _point_spectra(spec: families.FamilySpec, numeric: bool) -> tuple[Spectrum, Spectrum, Spectrum]:
    if numeric:
        rho = families.build(spec)
        return (
            rho.spectrum(),
            eigenvalues(partial_trace(rho, "A")),
            eigenvalues(partial_trace(rho, "B")),
        )
    full = families.analytic_spectrum(spec)
    reduced = families.analytic_reduced(spec)
    return full, reduced, reduced


def _alphas(reduced: Spectrum, options: ScanOptions) -> tuple[float, ...]:
    """The peak locations searched at a point: the options' or the recommended ones."""
    return criteria.recommended_alphas(reduced) if options.alphas is None else options.alphas


def _classify_block(points, options: ScanOptions) -> list[ScanRecord]:
    """Records of the (coords, spec) pairs of ``points``, in their order.

    The per-point work runs first; the Tsallis and peaked detectors then run
    once on all in-region points of the block.
    """
    staged = []  # (coords, spec, sigma, majorization report or None, vn)
    fulls, reduceds = [], []
    for coords, spec in points:
        sigma = spec.y - spec.norm / 2.0
        if not spec.in_region():
            staged.append((coords, spec, sigma, None, math.nan))
            continue
        full, red_a, red_b = _point_spectra(spec, options.numeric)
        reduced = red_a if options.side == "A" else red_b
        report = criteria.majorization_compare(full, reduced, options.side,
                                               options.majorization_tol)
        vn = math.nan
        if options.von_neumann:
            vn = conditional_from_spectra(
                EntropicFamily.von_neumann(), full, reduced, options.side
            ).difference
        staged.append((coords, spec, sigma, report, vn))
        fulls.append(full)
        reduceds.append(reduced)
    tsallis = peaked = iter(())
    if options.tsallis:
        tsallis = iter(criteria.tsallis_sweep_batch(fulls, reduceds, options.q_grid,
                                                    threshold=options.threshold))
    if options.peaked:
        peaked = iter(criteria.peaked_search_batch(
            fulls, reduceds, [_alphas(r, options) for r in reduceds], options.ts,
            options.threshold,
        ))
    records = []
    for coords, spec, sigma, report, vn in staged:
        if report is None:
            records.append(ScanRecord(coords, spec.x, False, sigma, (), None, math.nan,
                                      None, None, _sector_label(False, sigma, ())))
            continue
        records.append(ScanRecord(
            coords, spec.x, True, sigma, report.violated_indices, report.first_violation,
            vn, next(tsallis, None), next(peaked, None),
            _sector_label(True, sigma, report.violated_indices),
        ))
    return records


def classify_point(spec: families.FamilySpec, options: ScanOptions | None = None) -> ScanRecord:
    """Run every enabled criterion at one parameter point.

    Out-of-region points are recorded with in_region=False and no detector
    output. Family states have identical A and B reductions, so ``side``
    only selects the report labelling. This is the one-point case of
    ``grid_scan``.
    """
    return _classify_block([((), spec)], options or ScanOptions())[0]


def grid_scan(grid: GridSpec, options: ScanOptions | None = None) -> list[ScanRecord]:
    """Classify every grid point, row-major, in blocks of SCAN_BLOCK points."""
    options = options or ScanOptions()
    coords = grid.points()
    records = []
    for start in range(0, len(coords), SCAN_BLOCK):
        block = coords[start:start + SCAN_BLOCK]
        records.extend(_classify_block([(c, grid.spec_at(c)) for c in block], options))
    if not any(r.in_region for r in records):
        raise ValueError("grid does not intersect the positivity region")
    return records


# ---------------------------------------------------------------------------
# threshold bisection along rays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RaySpec:
    """One-parameter path x(s) = origin + s * direction through a family."""

    d: int
    n: int
    origin: tuple[float, ...]
    direction: tuple[float, ...]
    lo: float
    hi: float
    exchange: str = "antisymmetric"

    def __post_init__(self):
        if len(self.origin) != self.n or len(self.direction) != self.n:
            raise ValueError("origin and direction must have n entries")
        if not self.hi > self.lo:
            raise ValueError("need hi > lo")

    def spec_at(self, s: float) -> families.FamilySpec:
        x = tuple(o + s * u for o, u in zip(self.origin, self.direction))
        return families.FamilySpec(self.d, x, self.exchange)

    @classmethod
    def axis(cls, d: int, n: int = 1, lo: float = 0.0, hi: float = 1.0) -> "RaySpec":
        direction = (1.0,) + (0.0,) * (n - 1)
        return cls(d, n, (0.0,) * n, direction, lo, hi)

    @classmethod
    def diagonal(cls, d: int, n: int, lo: float = 0.0, hi: float | None = None) -> "RaySpec":
        hi = 1.0 / n if hi is None else hi
        return cls(d, n, (0.0,) * n, (1.0,) * n, lo, hi)


def _criterion_predicate(name: str, options: ScanOptions):
    """The criterion's detection flags of a list of specs, as one batch."""
    def peres(specs):
        return [families.pt_min_eigenvalue(spec) < 0.0 for spec in specs]

    def disorder(specs):
        return [bool(families.violation_predictor(spec, options.majorization_tol))
                for spec in specs]

    def spectra(specs):
        pairs = [_point_spectra(spec, options.numeric)[:2] for spec in specs]
        return [full for full, _ in pairs], [reduced for _, reduced in pairs]

    def vn(specs):
        return [conditional_from_spectra(EntropicFamily.von_neumann(), full, reduced).difference
                < options.threshold for full, reduced in zip(*spectra(specs))]

    def tsallis(specs):
        fulls, reduceds = spectra(specs)
        return [verdict.detected for verdict in criteria.tsallis_sweep_batch(
            fulls, reduceds, options.q_grid, threshold=options.threshold)]

    def peaked(specs):
        fulls, reduceds = spectra(specs)
        return [verdict.detected for verdict in criteria.peaked_search_batch(
            fulls, reduceds, [_alphas(r, options) for r in reduceds], options.ts,
            options.threshold)]

    table = {"peres": peres, "disorder": disorder, "vn": vn,
             "tsallis": tsallis, "peaked": peaked}
    if name not in table:
        raise ValueError(f"unknown criterion {name!r}; choose from {sorted(table)}")
    return table[name]


def bisect_threshold(
    ray: RaySpec,
    criterion: str,
    options: ScanOptions | None = None,
    tol: float = BISECT_TOL,
    pre_scan: int = PRE_SCAN_POINTS,
) -> float | None:
    """Parameter value where the criterion flips along the ray, or None.

    A coarse pre-scan, evaluated as one batch, verifies the predicate flips
    exactly once (monotone along the ray); a non-monotone pattern raises
    with a diagnostic, and a constant pattern returns None ("no
    threshold"). Bisection stops once the bracket is at most ``tol`` > 0
    wide, or after BISECT_MAX_STEPS halvings: 2^-64 of a pre-scan step is
    below double precision at parameters of the ray's own scale, where
    ``hi - lo > tol`` could otherwise never fail.
    """
    if not tol > 0.0:
        raise ValueError(f"bisection tol must be > 0, got {tol!r}")
    predicate = _criterion_predicate(criterion, options or ScanOptions())
    ss = np.linspace(ray.lo, ray.hi, pre_scan)
    flags = predicate([ray.spec_at(s) for s in ss])
    flips = [i for i in range(len(flags) - 1) if flags[i] != flags[i + 1]]
    if not flips:
        return None
    if len(flips) > 1:
        raise ValueError(
            f"criterion {criterion!r} is not monotone along the ray: "
            f"flips at s ~ {[float(ss[i]) for i in flips]}"
        )
    lo, hi = float(ss[flips[0]]), float(ss[flips[0] + 1])
    state_lo = flags[flips[0]]
    for _ in range(BISECT_MAX_STEPS):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if predicate([ray.spec_at(mid)])[0] == state_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# curve sweeps (detector response along q, t or alpha)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvePoint:
    parameter: float
    s_rho: float
    s_reduced: float
    difference: float
    normalized: float


def curve_sweep(
    spec: families.FamilySpec,
    axis: str,
    values,
    alpha: float = 0.28,
    t: float = 1e3,
    side: str = "A",
) -> list[CurvePoint]:
    """Conditional entropy along one family parameter.

    axis = "q" sweeps the Tsallis index; "t" sweeps the peak sharpness at
    fixed alpha; "alpha" sweeps the peak location at fixed t.
    """
    full, reduced, _ = _point_spectra(spec, numeric=False)
    rows = []
    for v in np.asarray(values, dtype=float):
        if axis == "q":
            fam = EntropicFamily.tsallis(v)
        elif axis == "t":
            fam = EntropicFamily.peaked(alpha, v)
        elif axis == "alpha":
            fam = EntropicFamily.peaked(v, t)
        else:
            raise ValueError(f"axis must be 'q', 't' or 'alpha', got {axis!r}")
        rep = conditional_from_spectra(fam, full, reduced, side)
        rows.append(CurvePoint(float(v), rep.s_rho, rep.s_reduced,
                               rep.difference, rep.normalized))
    return rows


# ---------------------------------------------------------------------------
# area fractions (vectorized cell-center counting)
# ---------------------------------------------------------------------------

def _wilson(hits: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval: (point estimate, half width)."""
    if total == 0:
        return math.nan, math.nan
    phat = hits / total
    denom = total + z * z
    half = z * math.sqrt(hits * (total - hits) / total + z * z / 4.0) / denom
    return phat, half


def area_fractions(grid: GridSpec, majorization_tol: float = criteria.MAJORIZATION_TOL) -> dict:
    """Cell-counting estimates of the region composition on a 2-axis grid.

    Cells are classified at their centers. Fractions come with Wilson-score
    95% half-widths. Reported keys include the entangled share of the
    region, the disorder-detected share of the entangled set, and the
    first-violated-index shares of both the entangled set and the region.
    """
    if len(grid.axes) != 2:
        raise ValueError("area_fractions needs a 2-axis grid")
    a_vals = grid.axes[0].cell_centers()
    b_vals = grid.axes[1].cell_centers()
    aa, bb = np.meshgrid(a_vals, b_vals, indexing="ij")
    count = aa.size
    xs = np.empty((count, grid.n), dtype=float)
    xs[:, :] = np.asarray(grid.fixed, dtype=float)[None, :]
    for c in grid.axes[0].components:
        xs[:, c - 1] = aa.ravel()
    for c in grid.axes[1].components:
        xs[:, c - 1] = bb.ravel()

    d = grid.d
    y = (1.0 - xs.sum(axis=1)) / d**2
    in_region = (y >= -families.REGION_TOL) & np.all(xs >= -(y[:, None]) - families.REGION_TOL, axis=1)
    sigma = y - np.linalg.norm(xs, axis=1) / 2.0
    cs_rho, cs_red = families.family_partial_sums(d, xs)
    vio_mask = cs_rho > cs_red + majorization_tol
    any_vio = vio_mask.any(axis=1)
    first = np.where(any_vio, np.argmax(vio_mask, axis=1) + 1, 0)

    n_region = int(in_region.sum())
    entangled = in_region & (sigma < 0.0)
    n_ent = int(entangled.sum())
    n_sep = n_region - n_ent
    n_disorder = int((entangled & any_vio).sum())

    ent_frac, ent_err = _wilson(n_ent, n_region)
    sep_frac, sep_err = _wilson(n_sep, n_region)
    dis_frac, dis_err = _wilson(n_disorder, n_ent)

    shares_ent: dict[int, tuple[float, float]] = {}
    shares_region: dict[int, tuple[float, float]] = {}
    for idx in sorted(set(first[entangled & any_vio].tolist())):
        hits = int((entangled & (first == idx)).sum())
        shares_ent[idx] = _wilson(hits, n_ent)
        shares_region[idx] = _wilson(hits, n_region)

    return {
        "cells_total": int(count),
        "cells_in_region": n_region,
        "entangled_of_region": ent_frac,
        "entangled_of_region_err": ent_err,
        "separable_of_region": sep_frac,
        "separable_of_region_err": sep_err,
        "disorder_of_entangled": dis_frac,
        "disorder_of_entangled_err": dis_err,
        "first_index_of_entangled": {k: v[0] for k, v in shares_ent.items()},
        "first_index_of_entangled_err": {k: v[1] for k, v in shares_ent.items()},
        "first_index_of_region": {k: v[0] for k, v in shares_region.items()},
        "first_index_of_region_err": {k: v[1] for k, v in shares_region.items()},
    }


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _axis_label(axis: AxisSpec) -> str:
    comps = axis.components
    if len(comps) == 1:
        return f"x{comps[0]}"
    return "x" + "_".join(str(c) for c in comps)


def _defaults_header(options: ScanOptions) -> list[str]:
    qlo, qhi = criteria.DEFAULT_Q_BOUNDS
    qdesc = (f"log[{qlo:g},{qhi:g}]x{criteria.DEFAULT_Q_POINTS}"
             if options.q_grid is None
             else f"custom[{options.q_grid[0]:g},{options.q_grid[-1]:g}]x{len(options.q_grid)}")
    ts = options.ts if options.ts is not None else criteria.DEFAULT_T_SCHEDULE
    alphas = "recommended+-1e-3" if options.alphas is None else \
        ",".join(f"{a:g}" for a in options.alphas)
    return [
        f"# q_grid={qdesc} (lower bound pragmatic: q->0+ regions hug the outer border)",
        f"# t_schedule={','.join(f'{t:g}' for t in ts)} alphas={alphas}",
        f"# majorization_tol={options.majorization_tol:g} "
        f"detection_threshold={options.threshold:g}",
        "# normalizer=|trace log_cosh_kernel(rho - alpha)| (peaked), trace rho_red^q (tsallis)",
    ]


def scan_csv_lines(records: list[ScanRecord], grid: GridSpec, options: ScanOptions) -> list[str]:
    """Self-describing CSV for a grid scan (row-major, deterministic)."""
    lines = [
        f"# majorlens scan d={grid.d} n={grid.n} exchange={grid.exchange}",
        "# axes=" + "; ".join(
            f"{_axis_label(a)}:{a.start:g}:{a.stop:g}:{a.count}" for a in grid.axes
        ) + f" fixed={','.join(f'{v:g}' for v in grid.fixed)}",
        *_defaults_header(options),
    ]
    coord_cols = [_axis_label(a) for a in grid.axes]
    lines.append(",".join(coord_cols + [
        "in_R", "sigma", "first_violation", "violated_indices", "vn_diff",
        "tsallis_detected", "tsallis_q", "tsallis_margin",
        "peaked_detected", "peaked_alpha", "peaked_t", "sector",
    ]))
    for r in records:
        coords = [repr(c) for c in r.coords]
        ts_det = ts_q = ts_m = ""
        if r.tsallis is not None:
            ts_det = str(int(r.tsallis.detected))
            ts_q = repr(r.tsallis.witness["q"]) if r.tsallis.witness else ""
            ts_m = repr(r.tsallis.margin)
        pk_det = pk_a = pk_t = ""
        if r.peaked is not None:
            pk_det = str(int(r.peaked.detected))
            if r.peaked.witness:
                pk_a = repr(r.peaked.witness["alpha"])
                pk_t = repr(r.peaked.witness["t"])
        lines.append(",".join(coords + [
            str(int(r.in_region)),
            repr(r.sigma),
            "" if r.first_violation is None else str(r.first_violation),
            ";".join(str(i) for i in r.violated),
            "" if math.isnan(r.vn_diff) else repr(r.vn_diff),
            ts_det, ts_q, ts_m, pk_det, pk_a, pk_t, r.sector,
        ]))
    return lines


def curve_csv_lines(rows: list[CurvePoint], spec: families.FamilySpec, axis: str,
                    alpha: float, t: float) -> list[str]:
    lines = [
        f"# majorlens curve d={spec.d} x={','.join(f'{v:g}' for v in spec.x)} "
        f"exchange={spec.exchange} axis={axis} alpha={alpha:g} t={t:g}",
        "# normalizer=|trace log_cosh_kernel(rho - alpha)| (peaked), trace rho_red^q (tsallis)",
        "parameter,s_rho,s_reduced,difference,normalized",
    ]
    for r in rows:
        lines.append(",".join(repr(v) for v in
                              (r.parameter, r.s_rho, r.s_reduced, r.difference, r.normalized)))
    return lines
