"""The four benchmark workloads: inputs from a seed, requests, output checks.

Every request is one in-process ``majorlens.cli.run`` call. A workload hands
out requests in rounds; a round has a fixed composition, so that runs which
complete whole rounds measure the same mix of work. Each request carries a
check that parses the CLI output, compares it with an independent reference
(``reference.py``) and returns the number of items it produced: in-region
grid points, onsets or analyzed states. A failed check raises CheckError.
"""
from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

import reference as ref

BISECT_TOL = 1e-5


class CheckError(Exception):
    """An output that disagrees with its reference."""


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Callable[[int, str], int]  # (exit code, stdout) -> items produced


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# grid scans (phase-full, phase-sectors)
# ---------------------------------------------------------------------------

WINDOW_D3 = (-1.0 / 7.0, 1.0)


def _jittered_axis(rng: np.random.Generator, lo: float, hi: float, count: int):
    """``count`` cell-centred samples of [lo, hi), offset by a random fraction
    of a cell so that successive requests sample the whole window."""
    cell = (hi - lo) / count
    start = lo + rng.uniform(0.0, 1.0) * cell
    return start, start + (count - 1) * cell


def _inside_square(rng: np.random.Generator, lo: float, hi: float, side: float):
    """Axis ranges of a square of the given side, uniformly placed in the
    window, whose four corners lie inside the positivity region."""
    while True:
        a, b = (float(v) for v in rng.uniform(lo, hi - side, size=2))
        corners = ((a, b), (a + side, b), (a, b + side), (a + side, b + side))
        if ref.region_margin(3, corners).min() > 1e-9:
            return (a, a + side), (b, b + side)


def _scan_request(a: tuple[float, float], b: tuple[float, float], count: int,
                  all_detectors: bool) -> Request:
    """``scan`` of the count x count lattice spanning the axis ranges a, b."""
    argv = ["scan", "--family", "d=3", "x=0,0",
            "--axis", f"1={a[0]!r}:{a[1]!r}:{count}",
            "--axis", f"2={b[0]!r}:{b[1]!r}:{count}"]
    if not all_detectors:
        argv += ["--no-tsallis", "--no-peaked"]
    # the CLI samples each axis with linspace over the parsed endpoints
    expected = np.array(list(product(np.linspace(a[0], a[1], count),
                                     np.linspace(b[0], b[1], count))))

    def check(rc: int, out: str) -> int:
        _expect(rc == 0, f"scan exit code {rc}")
        rows = list(csv.DictReader(line for line in out.splitlines()
                                   if not line.startswith("#")))
        _expect(len(rows) == len(expected), f"{len(rows)} rows for {len(expected)} points")
        margin = ref.region_margin(3, expected)
        inside = margin > -1e-9  # every point the program may count as in-region
        refs = {"margin": margin, "sigma": ref.sigma(3, expected),
                "vn": np.full(len(expected), np.nan), "tsallis": np.full(len(expected), np.nan)}
        refs["vn"][inside] = ref.vn_difference(3, expected[inside])
        if all_detectors:
            refs["tsallis"][inside] = ref.tsallis_margin(3, expected[inside])
        return sum(_check_point(row, tuple(x), {k: v[i] for k, v in refs.items()}, all_detectors)
                   for i, (row, x) in enumerate(zip(rows, expected)))

    return Request(tuple(argv), check)


def _check_point(row: dict, x: tuple[float, float], refs: dict, all_detectors: bool) -> int:
    """Check one CSV row against the point's reference values; returns 1 for
    an in-region point, else 0."""
    from majorlens.families import FamilySpec, violation_predictor

    got = (float(row["x1"]), float(row["x2"]))
    _expect(max(abs(g - e) for g, e in zip(got, x)) <= 1e-12, f"coords {got} != {x}")
    in_region = row["in_R"] == "1"
    if abs(refs["margin"]) > 1e-9:
        _expect(in_region == (refs["margin"] > 0.0),
                f"in_R={row['in_R']} at {x}, margin {refs['margin']}")
    if not in_region:
        _expect(row["sector"] == "outside", f"sector {row['sector']} outside the region at {x}")
        return 0
    sigma = refs["sigma"]
    _expect(abs(float(row["sigma"]) - sigma) <= 1e-12, f"sigma {row['sigma']} != {sigma} at {x}")
    violated = tuple(int(v) for v in row["violated_indices"].split(";") if v)
    predicted = violation_predictor(FamilySpec(3, x))
    _expect(violated == predicted, f"violated {violated} != predictor {predicted} at {x}")
    vn_diff = float(row["vn_diff"])
    _expect(abs(vn_diff - refs["vn"]) <= 1e-10, f"vn_diff {vn_diff} != {refs['vn']} at {x}")
    vn = vn_diff < ref.DETECTION_THRESHOLD
    tsallis = row["tsallis_detected"] == "1"
    peaked = row["peaked_detected"] == "1"
    # Schur concavity: an entropic detection needs a violated partial sum
    _expect(not ((vn or tsallis or peaked) and not violated),
            f"entropic detection without violation at {x}")
    if all_detectors:
        # completeness of the peaked family: every violation is detected
        _expect(not (violated and not peaked), f"violation {violated} missed by peaked at {x}")
        # the q sweep agrees with a dense q grid wherever the margin is clear
        margin = refs["tsallis"]
        if abs(margin) > 1e-6:
            _expect(tsallis == (margin < 0.0), f"tsallis {tsallis} but grid margin {margin} at {x}")
    # majorization => reduction => NPT
    if violated or vn or tsallis or peaked:
        _expect(sigma < 0.0, f"detection at separable point {x} (sigma {sigma})")
    label = ("separable" if sigma >= 0.0 else
             "entangled" + ("-" + "".join(f"v{i}" for i in violated) if violated else ""))
    _expect(row["sector"] == label, f"sector {row['sector']} != {label} at {x}")
    return 1


def _fractions_request(rng: np.random.Generator, d: int, count: int) -> Request:
    """Area fractions on the paper's figure-2 (d=3) or figure-5 (d=6) window,
    shifted by a random fraction of a cell."""
    if d == 3:
        family = ["d=3", "x=0,0"]
        axes = (("1", *WINDOW_D3), ("2", *WINDOW_D3))
        targets = ref.FIG2_FRACTIONS
    else:
        family = ["d=6", "x=0,0,0,0,0"]
        axes = (("1,2,3,4", -1.0 / 31.0, 0.25), ("5", -1.0 / 31.0, 1.0))
        targets = ref.FIG5_FRACTIONS
    argv = ["scan", "--family", *family, "--fractions"]
    for comps, lo, hi in axes:
        shift = rng.uniform(-0.5, 0.5) * (hi - lo) / count
        argv += ["--axis", f"{comps}={lo + shift!r}:{hi + shift!r}:{count}"]

    def check(rc: int, out: str) -> int:
        _expect(rc == 0, f"fractions exit code {rc}")
        summary = json.loads(out)
        _expect(summary["cells_total"] == count * count, "wrong cell count")
        for key, (value, tol) in targets.items():
            got = summary
            for part in key.split("."):
                got = got[part]
            _expect(abs(got - value) <= tol, f"d={d} {key} = {got}, expected {value} +- {tol}")
        return 0

    return Request(tuple(argv), check)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    # latency percentiles over whole rounds instead of single requests
    round_latency = False

    def warmup(self) -> Request:
        """A small request run before any timing, and by each set-up probe."""
        raise NotImplementedError

    def next_round(self) -> list[Request]:
        raise NotImplementedError


class PhaseFull(Workload):
    """The full phase diagram: every detector on 2x2 lattices placed
    uniformly over the in-region part of the d=3, n=2 window, so every
    request classifies four points and a run samples every sector."""

    name = "phase-full"
    side = 0.02
    # smoke squares: Tsallis-detected v2, Tsallis-blind v2, v1, separable
    smoke_corners = ((0.4, 0.4), (0.35, 0.35), (0.9, 0.0), (0.05, 0.05))

    def __init__(self, seed: int, smoke: bool, workdir):
        self.rng = np.random.default_rng(seed)
        self.smoke = smoke

    def warmup(self) -> Request:
        return _scan_request((0.1, 0.1 + self.side), (0.1, 0.1 + self.side), 2, True)

    def next_round(self) -> list[Request]:
        if self.smoke:
            return [_scan_request((a, a + self.side), (b, b + self.side), 2, True)
                    for a, b in self.smoke_corners]
        return [_scan_request(*_inside_square(self.rng, *WINDOW_D3, self.side), 2, True)]


class PhaseSectors(Workload):
    """The sector map (no Tsallis or peaked sweeps) on a jittered lattice,
    then the figure-2 and figure-5 area fractions. The lattice is sized so
    that the three requests take clearly different times (about 0.4 s for
    d=3 fractions, 0.6 s for d=6 fractions and 0.85 s for the scan on a
    2-core x86_64 VM): the request percentiles then fall inside one kind
    each, the median on the d=6 fractions and the 90th on the scan."""

    name = "phase-sectors"

    def __init__(self, seed: int, smoke: bool, workdir):
        self.rng = np.random.default_rng(seed)
        self.scan_count = 5 if smoke else 81
        self.fraction_count = 201 if smoke else 801

    def warmup(self) -> Request:
        return _scan_request(WINDOW_D3, WINDOW_D3, 5, False)

    def next_round(self) -> list[Request]:
        count = self.scan_count
        return [
            _scan_request(_jittered_axis(self.rng, *WINDOW_D3, count),
                          _jittered_axis(self.rng, *WINDOW_D3, count), count, False),
            _fractions_request(self.rng, 3, self.fraction_count),
            _fractions_request(self.rng, 6, self.fraction_count),
        ]


@dataclass(frozen=True)
class OnsetRow:
    d: int
    ray: tuple[str, ...]  # CLI ray selection
    lo: float
    hi: float
    criterion: str
    low: float  # the onset must lie in [low, high]
    high: float
    source: str


def _row(d, ray, lo, hi, criterion, value, tol, source, one_sided=False):
    low = value - BISECT_TOL if one_sided else value - tol
    return OnsetRow(d, ray, lo, hi, criterion, low, value + tol, source)


def onset_table(smoke: bool) -> list[OnsetRow]:
    """The paper's onset table with a reference interval for every row.

    Peaked detection implies a violated partial sum (Schur concavity), so a
    peaked onset lies at or just above the disorder onset on the same ray.
    """
    axis3, diag3 = ("--n", "2", "--ray", "axis"), ("--n", "2", "--ray", "diag")
    diag6, ray_e = ("--n", "5", "--ray", "diag"), ("--dir", "1,1,1,1,0")
    dis_axis, dis_diag = ref.disorder_axis(3), ref.disorder_diag(3, 2)
    rows = [
        _row(2, ("--ray", "axis"), 0.0, 1.0, "peres", *ref.WERNER),
        _row(3, axis3, 0.0, 1.0, "peres", ref.peres_axis(3), 2e-4, "closed-form Peres, axis"),
        _row(3, diag3, 0.0, 0.5, "peres", ref.peres_diag(3, 2), 2e-4, "closed-form Peres, diagonal"),
        _row(3, axis3, 0.0, 1.0, "disorder", dis_axis, 2e-4, "closed-form disorder 4/13"),
        _row(3, diag3, 0.0, 0.5, "disorder", dis_diag, 2e-4, "closed-form disorder 0.32"),
        _row(3, diag3, 0.0, 0.5, "peaked", dis_diag, 2e-4, "disorder onset 0.32", True),
        _row(3, diag3, 0.4, 0.49, "vn", 0.452, 1e-3, "von Neumann onset 0.452"),
        _row(3, diag3, 0.3, 0.45, "tsallis", 0.381, 1e-3, "Tsallis onset 0.381"),
        _row(6, diag6, 0.1, 0.2, "disorder", *ref.D6_DISORDER_DIAG),
        _row(6, ray_e, 0.1, 0.25, "disorder", *ref.D6_DISORDER_E),
    ]
    if smoke:
        return rows
    return rows + [
        _row(3, axis3, 0.0, 1.0, "peaked", dis_axis, 2e-4, "disorder onset 4/13", True),
        _row(3, axis3, 0.0, 1.0, "vn", ref.entropic_onset("vn", 3, (1, 0), 0.0, 1.0),
             1e-3, "numeric von Neumann root, axis"),
        _row(3, axis3, 0.0, 1.0, "tsallis", ref.entropic_onset("tsallis", 3, (1, 0), 0.0, 1.0),
             1e-3, "numeric Tsallis root, axis"),
        _row(6, diag6, 0.19, 0.2, "tsallis", *ref.D6_TSALLIS_DIAG),
        _row(6, ray_e, 0.22, 0.25, "tsallis", *ref.D6_TSALLIS_E),
    ]


_THRESHOLD = re.compile(r"threshold = (\S+)")


def _onset_request(row: OnsetRow, lo: float) -> Request:
    argv = ("threshold", "--d", str(row.d), *row.ray, "--range", f"{lo!r}:{row.hi!r}",
            "--criterion", row.criterion, "--tol", repr(BISECT_TOL))

    def check(rc: int, out: str) -> int:
        _expect(rc == 0, f"threshold exit code {rc}")
        match = _THRESHOLD.search(out)
        _expect(match is not None, f"no threshold in {out!r}")
        onset = float(match.group(1))
        _expect(row.low <= onset <= row.high,
                f"d={row.d} {row.criterion} onset {onset} outside [{row.low}, {row.high}] "
                f"({row.source})")
        return 1

    return Request(argv, check)


class Onsets(Workload):
    """The onset table by ray bisection; each predicate call waits on the
    previous one. Ray starts are raised by a random share of up to 5% of the
    range, which moves every pre-scan and bisection point. Its latency is
    that of the whole table: single rows are either near-instant closed
    forms or sweeps, and a percentile across both kinds is meaningless."""

    name = "onsets"
    round_latency = True

    def __init__(self, seed: int, smoke: bool, workdir):
        self.rng = np.random.default_rng(seed)
        self.rows = onset_table(smoke)

    def warmup(self) -> Request:
        return _onset_request(self.rows[4], self.rows[4].lo)

    def next_round(self) -> list[Request]:
        return [_onset_request(r, r.lo + self.rng.uniform(0.0, 0.05) * (r.hi - r.lo))
                for r in self.rows]


class AnalyzeDensity(Workload):
    """``analyze --density F --format json`` over a seeded pool: one random
    state of random rank for every pair of factor dimensions 2..8, and two
    numerically built family states for every d = 2..8."""

    name = "analyze-density"

    def __init__(self, seed: int, smoke: bool, workdir):
        rng = np.random.default_rng(seed)
        dims = range(2, 4) if smoke else range(2, 9)
        self.requests = []
        index = 0
        for d_a, d_b in product(dims, dims):
            dim = d_a * d_b
            mat = ref.random_density(rng, dim, int(rng.integers(1, dim + 1)))
            self.requests.append(self._request(workdir, index, mat, (d_a, d_b), None))
            index += 1
        for d in dims:
            for _ in range(2):
                x = ref.region_sample(rng, d, int(rng.integers(1, d)))
                mat = ref.family_density(d, x)
                self.requests.append(self._request(workdir, index, mat, (d, d), x))
                index += 1

    @staticmethod
    def _request(workdir, index: int, mat: np.ndarray, dims, x) -> Request:
        path = workdir / f"state-{index:03d}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"dim": int(mat.shape[0]), "dims": list(dims),
                       "re": mat.real.tolist(), "im": mat.imag.tolist()}, fh)
        pt_min = ref.pt_min_eigenvalue(np.asarray(mat), *dims)
        sigma = None if x is None else float(ref.sigma(dims[0], x))

        def check(rc: int, out: str) -> int:
            payload = json.loads(out)
            verdicts = {c["criterion"]: c for c in payload["criteria"]}
            entangled = {name for name, c in verdicts.items() if c["verdict"] == "entangled"}
            _expect(rc == (2 if entangled else 0), f"exit code {rc} with {sorted(entangled)}")
            _expect(payload["certified_entangled"] == bool(entangled), "certified flag")
            # Hiroshima: majorization violation => reduction => NPT; entropic
            # detections imply a violation by Schur concavity
            _expect(not (entangled - {"peres"}) or "peres" in entangled,
                    f"{sorted(entangled)} without a negative partial transpose")
            shown = float(verdicts["peres"]["detail"].split("=")[1])
            _expect(abs(shown - pt_min) <= 1e-9 + 1e-7 * abs(pt_min),
                    f"min PT eigenvalue {shown} != {pt_min}")
            if sigma is not None and abs(sigma) > 1e-9:
                _expect(("peres" in entangled) == (sigma < 0.0),
                        f"Peres verdict disagrees with sigma {sigma}")
            return 1

        return Request(("analyze", "--density", str(path), "--format", "json"), check)

    def warmup(self) -> Request:
        return self.requests[0]

    def next_round(self) -> list[Request]:
        return list(self.requests)


WORKLOADS = {w.name: w for w in (PhaseFull, PhaseSectors, Onsets, AnalyzeDensity)}
