import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from majorlens import scan
from majorlens.entropy import EntropicFamily, conditional_from_spectra
from majorlens.families import FamilySpec, analytic_reduced, analytic_spectrum, thresholds
from majorlens.scan import (
    AxisSpec,
    GridSpec,
    RaySpec,
    ScanOptions,
    area_fractions,
    bisect_threshold,
    classify_point,
    curve_sweep,
    curve_csv_lines,
    grid_scan,
    scan_csv_lines,
)

FAST = ScanOptions(tsallis=False, peaked=False)


def test_classify_separable_point():
    record = classify_point(FamilySpec(3, (0.05, 0.05)))
    assert record.in_region
    assert record.sector == "separable"
    assert record.sigma > 0
    assert record.violated == ()
    assert record.vn_diff >= 0
    assert not record.tsallis.detected
    assert not record.peaked.detected


def test_classify_sector_c_point():
    record = classify_point(FamilySpec(3, (0.4, 0.4)))
    assert record.sector == "entangled-v2"
    assert record.violated == (2,)
    assert record.tsallis.detected
    assert record.peaked.detected


def test_classify_outside_point():
    record = classify_point(FamilySpec(3, (0.9, 0.2)))
    assert not record.in_region
    assert record.sector == "outside"
    assert record.tsallis is None and record.peaked is None


def test_classify_numeric_matches_analytic():
    options = ScanOptions(numeric=True)
    fast_numeric = classify_point(FamilySpec(3, (0.4, 0.4)), options)
    analytic = classify_point(FamilySpec(3, (0.4, 0.4)))
    assert fast_numeric.sector == analytic.sector
    assert fast_numeric.violated == analytic.violated
    assert abs(fast_numeric.vn_diff - analytic.vn_diff) <= 1e-10
    assert abs(fast_numeric.tsallis.margin - analytic.tsallis.margin) <= 1e-8


def test_grid_scan_row_major_and_deterministic():
    grid = GridSpec(3, 2, (AxisSpec((1,), 0.0, 0.5, 3), AxisSpec((2,), 0.0, 0.5, 3)))
    records = grid_scan(grid, FAST)
    coords = [r.coords for r in records]
    assert coords[0] == (0.0, 0.0) and coords[1] == (0.0, 0.25)
    assert coords[3] == (0.25, 0.0)
    lines_one = scan_csv_lines(records, grid, FAST)
    lines_two = scan_csv_lines(grid_scan(grid, FAST), grid, FAST)
    assert lines_one == lines_two


def test_grid_scan_repeat_output_identical():
    grid = GridSpec(3, 2, (AxisSpec((1,), 0.0, 0.5, 5), AxisSpec((2,), 0.0, 0.5, 5)))
    base = scan_csv_lines(grid_scan(grid, FAST), grid, FAST)
    assert scan_csv_lines(grid_scan(grid, FAST), grid, FAST) == base


def test_grid_scan_blocks_match_point_by_point():
    # more in-region points than one block holds, so a block boundary falls
    # inside the region; each row must be that point's own classification
    grid = GridSpec(3, 2, (AxisSpec((1,), 0.0, 0.45, 10), AxisSpec((2,), 0.0, 0.45, 10)))
    records = grid_scan(grid, ScanOptions())
    assert sum(r.in_region for r in records) > scan.SCAN_BLOCK
    for coords, record in zip(grid.points(), records):
        assert record == replace(classify_point(grid.spec_at(coords)), coords=coords)


def test_grid_scan_matches_golden_csv():
    # written by the point-by-point scan that preceded the batched sweeps
    golden = pathlib.Path(__file__).parent / "data" / "scan_d3_9x9.csv"
    grid = GridSpec(3, 2, (AxisSpec((1,), -0.125, 0.875, 9), AxisSpec((2,), -0.125, 0.875, 9)))
    options = ScanOptions()
    lines = scan_csv_lines(grid_scan(grid, options), grid, options)
    assert "\n".join(lines) + "\n" == golden.read_text()


def test_grid_outside_region_raises():
    grid = GridSpec(3, 2, (AxisSpec((1,), 2.0, 3.0, 3), AxisSpec((2,), 2.0, 3.0, 3)))
    with pytest.raises(ValueError, match="positivity"):
        grid_scan(grid, FAST)


def test_undetected_entangled_set_not_convex():
    # two entangled points without any violated sum whose midpoint leaves
    # that set entirely (it is PPT separable)
    p1 = classify_point(FamilySpec(3, (0.28, -0.05)), FAST)
    p2 = classify_point(FamilySpec(3, (-0.05, 0.28)), FAST)
    mid = classify_point(FamilySpec(3, (0.115, 0.115)), FAST)
    assert p1.sector == "entangled" and p2.sector == "entangled"
    assert mid.sector == "separable"


def test_outer_border_never_signals():
    # on the outer positivity border the reduced state majorizes the full
    # one, so every conditional difference is non-positive
    families = [
        EntropicFamily.von_neumann(),
        EntropicFamily.tsallis(0.5),
        EntropicFamily.tsallis(3.0),
        EntropicFamily.peaked(0.28, 1e3),
        EntropicFamily.peaked_limit(0.4),
    ]
    for x1 in np.linspace(0.05, 0.95, 10):
        spec = FamilySpec(3, (float(x1), float(1.0 - x1)))
        full, red = analytic_spectrum(spec), analytic_reduced(spec)
        for fam in families:
            assert conditional_from_spectra(fam, full, red).difference <= 1e-10


def test_fig5_section_first_indices():
    grid = GridSpec(
        6, 5,
        (AxisSpec((1, 2, 3, 4), -1.0 / 31.0, 0.25, 41),
         AxisSpec((5,), -1.0 / 31.0, 1.0, 41)),
    )
    records = grid_scan(grid, FAST)
    firsts = {r.first_violation for r in records if r.in_region and r.first_violation}
    assert firsts == {1, 4, 5}
    # containment: every violated point sits inside the entangled set
    for r in records:
        if r.in_region and r.violated:
            assert r.sigma < 0


def test_full_triangle_sector_topology():
    grid = GridSpec(
        3, 2,
        (AxisSpec((1,), -1.0 / 7.0, 1.0, 201), AxisSpec((2,), -1.0 / 7.0, 1.0, 201)),
    )
    records = grid_scan(grid, FAST)
    sectors = {r.sector for r in records}
    assert sectors == {
        "outside", "separable", "entangled",
        "entangled-v1", "entangled-v2", "entangled-v1v2",
    }
    for r in records:
        if r.violated:
            assert r.sigma < 0  # violations live strictly inside the entangled set
        if r.sector == "separable":
            assert r.vn_diff >= -1e-12


def test_bisect_peres_diagonal():
    ray = RaySpec.diagonal(3, 2)
    value = bisect_threshold(ray, "peres", tol=1e-6)
    assert abs(value - thresholds(3, 2).peres_diag) <= 1e-4


def test_bisect_vn_diagonal():
    ray = RaySpec.diagonal(3, 2)
    value = bisect_threshold(ray, "vn")
    assert abs(value - 0.452) <= 5e-4


def test_bisect_disorder_axis():
    ray = RaySpec.axis(3, 2)
    value = bisect_threshold(ray, "disorder")
    assert abs(value - 4.0 / 13.0) <= 1e-4


def test_bisect_no_threshold():
    ray = RaySpec(3, 2, (0.0, 0.0), (1.0, 1.0), 0.0, 0.04)
    assert bisect_threshold(ray, "peres") is None


def test_bisect_rejects_non_monotone():
    # enters and leaves the PPT ellipse: entangled at both ends, separable
    # in the middle
    ray = RaySpec(3, 2, (0.25, -0.02), (-0.27, 0.27), 0.0, 1.0)
    with pytest.raises(ValueError, match="not monotone"):
        bisect_threshold(ray, "peres")


def test_bisect_unknown_criterion():
    with pytest.raises(ValueError, match="unknown criterion"):
        bisect_threshold(RaySpec.axis(3, 2), "sorcery")


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_bisect_rejects_non_positive_tol(tol):
    # hi - lo > tol never fails once the bracket is one ulp wide
    with pytest.raises(ValueError, match="tol must be > 0"):
        bisect_threshold(RaySpec.axis(3, 2), "peres", tol=tol)


def test_bisect_below_double_precision_terminates():
    value = bisect_threshold(RaySpec.axis(3, 2), "peres", tol=1e-300)
    assert abs(value - thresholds(3, 2).peres_axis) <= 1e-12


def test_curve_q_local_minimum_present_and_absent():
    qs = np.geomspace(0.2, 40.0, 400)
    rows = curve_sweep(FamilySpec(3, (0.36, 0.36)), "q", qs)
    vals = np.array([r.normalized for r in rows])
    dips = [
        i for i in range(1, len(vals) - 1)
        if vals[i] < vals[i - 1] - 1e-12 and np.any(vals[i + 1:] > vals[i] + 1e-12)
    ]
    assert dips, "expected an interior local minimum at x = 0.36"

    rows_low = curve_sweep(FamilySpec(3, (0.30, 0.30)), "q", qs)
    assert min(r.difference for r in rows_low) >= 0.0
    assert min(r.normalized for r in rows_low) >= 0.0


def test_curve_alpha_negative_interval():
    alphas = np.linspace(0.02, 0.6, 117)
    rows = curve_sweep(FamilySpec(3, (0.4, 0.4)), "alpha", alphas, t=1e3)
    negative = np.array([r.difference < -1e-12 for r in rows])
    assert negative.any()
    runs = np.flatnonzero(np.diff(negative.astype(int)))
    assert len(runs) == 2  # one contiguous negative stretch, interior
    inside = np.flatnonzero(negative)
    assert alphas[inside[0]] < 0.28 < alphas[inside[-1]]
    assert not negative[0] and not negative[-1]


def test_curve_t_sharpness_sweep():
    ts = np.geomspace(1.0, 1e4, 60)
    rows = curve_sweep(FamilySpec(3, (0.36, 0.36)), "t", ts, alpha=0.28)
    assert rows[-1].difference < -1e-12  # sharp peak detects sector c
    assert rows[0].difference > 0  # soft peak behaves like Tsallis q=2
    with pytest.raises(ValueError, match="axis"):
        curve_sweep(FamilySpec(3, (0.36, 0.36)), "w", ts)


def test_curve_csv_shape():
    rows = curve_sweep(FamilySpec(3, (0.4, 0.4)), "q", np.linspace(0.5, 5.0, 4))
    lines = curve_csv_lines(rows, FamilySpec(3, (0.4, 0.4)), "q", 0.28, 1e3)
    assert lines[2] == "parameter,s_rho,s_reduced,difference,normalized"
    assert len(lines) == 3 + 4
    assert all(line.startswith("#") for line in lines[:2])


def test_area_fractions_small_grid():
    grid = GridSpec(
        3, 2,
        (AxisSpec((1,), -1.0 / 7.0, 1.0, 120), AxisSpec((2,), -1.0 / 7.0, 1.0, 120)),
    )
    out = area_fractions(grid)
    assert out["cells_in_region"] > 0
    assert abs(out["entangled_of_region"] + out["separable_of_region"] - 1.0) <= 1e-12
    assert 0.85 <= out["entangled_of_region"] <= 0.89
    assert 0.74 <= out["disorder_of_entangled"] <= 0.80
    assert set(out["first_index_of_entangled"]) == {1, 2}
    repeat = area_fractions(grid)
    assert repeat == out


def test_area_fractions_requires_two_axes():
    grid = GridSpec(3, 2, (AxisSpec((1,), 0.0, 1.0, 10),))
    with pytest.raises(ValueError, match="2-axis"):
        area_fractions(grid)


def test_scan_csv_header_carries_defaults():
    grid = GridSpec(3, 2, (AxisSpec((1,), 0.0, 0.4, 2), AxisSpec((2,), 0.0, 0.4, 2)))
    options = ScanOptions()
    lines = scan_csv_lines(grid_scan(grid, options), grid, options)
    header = "\n".join(line for line in lines if line.startswith("#"))
    assert "q_grid=log[0.01,1000]x96" in header
    assert "t_schedule=10,100,1000,10000" in header
    assert "majorization_tol=1e-10" in header
    assert "detection_threshold=-1e-12" in header
    assert "normalizer=" in header
    cols = next(line for line in lines if not line.startswith("#"))
    assert cols.split(",")[:2] == ["x1", "x2"]
    assert "sector" in cols


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="two axes"):
        GridSpec(3, 2, (AxisSpec((1,), 0, 1, 3), AxisSpec((1,), 0, 1, 3)))
    with pytest.raises(ValueError, match="outside"):
        GridSpec(3, 2, (AxisSpec((3,), 0, 1, 3),))
    with pytest.raises(ValueError):
        AxisSpec((1,), 0, 1, 1)
    with pytest.raises(ValueError, match="fixed"):
        GridSpec(3, 2, (AxisSpec((1,), 0, 1, 3),), fixed=(0.0,))
