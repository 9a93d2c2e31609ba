import json

import numpy as np
import pytest

from majorlens import families
from majorlens.cli import _analyze_rows, run
from majorlens.scan import ScanOptions


def test_analyze_entangled_family(capsys):
    code = run(["analyze", "--family", "d=3", "x=0.4,0.4"])
    out = capsys.readouterr().out
    assert code == 2
    assert "peres" in out and "entangled" in out
    assert "violated indices {2}" in out
    assert "witness q" in out


def test_analyze_separable_family_prints_witness(capsys):
    code = run(["analyze", "--family", "d=3", "x=0.05,0.05"])
    out = capsys.readouterr().out
    assert code == 0
    assert "separability" in out and "witnessed" in out
    assert "0.5, 0.5" in out


def test_analyze_json_format(capsys):
    code = run(["analyze", "--family", "d=3", "x=0.4,0.4", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["certified_entangled"] is True
    names = {row["criterion"] for row in payload["criteria"]}
    assert {"peres", "tsallis", "peaked", "von-neumann"} <= names


def test_analyze_symmetric_variant(capsys):
    anti = run(["analyze", "--family", "d=3", "x=0.4,0.4"])
    out_anti = capsys.readouterr().out
    sym = run(["analyze", "--family", "d=3", "x=0.4,0.4", "--symmetric"])
    out_sym = capsys.readouterr().out
    assert anti == sym == 2
    # criterion rows agree; only the input line differs
    assert out_anti.splitlines()[1:] == out_sym.splitlines()[1:]


def test_analyze_round_trip_density(tmp_path, capsys):
    dump = tmp_path / "state.json"
    code = run(["analyze", "--family", "d=3", "x=0.45,0.1",
                "--dump-density", str(dump)])
    first = capsys.readouterr().out
    assert code == 2
    code = run(["analyze", "--density", str(dump)])
    second = capsys.readouterr().out
    assert code == 2
    assert first.splitlines()[1:] == second.splitlines()[1:]


def test_analyze_input_validation(capsys):
    assert run(["analyze"]) == 1
    capsys.readouterr()
    assert run(["analyze", "--family", "d=3", "x=0.9,0.9"]) == 1
    err = capsys.readouterr().err
    assert "exceeds 1" in err
    assert run(["analyze", "--family", "d=3", "x=0.1,0.1",
                "--density", "also.json"]) == 1
    capsys.readouterr()
    assert run(["analyze", "--family", "d=3"]) == 1
    capsys.readouterr()


def test_analyze_malformed_density_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["analyze", "--density", str(bad)]) == 1
    missing = tmp_path / "missing.json"
    assert run(["analyze", "--density", str(missing)]) == 1
    nodims = tmp_path / "nodims.json"
    nodims.write_text(json.dumps({"dim": 2, "re": [[1, 0], [0, 0]], "im": [[0, 0], [0, 0]]}))
    assert run(["analyze", "--density", str(nodims)]) == 1
    capsys.readouterr()


def test_unknown_flag_exits_one(capsys):
    assert run(["analyze", "--family", "d=3", "x=0.1,0.1", "--frobnicate"]) == 1
    capsys.readouterr()


def test_analyze_tol_zero_is_honored(capsys):
    # just past the 4/13 axis onset the first partial sums differ by ~1e-12,
    # below the default tolerance but above zero
    family = ["--family", "d=3", f"x={4.0 / 13.0 + 5e-12!r},0"]
    run(["analyze", *family])
    assert "disorder[A]  no-signal" in capsys.readouterr().out
    run(["analyze", *family, "--tol", "0"])
    assert "disorder[A]  entangled" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_analyze_rejects_bad_tol(capsys, tol):
    assert run(["analyze", "--family", "d=3", "x=0.4,0.4", "--tol", tol]) == 1
    assert "majorization tol" in capsys.readouterr().err


def test_analyze_rejects_nan_q_grid(capsys):
    assert run(["analyze", "--family", "d=3", "x=0.4,0.4", "--qmin", "nan"]) == 1
    captured = capsys.readouterr()
    assert "q > 0" in captured.err
    assert "nan" not in captured.out


@pytest.mark.parametrize("command", [
    ["analyze", "--family", "d=3", "x=0.4,0.4"],
    ["scan", "--family", "d=3", "x=0,0", "--axis", "1=0.3:0.4:2", "--axis", "2=0.3:0.4:2"],
])
def test_empty_q_grid_is_named(capsys, command):
    assert run([*command, "--qpoints", "0"]) == 1
    captured = capsys.readouterr()
    assert "q grid is empty" in captured.err
    assert captured.out == ""


def test_analyze_rows_honor_threshold():
    # at (0.4, 0.4): PT minimum -0.26, von Neumann difference +0.26, Tsallis
    # margin -0.0067 and peaked margin -0.11
    rho = families.build(families.FamilySpec(3, (0.4, 0.4)))

    def verdicts(threshold):
        rows, certified = _analyze_rows(rho, ScanOptions(threshold=threshold))
        return {name: verdict for name, verdict, _ in rows}, certified

    default, _ = verdicts(-1e-12)
    assert [default[n] for n in ("peres", "von-neumann", "tsallis", "peaked")] == \
        ["entangled", "no-signal", "entangled", "entangled"]
    deeper, _ = verdicts(-0.01)
    assert [deeper[n] for n in ("peres", "tsallis", "peaked")] == \
        ["entangled", "no-signal", "entangled"]
    above, _ = verdicts(0.3)
    assert above["von-neumann"] == "entangled"
    # the majorization rows have no threshold and still certify
    quiet, certified = verdicts(-1.0)
    assert {quiet[n] for n in ("peres", "von-neumann", "tsallis", "peaked")} == {"no-signal"}
    assert quiet["disorder[A]"] == "entangled" and certified


def test_threshold_peres(capsys):
    code = run(["threshold", "--d", "3", "--ray", "diag", "--criterion", "peres"])
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.split("=")[1].split("(")[0])
    assert abs(value - 0.119561) <= 2e-4


def test_threshold_tsallis_diagonal(capsys):
    code = run(["threshold", "--d", "3", "--ray", "diag", "--criterion", "tsallis"])
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.split("=")[1].split("(")[0])
    assert abs(value - 0.381) <= 5e-4


def test_threshold_custom_direction(capsys):
    code = run(["threshold", "--d", "6", "--dir", "1,1,1,1,0",
                "--criterion", "disorder", "--range", "0.1:0.25"])
    out = capsys.readouterr().out
    assert code == 0
    value = float(out.split("=")[1].split("(")[0])
    assert abs(value - 4.0 / 19.6) <= 2e-4


def test_threshold_no_flip(capsys):
    code = run(["threshold", "--d", "3", "--ray", "diag", "--criterion", "peres",
                "--range", "0.2:0.4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no threshold" in out


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_threshold_rejects_non_positive_tol(capsys, tol):
    assert run(["threshold", "--d", "3", "--criterion", "peres", "--tol", tol]) == 1
    assert "tol must be > 0" in capsys.readouterr().err


def test_scan_csv_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "grid.csv"
    args = ["scan", "--family", "d=3", "x=0,0",
            "--axis", "1=0:0.5:4", "--axis", "2=0:0.5:4",
            "--no-tsallis", "--no-peaked", "--out", str(out_file)]
    assert run(args) == 0
    text_one = out_file.read_text()
    assert run(args) == 0
    assert out_file.read_text() == text_one
    lines = [l for l in text_one.splitlines() if not l.startswith("#")]
    assert lines[0].startswith("x1,x2,in_R,sigma")
    assert len(lines) == 1 + 16
    capsys.readouterr()


def test_scan_json_format(capsys):
    assert run(["scan", "--family", "d=3", "x=0,0", "--axis", "1=0:0.4:3",
                "--axis", "2=0:0.4:3", "--no-tsallis", "--no-peaked",
                "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 9
    assert payload[0]["in_R"] is True
    assert payload[0]["sector"] == "separable"


def test_scan_fig5_section(capsys):
    assert run(["scan", "--family", "d=6", "x=0,0,0,0,0",
                "--axis", "1,2,3,4=0:0.24:6", "--axis", "5=0:0.9:6",
                "--no-tsallis", "--no-peaked"]) == 0
    out = capsys.readouterr().out
    header = next(l for l in out.splitlines() if not l.startswith("#"))
    assert header.split(",")[0] == "x1_2_3_4"


def test_scan_fractions_json(capsys):
    assert run(["scan", "--family", "d=3", "x=0,0",
                "--axis", "1=-0.143:1:150", "--axis", "2=-0.143:1:150",
                "--fractions"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cells_in_region"] > 0
    assert 0.85 <= summary["entangled_of_region"] <= 0.89
    assert set(summary["first_index_of_entangled"]) == {"1", "2"}


def test_curve_cli(tmp_path):
    out_file = tmp_path / "curve.csv"
    assert run(["curve", "--family", "d=3", "x=0.4,0.4", "--axis", "q",
                "--range", "0.5:8:40", "--out", str(out_file)]) == 0
    lines = out_file.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "parameter,s_rho,s_reduced,difference,normalized"
    values = np.array([[float(v) for v in row.split(",")] for row in data[1:]])
    assert values.shape == (40, 5)
    assert values[:, 3].min() < 0  # detection dip somewhere in 0.5 <= q <= 8


def test_qgrid_flags(capsys):
    assert run(["analyze", "--family", "d=3", "x=0.35,0.35",
                "--qmin", "0.01", "--qmax", "1000", "--qpoints", "96"]) == 2
    out = capsys.readouterr().out
    assert "tsallis      no-signal" in out
    assert "entangled" in out  # disorder still certifies
