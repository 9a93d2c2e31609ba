"""Command-line frontend.

Subcommands: ``analyze`` (one state, all criteria), ``scan`` (grid -> CSV),
``threshold`` (ray bisection), ``curve`` (detector response data).

Exit codes: 0 completed with no entanglement certified, 2 entanglement
certified by at least one criterion (analyze), 1 usage or validation error.
Diagnostics go to stderr, data to --out or stdout.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import criteria, families, scan
from .bipartite import BipartiteDensity, partial_trace
from .entropy import EntropicFamily, conditional_from_spectra
from .hermitian import eigenvalues


def _parse_family(tokens: list[str], symmetric: bool) -> families.FamilySpec:
    d = None
    x = None
    for tok in tokens:
        key, _, value = tok.partition("=")
        if key == "d":
            d = int(value)
        elif key == "x":
            x = tuple(float(v) for v in value.split(",") if v != "")
        else:
            raise ValueError(f"unknown family token {tok!r} (expected d=... x=...)")
    if d is None or x is None:
        raise ValueError("family spec needs both d=<int> and x=<v1,v2,...>")
    return families.FamilySpec(d, x, "symmetric" if symmetric else "antisymmetric")


def _parse_axis(text: str) -> scan.AxisSpec:
    comps_text, _, range_text = text.partition("=")
    parts = range_text.split(":")
    if len(parts) != 3:
        raise ValueError(f"axis {text!r} must look like 1=lo:hi:count or 1,2=lo:hi:count")
    comps = tuple(int(c) for c in comps_text.split(","))
    return scan.AxisSpec(comps, float(parts[0]), float(parts[1]), int(parts[2]))


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range {text!r} must look like lo:hi:count")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v != "")


def _load_density(path: str) -> BipartiteDensity:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return BipartiteDensity.from_json_dict(data)


def _options_from_args(args) -> scan.ScanOptions:
    q_grid = None
    if args.qmin is not None or args.qmax is not None or args.qpoints is not None:
        qlo = args.qmin if args.qmin is not None else criteria.DEFAULT_Q_BOUNDS[0]
        qhi = args.qmax if args.qmax is not None else criteria.DEFAULT_Q_BOUNDS[1]
        qn = args.qpoints if args.qpoints is not None else criteria.DEFAULT_Q_POINTS
        q_grid = np.geomspace(qlo, qhi, qn)
    tol = getattr(args, "tol", None)
    if tol is None:
        tol = criteria.MAJORIZATION_TOL
    elif not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"majorization tol must be finite and >= 0, got {tol!r}")
    return scan.ScanOptions(
        side=args.side,
        q_grid=q_grid,
        alphas=_float_list(args.alphas) if args.alphas else None,
        ts=_float_list(args.ts) if args.ts else None,
        majorization_tol=tol,
    )


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _analyze_rows(rho: BipartiteDensity, options: scan.ScanOptions) -> tuple[list[tuple[str, str, str]], bool]:
    """Criterion table rows (name, verdict, detail) and overall certification.

    The full spectrum (kept from the density's PSD check) and both reduced
    spectra are computed once and shared by every spectral criterion; every
    signed criterion counts as a detection below ``options.threshold``.
    """
    threshold = options.threshold
    smallest_pt = criteria.peres_check(rho)
    full = rho.spectrum()
    reduced = {side: eigenvalues(partial_trace(rho, side)) for side in ("A", "B")}
    rep_a, rep_b = (
        criteria.majorization_compare(full, reduced[side], side, options.majorization_tol)
        for side in ("A", "B")
    )
    red = reduced[options.side]
    vn = conditional_from_spectra(EntropicFamily.von_neumann(), full, red, options.side)
    ts = criteria.tsallis_sweep_spectra(full, red, options.side, options.q_grid,
                                        threshold=threshold)
    alphas = criteria.recommended_alphas(red) if options.alphas is None else options.alphas
    pk = criteria.peaked_search_spectra(full, red, alphas, options.ts, options.side, threshold)

    rows = []
    rows.append((
        "peres",
        "entangled" if smallest_pt < threshold else "no-signal",
        f"min PT eigenvalue = {smallest_pt:.9g}",
    ))
    for rep in (rep_a, rep_b):
        if rep.is_violated:
            i = rep.first_violation
            detail = (f"violated indices {{{';'.join(str(v) for v in rep.violated_indices)}}}; "
                      f"S_{i} = {rep.cumsum_rho[i - 1]:.9g} > {rep.cumsum_reduced[i - 1]:.9g}")
        else:
            detail = "all partial sums majorized"
        rows.append((f"disorder[{rep.side}]",
                     "entangled" if rep.is_violated else "no-signal", detail))
    rows.append((
        "von-neumann",
        "entangled" if vn.difference < threshold else "no-signal",
        f"difference = {vn.difference:.9g}",
    ))
    rows.append((
        "tsallis",
        "entangled" if ts.detected else "no-signal",
        f"witness q = {ts.witness['q']:.6g}, margin = {ts.margin:.6g}",
    ))
    pk_detail = f"margin = {pk.margin:.6g}"
    if pk.witness:
        pk_detail = (f"witness alpha = {pk.witness['alpha']:.6g}, "
                     f"t = {pk.witness['t']:.6g}, margin = {pk.margin:.6g}")
    rows.append(("peaked", "entangled" if pk.detected else "no-signal", pk_detail))
    certified = (smallest_pt < threshold or rep_a.is_violated or rep_b.is_violated
                 or vn.difference < threshold or ts.detected or pk.detected)
    return rows, certified


def _cmd_analyze(args) -> int:
    options = _options_from_args(args)
    spec = None
    if args.family:
        spec = _parse_family(args.family, args.symmetric)
        rho = families.build(spec)
        source = f"family d={spec.d} x={','.join(f'{v:g}' for v in spec.x)} {spec.exchange}"
    else:
        rho = _load_density(args.density)
        source = f"density {args.density}"
    if args.dump_density:
        with open(args.dump_density, "w", encoding="utf-8") as fh:
            json.dump(rho.to_json_dict(), fh)

    rows, certified = _analyze_rows(rho, options)
    lines = [f"input: {source} (dims {rho.d_a}x{rho.d_b})"]
    width = max(len(r[0]) for r in rows)
    for name, verdict, detail in rows:
        lines.append(f"{name:<{width}}  {verdict:<10} {detail}")
    if spec is not None:
        witness = families.separability_witness(spec)
        if witness is not None:
            lines.append(
                "separability  witnessed  weights = ("
                + ", ".join(f"{w:.9g}" for w in witness.weights)
                + f"), component margins all >= 0: {witness.valid}"
            )
    if args.format == "json":
        payload = {
            "input": source,
            "criteria": [
                {"criterion": n, "verdict": v, "detail": d} for n, v, d in rows
            ],
            "certified_entangled": certified,
        }
        _emit([json.dumps(payload, indent=2)], args.out)
    else:
        _emit(lines, args.out)
    return 2 if certified else 0


def _cmd_scan(args) -> int:
    spec = _parse_family(args.family, args.symmetric)
    axes = tuple(_parse_axis(a) for a in args.axis)
    grid = scan.GridSpec(spec.d, spec.n, axes, spec.x, spec.exchange)
    options = _options_from_args(args)
    if args.no_tsallis:
        options = replace(options, tsallis=False)
    if args.no_peaked:
        options = replace(options, peaked=False)
    if args.fractions:
        summary = scan.area_fractions(grid, options.majorization_tol)
        _emit([json.dumps(summary, indent=2)], args.out)
        return 0
    records = scan.grid_scan(grid, options)
    if args.format == "json":
        payload = []
        for r in records:
            payload.append({
                "coords": list(r.coords),
                "x": list(r.x),
                "in_R": r.in_region,
                "sigma": r.sigma,
                "violated": list(r.violated),
                "vn_diff": None if math.isnan(r.vn_diff) else r.vn_diff,
                "tsallis": None if r.tsallis is None else r.tsallis.__dict__,
                "peaked": None if r.peaked is None else r.peaked.__dict__,
                "sector": r.sector,
            })
        _emit([json.dumps(payload)], args.out)
    else:
        _emit(scan.scan_csv_lines(records, grid, options), args.out)
    return 0


def _cmd_threshold(args) -> int:
    n = args.n if args.n is not None else (1 if args.d == 2 else 2)
    if args.dir:
        direction = _float_list(args.dir)
        n = len(direction)
        lo, hi = 0.0, 1.0 / max(sum(direction), 1e-9)
        ray = scan.RaySpec(args.d, n, (0.0,) * n, direction, lo, hi)
    elif args.ray == "diag":
        ray = scan.RaySpec.diagonal(args.d, n)
    else:
        ray = scan.RaySpec.axis(args.d, n)
    if args.range:
        lo, hi, _ = _parse_range(args.range + ":2") if args.range.count(":") == 1 else _parse_range(args.range)
        ray = scan.RaySpec(ray.d, ray.n, ray.origin, ray.direction, lo, hi, ray.exchange)
    value = scan.bisect_threshold(ray, args.criterion, _options_from_args(args), tol=args.width)
    if value is None:
        _emit([f"criterion {args.criterion}: no threshold on the ray"], args.out)
    else:
        _emit([f"criterion {args.criterion}: threshold = {value:.6f} (+- {args.width:g})"], args.out)
    return 0


def _cmd_curve(args) -> int:
    spec = _parse_family(args.family, args.symmetric)
    lo, hi, count = _parse_range(args.range)
    values = np.geomspace(lo, hi, count) if args.log else np.linspace(lo, hi, count)
    rows = scan.curve_sweep(spec, args.axis, values, alpha=args.alpha, t=args.t,
                            side=args.side)
    _emit(scan.curve_csv_lines(rows, spec, args.axis, args.alpha, args.t), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majorlens",
        description="Majorization, entropic and partial-transpose entanglement "
                    "detection for two-qudit states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_input=True, with_tol=True):
        if with_input:
            p.add_argument("--family", nargs="+", metavar="TOK",
                           help="family spec tokens, e.g. --family d=3 x=0.4,0.4")
            p.add_argument("--symmetric", action="store_true",
                           help="use exchange-symmetric components")
        p.add_argument("--side", choices=("A", "B"), default="A")
        p.add_argument("--qmin", type=float, default=None)
        p.add_argument("--qmax", type=float, default=None)
        p.add_argument("--qpoints", type=int, default=None)
        p.add_argument("--alphas", default=None, help="comma list of peak locations")
        p.add_argument("--ts", default=None, help="comma list of sharpness values")
        if with_tol:
            p.add_argument("--tol", type=float, default=None,
                           help="majorization comparison tolerance")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_an = sub.add_parser("analyze", help="run every criterion on one state")
    add_common(p_an)
    p_an.add_argument("--density", default=None, help="density JSON file")
    p_an.add_argument("--dump-density", default=None,
                      help="also write the analyzed density as JSON")
    p_an.add_argument("--format", choices=("text", "json"), default="text")
    p_an.set_defaults(fn=_cmd_analyze)

    p_sc = sub.add_parser("scan", help="classify a parameter grid")
    add_common(p_sc)
    p_sc.add_argument("--axis", action="append", required=True, metavar="SPEC",
                      help="axis spec COMPONENTS=LO:HI:COUNT, e.g. 1=0:1:51 or 1,2,3,4=0:0.25:41")
    p_sc.add_argument("--no-tsallis", action="store_true")
    p_sc.add_argument("--no-peaked", action="store_true")
    p_sc.add_argument("--fractions", action="store_true",
                      help="emit the area-fraction JSON summary instead of records")
    p_sc.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sc.set_defaults(fn=_cmd_scan)

    p_th = sub.add_parser("threshold", help="bisect a detection onset along a ray")
    add_common(p_th, with_input=False, with_tol=False)
    p_th.add_argument("--d", type=int, required=True)
    p_th.add_argument("--n", type=int, default=None)
    p_th.add_argument("--ray", choices=("axis", "diag"), default="axis")
    p_th.add_argument("--dir", default=None, help="custom ray direction, comma list")
    p_th.add_argument("--range", default=None, help="ray parameter range lo:hi")
    p_th.add_argument("--criterion", required=True,
                      choices=("peres", "disorder", "vn", "tsallis", "peaked"))
    # stored as "width": this --tol is the bisection width, not the majorization
    # comparison tol that _options_from_args reads from args.tol
    p_th.add_argument("--tol", dest="width", type=float, default=scan.BISECT_TOL,
                      help="bisection width")
    p_th.set_defaults(fn=_cmd_threshold)

    p_cu = sub.add_parser("curve", help="detector response along q, t or alpha")
    add_common(p_cu)
    p_cu.add_argument("--axis", choices=("q", "t", "alpha"), required=True)
    p_cu.add_argument("--range", required=True, help="lo:hi:count")
    p_cu.add_argument("--log", action="store_true", help="log-spaced parameter values")
    p_cu.add_argument("--alpha", type=float, default=0.28)
    p_cu.add_argument("--t", type=float, default=1e3)
    p_cu.set_defaults(fn=_cmd_curve)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if args.command == "analyze" and bool(args.family) == bool(args.density):
        print("analyze needs exactly one of --family or --density", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
