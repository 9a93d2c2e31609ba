#!/usr/bin/env python3
"""Benchmark of majorlens: four checked closed-loop workloads over the CLI.

Run from the repository root:

    python3 perfbench/run.py --workload phase-full --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --smoke

One caller sends each request (an in-process ``majorlens.cli.run`` call)
only after the previous one returned, with BLAS pinned to one thread and
MAJORLENS_THREADS unset. Whole rounds of requests run until the requests
have taken ``--seconds``; every output is checked against an independent
reference outside the timed region. ``--trace 0`` prints the end-to-end
metrics, every time scaled to a reference CPU speed by gauge readings taken
between requests (gauge.py); ``--trace 1`` runs each round untraced and then
again with every layer wrapped, and prints per-layer metrics per round. The
last line of standard output is the JSON result; a fuller record, with the
environment and the unscaled figures, goes to perfbench/out/.
"""
from __future__ import annotations

import os

# pin BLAS before numpy loads; the probes inherit this environment
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"
os.environ.pop("MAJORLENS_THREADS", None)

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from gauge import REFERENCE_S, Gauge, scale  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
GAUGE_EVERY_S = 0.25  # request time between two gauge readings
SMOOTHING = 10  # gauge readings behind the scale of the requests between two of them


class Tally:
    """Closed-loop counters of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.busy_s = 0.0
        self.latencies: list[float] = []  # wall seconds of each request
        self.items: list[int] = []  # items each request produced
        self.round_ends: list[int] = []  # requests recorded when each round ended
        self.errors: list[str] = []

    def record(self, request, elapsed: float, outcome) -> None:
        """Account one request; ``outcome`` is (exit code, stdout, stderr) or
        the traceback text of an exception."""
        self.attempted += 1
        self.busy_s += elapsed
        self.latencies.append(elapsed)
        self.items.append(0)
        if isinstance(outcome, str):
            self.fail(request.argv, outcome)
            return
        rc, out, err = outcome
        try:
            self.items[-1] = request.check(rc, out)
        except Exception as exc:  # a check that cannot parse the output fails too
            self.fail(request.argv, f"{type(exc).__name__}: {exc}; stderr: {err.strip()}")

    def fail(self, argv, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{' '.join(argv)}: {message}")


class Scaling:
    """Gauge readings taken between a tally's requests, at least every
    GAUGE_EVERY_S of request time. The requests between two readings are
    scaled by the median of the SMOOTHING readings around them, half before
    and half after: the machine's speed holds for seconds, while single
    readings scatter by a few percent."""

    def __init__(self, tally: Tally, gauge: Gauge):
        self.tally = tally
        self.gauge = gauge
        self.readings = [gauge.read()]
        self.ends = [0]  # requests recorded at each reading
        self.mark = 0.0

    def after_request(self) -> None:
        if self.tally.busy_s - self.mark >= GAUGE_EVERY_S:
            self.read()

    def read(self) -> None:
        self.readings.append(self.gauge.read())
        self.ends.append(len(self.tally.latencies))
        self.mark = self.tally.busy_s

    def factors(self) -> list[float]:
        """Per request, the factor that turns its wall time into time at the
        reference speed (gauge.py)."""
        if self.ends[-1] < len(self.tally.latencies):
            self.read()
        half = SMOOTHING // 2
        factors: list[float] = []
        for k in range(1, len(self.readings)):
            factor = scale(1.0, statistics.median(self.readings[max(0, k - half):k + half]))
            factors += [factor] * (self.ends[k] - self.ends[k - 1])
        return factors


def execute(cli, request):
    """Run one request; returns (seconds, outcome) for Tally.record."""
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.run(list(request.argv))
    except Exception:
        return perf_counter() - t0, traceback.format_exc()
    return perf_counter() - t0, (rc, out.getvalue(), err.getvalue())


def run_rounds(cli, workload, seconds: float, tally: Tally,
               after_request=None, after_round=None) -> None:
    """Whole rounds until the requests have taken ``seconds`` (at least one);
    the hooks run between requests and rounds, outside the timed calls."""
    while True:
        for request in workload.next_round():
            tally.record(request, *execute(cli, request))
            if after_request is not None:
                after_request()
        tally.round_ends.append(len(tally.latencies))
        if after_round is not None:
            after_round(tally.busy_s)
        if tally.busy_s >= seconds:
            return


def latency_figures(latencies: list[float], tally: Tally, per_round: bool):
    """(items per second, p50 ms, p90 ms) of per-request seconds; with
    ``per_round`` the percentiles are over whole rounds."""
    item_s = sum(t for t, n in zip(latencies, tally.items) if n)
    items_per_s = sum(tally.items) / item_s if item_s else 0.0
    if per_round:
        bounds = [0, *tally.round_ends]
        latencies = [sum(latencies[a:b]) for a, b in zip(bounds, bounds[1:])]
    lat_ms = [1e3 * t for t in latencies]
    # quantiles needs two samples; a smoke run may have one
    deciles = statistics.quantiles(lat_ms * 2 if len(lat_ms) == 1 else lat_ms,
                                   n=10, method="inclusive")
    return items_per_s, deciles[4], deciles[8]


class SetupProbes:
    """Fresh interpreters that import majorlens.cli and run the warm-up
    request, each timed from spawn to exit, scaled by gauge readings just
    before and after it, and checked for its exit code.

    The probes are spread over the timed run, so that their median samples
    the machine over the same minute as the requests do rather than over
    the few seconds before them."""

    def __init__(self, argv: tuple[str, ...], probes: int, seconds: float, tally: Tally,
                 gauge: Gauge):
        self.argv = argv
        self.tally = tally
        self.gauge = gauge
        self.cmd = [sys.executable, str(HERE / "probe.py"), json.dumps(list(argv))]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.due = [seconds * (k + 0.5) / probes for k in range(probes)]
        self.times: list[float] = []  # scaled seconds of the recorded probes
        self.raw: list[float] = []  # wall seconds of every probe

    def probe(self) -> float:
        """Scaled seconds of one probe."""
        before = self.gauge.read()
        t0 = perf_counter()
        proc = subprocess.run(self.cmd, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
        elapsed = perf_counter() - t0
        after = self.gauge.read()
        self.tally.attempted += 1
        if proc.returncode not in (0, 2):
            self.tally.fail(("probe", *self.argv),
                            f"exit {proc.returncode}: {proc.stderr[-400:]}")
        self.raw.append(elapsed)
        return scale(elapsed, 0.5 * (before + after))

    def __call__(self, busy_s: float) -> None:
        """At most one due probe per round, so a long round cannot bunch them."""
        if self.due and busy_s >= self.due[0]:
            self.due.pop(0)
            self.times.append(self.probe())

    def finish(self) -> tuple[float, float]:
        """Median scaled and median wall seconds of the recorded probes."""
        while self.due:  # a run that ended before its last probes were due
            self.due.pop(0)
            self.times.append(self.probe())
        recorded = self.raw[-len(self.times):]
        return statistics.median(self.times), statistics.median(recorded)


def per_layer_metrics(tracer, rounds: int, untraced_s: float, traced_s: float) -> dict:
    """calls and self_s of every traced span per round, plus ratios."""
    metrics = {}
    totals = tracer.totals()
    for name, (calls, self_s) in totals.items():
        metrics[f"{name}.calls"] = (calls / rounds, "count/round")
        metrics[f"{name}.self_s"] = (self_s / rounds, "s/round")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def calls(name: str) -> int:
        return totals[name][0]

    cfs = "entropy.conditional_from_spectra"
    for short, sweep in (("tsallis", "criteria.tsallis_sweep_spectra"),
                         ("peaked", "criteria.peaked_search_spectra")):
        metrics[f"criteria.{short}.evals_per_verdict"] = (
            ratio(tracer.child_calls(sweep, cfs), calls(sweep)), "count")
    metrics["scan.bisect.predicate_calls_per_onset"] = (
        ratio(tracer.child_calls("scan.bisect_threshold", "scan.RaySpec.spec_at"),
              calls("scan.bisect_threshold")), "count")
    metrics["hermitian.eigenvalues.calls_per_state"] = (
        ratio(calls("hermitian.eigenvalues"), calls("bipartite.BipartiteDensity.init")), "count")
    spanned = sum(s for _, s in totals.values())
    metrics["trace.untraced_s"] = (untraced_s / rounds, "s/round")
    metrics["trace.traced_s"] = (traced_s / rounds, "s/round")
    metrics["trace.unspanned_s"] = ((traced_s - spanned) / rounds, "s/round")
    metrics["trace.overhead_frac"] = (ratio(traced_s - untraced_s, untraced_s), "ratio")
    return metrics


def environment(seed: int) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "seed": seed,
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ.get(v) for v in (*THREAD_ENV, "MAJORLENS_THREADS")},
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    import majorlens.cli as cli
    from tracer import Tracer
    from workloads import WORKLOADS

    workdir = OUT / f"{name}-work"
    workdir.mkdir(parents=True, exist_ok=True)
    for stale in workdir.glob("*.json"):
        stale.unlink()
    workload = WORKLOADS[name](seed, smoke, workdir)
    warmup = Tally()  # set-up probes and the warm-up request: checked, not timed
    request = workload.warmup()
    gauge = Gauge()
    probes = SetupProbes(request.argv, 1 if smoke else SETUP_PROBES, seconds, warmup, gauge)
    probes.probe()  # unrecorded: fills the file cache
    warmup.record(request, *execute(cli, request))

    tally = Tally()
    if not trace:
        scaling = Scaling(tally, gauge)
        run_rounds(cli, workload, seconds, tally, scaling.after_request, probes)
        scaled = [t * f for t, f in zip(tally.latencies, scaling.factors())]
        setup_s, setup_wall_s = probes.finish()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        figures = {}
        for kind, latencies, setup in (("scaled", scaled, setup_s),
                                       ("wall", tally.latencies, setup_wall_s)):
            items_per_s, p50, p90 = latency_figures(latencies, tally, workload.round_latency)
            figures[kind] = {
                "setup_s": (setup, "s"),
                "peak_rss_mb": (rss_mb, "MB"),
                "items_per_s": (items_per_s, "1/s"),
                "request_ms_p50": (p50, "ms"),
                "request_ms_p90": (p90, "ms"),
            }
        metrics, wall_metrics = figures["scaled"], figures["wall"]
        passes = (warmup, tally)
        samples = len(tally.round_ends if workload.round_latency else tally.latencies)
    else:
        # each round runs untraced, then again traced, so that drift in the
        # machine's speed falls on both sides of the overhead alike
        traced = Tally()
        tracer = Tracer()
        rounds = 0
        while not rounds or tally.busy_s < seconds / 2.0:
            requests = workload.next_round()
            rounds += 1
            for request in requests:
                tally.record(request, *execute(cli, request))
            tracer.install()
            try:
                outputs = [(r, *execute(cli, r)) for r in requests]
            finally:
                tracer.uninstall()
            for request, elapsed, outcome in outputs:  # checks run untraced
                traced.record(request, elapsed, outcome)
        metrics = per_layer_metrics(tracer, rounds, tally.busy_s, traced.busy_s)
        tracer.save(OUT / f"spans-{name}.npz")
        wall_metrics = {}
        passes = (warmup, tally, traced)
        samples = traced.attempted

    return {
        "workload": name,
        "trace": int(trace),
        "smoke": smoke,
        "environment": environment(seed),
        "samples": samples,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "errors": [e for p in passes for e in p.errors],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        # the same figures from unscaled wall times, and the gauge behind the scaling
        "wall_metrics": {k: {"value": v, "unit": u} for k, (v, u) in wall_metrics.items()},
        "gauge": {"reference_s": REFERENCE_S, "readings": len(gauge.readings),
                  "median_s": statistics.median(gauge.readings),
                  "min_s": min(gauge.readings), "max_s": max(gauge.readings)},
    }


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def smoke() -> int:
    """Every workload at tiny size, untraced and traced, through the same
    checks; also checks that the printed metric names match BENCHMARK.json."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    bad = 0
    for name in WORKLOADS:
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            t0 = perf_counter()
            record = run_workload(name, 1, 0.0, trace, smoke=True)
            got = {k: v["unit"] for k, v in record["metrics"].items()}
            problems = list(record["errors"])
            if got != expected:
                problems.append(f"metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(expected))}")
            bad += bool(problems or record["failed"])
            status = "FAIL" if problems or record["failed"] else "ok"
            print(f"{status:4} {name:16} trace={int(trace)} {record['attempted']:3} requests "
                  f"{perf_counter() - t0:5.1f}s")
            for problem in problems:
                print(f"     {problem}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("phase-full", "phase-sectors", "onsets",
                                               "analyze-density"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size and exit non-zero on a failure")
    args = parser.parse_args(argv)
    if not (SRC / "majorlens" / "cli.py").is_file():
        print(f"error: no majorlens sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for error in record["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"], "samples": record["samples"]}))
    wall = record["wall_metrics"]
    for key, metric in record["metrics"].items():
        line = f"{key:48} {metric['value']:14.6g} {metric['unit']:12}"
        if key in wall:
            line += f" (wall {wall[key]['value']:.6g})"
        print(line)
    print(f"gauge: {record['gauge']}")
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
