"""Benchmark for hjts: closed-loop `hjts verify` workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload fd-default --seed 1 --seconds 20 --trace 0

Every workload runs in this one process and thread through
``hjts.cli.main(["verify", ...])``, one report after another (a closed loop
with one client).  Each entry of ``hjts.harness._SUITE_EVALS`` -- one sample:
drawing the point and checking it -- is timed from outside.

``--trace 0`` prints the end-to-end metrics: samples per second, sample
latency p50/p90, set-up time of a fresh process, peak RSS and the residual
ratio.  ``--trace 1`` runs a fixed-size report alternately untraced and under
:class:`tracer.Tracer` and prints the per-layer call counts and self times.
Every report is checked (exit code, ``all_pass``, sample counts, per-sample
tolerances, byte-identical repeat); a sample that fails a check is counted in
``failed``, never dropped.  The last line of stdout is the JSON result.
"""
from __future__ import annotations

import os

# Pin the environment before numpy loads its BLAS.
os.environ.pop("HJTS_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import SAMPLE_SPAN, Tracer, span_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Latency p90 needs ten samples beyond it.
MIN_SAMPLES = 100
#: Fresh processes timed per run for ``setup_s``; the median is reported.
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    target: tuple        # verify arguments: kinds and suites
    points: int          # points per cell in one timed report
    reports: int         # timed reports always run; the residual metrics use these
    trace_points: int    # points per cell in one traced report


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "fd-default": Workload(
        ("--all", "--suites", "symplectic,volume"),
        points=1, reports=40, trace_points=4),
    "exact-default": Workload(
        ("--all", "--suites",
         "jordan,spectral,duality,equivariance,hereditary,lemma_a1,lemma_a2,beta_exact"),
        points=1, reports=48, trace_points=10),
    "large-kinds": Workload(
        ("--kind", "I:4,4", "--kind", "II:6", "--kind", "III:4", "--kind", "IV:8",
         "--suites", "spectral,duality,equivariance,lemma_a1"),
        points=1, reports=32, trace_points=4),
}


class BenchmarkError(Exception):
    """The benchmark cannot measure this tree; no result is printed."""


def derived_seed(seed: int, stream: str, index: int) -> int:
    """A 63-bit verify seed for one report, reproducible from ``--seed``."""
    digest = hashlib.sha256(f"{seed}:{stream}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def verify_argv(workload: Workload, points: int, seed: int) -> list[str]:
    return ["verify", *workload.target, "--points", str(points), "--seed", str(seed)]


# --------------------------------------------------------------------------
# Loading the program under test

def load_hjts():
    if not (SRC / "hjts" / "__init__.py").is_file():
        raise BenchmarkError(f"no hjts sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hjts
    import hjts.cli
    import hjts.harness

    if not Path(hjts.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"imported hjts from {hjts.__file__}, not from {SRC}")
    return hjts


def environment(seed: int) -> dict:
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "hjts").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


# --------------------------------------------------------------------------
# The per-sample seam

class SampleSeam:
    """Times every entry of ``hjts.harness._SUITE_EVALS`` while active.

    Each record is ``(kind, suite, seconds, error)``; ``error`` is None when
    the sample raised.  With a tracer, each sample also becomes a span.
    """

    def __init__(self, harness, tracer=None) -> None:
        if sorted(harness._SUITE_EVALS) != sorted(harness.SUITE_NAMES):
            raise BenchmarkError(
                "hjts.harness._SUITE_EVALS no longer matches SUITE_NAMES "
                f"({sorted(harness._SUITE_EVALS)} vs {sorted(harness.SUITE_NAMES)}); "
                "the per-sample seam is gone")
        self.evals = harness._SUITE_EVALS
        self.tracer = tracer
        self.records: list[tuple] = []
        self._saved: dict = {}

    def _timed(self, suite: str, fn):
        records = self.records
        tracer = self.tracer

        def timed(kind, config, rng, sample_index):
            start = time.perf_counter()
            try:
                if tracer is None:
                    error = fn(kind, config, rng, sample_index)
                else:
                    tracer.sample = len(records)
                    error = tracer.call(SAMPLE_SPAN, fn, kind, config, rng, sample_index)
            except Exception:
                records.append((kind, suite, time.perf_counter() - start, None))
                raise
            records.append((kind, suite, time.perf_counter() - start, float(error)))
            return error
        return timed

    def __enter__(self) -> "SampleSeam":
        self._saved = dict(self.evals)
        for suite, fn in self._saved.items():
            self.evals[suite] = self._timed(suite, fn)
        return self

    def __exit__(self, *exc) -> None:
        self.evals.update(self._saved)


# --------------------------------------------------------------------------
# One checked report

_WALL = re.compile(r'"wall_time_s": [^,\n}]*')


@dataclass
class Report:
    argv: list
    text: str            # report JSON, wall time scrubbed
    wall_s: float        # time inside hjts.cli.main
    samples: list        # seam records of this report
    failed: int          # samples that failed a check
    ratios: list         # error / tolerance of each sample that returned
    problems: list


def run_report(hjts, seam: SampleSeam, argv: list, points: int) -> Report:
    """Run one ``hjts verify`` in-process and check its report."""
    first = len(seam.records)
    out = io.StringIO()
    problems = []
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = hjts.cli.main(argv)
        except Exception as err:  # an escaped defect is a failed report, not a crash
            code = f"{type(err).__name__}: {err}"
    wall = time.perf_counter() - start
    samples = seam.records[first:]
    text = _WALL.sub('"wall_time_s": 0', out.getvalue())

    if code != 0:
        problems.append(f"exit {code}")
    try:
        report = json.loads(text)
    except ValueError:
        return Report(argv, text, wall, samples, len(samples), [],
                      problems + ["no JSON report"])

    results = report["results"]
    if sum(r["samples"] for r in results) != len(samples):
        raise BenchmarkError(
            f"timed {len(samples)} samples but the report counts "
            f"{sum(r['samples'] for r in results)}; the per-sample seam missed some")
    if not report["all_pass"]:
        problems.append("all_pass is false")
    if report["consistency_failure"] is not None:
        problems.append(f"consistency failure {report['consistency_failure']['message']}")
    config = report["config"]
    if len(results) != len(config["kinds"]) * len(config["suites"]):
        problems.append(f"{len(results)} cells for {config['kinds']} x {config['suites']}")
    for r in results:
        expected = 0 if r["status"] == "skipped" else points
        if r["samples"] != expected:
            problems.append(f"{r['kind']}/{r['suite']} ran {r['samples']} of {expected} samples")

    tolerance = {(r["kind"], r["suite"]): r["tolerance"] for r in results}
    ratios = [error / tolerance[(hjts.format_kind(kind), suite)]
              for kind, suite, _, error in samples if error is not None]
    failed = len(samples) - sum(1 for ratio in ratios if ratio <= 1.0)
    if problems:
        failed = len(samples)
    return Report(argv, text, wall, samples, failed, ratios, problems)


def check_repeat(hjts, seam: SampleSeam, reference: Report, points: int) -> Report:
    """Rerun ``reference``; differing report bytes fail all its samples."""
    again = run_report(hjts, seam, reference.argv, points)
    if again.text != reference.text:
        again.problems.append("report bytes differ from the first run of the same seed")
        again.failed = len(again.samples)
    return again


# --------------------------------------------------------------------------
# Set-up time in fresh processes

def measure_setup(workload: Workload, seed: int) -> tuple[list[float], int, int, list]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    seconds, attempted, failed, problems = [], 0, 0, []
    for i in range(SETUP_REPEATS):
        argv = verify_argv(workload, 1, derived_seed(seed, "setup", i))
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), *argv],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed:\n{proc.stderr.strip()}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        if not Path(probe["module"]).resolve().is_relative_to(SRC):
            raise BenchmarkError(f"set-up probe imported hjts from {probe['module']}")
        seconds.append(probe["seconds"])
        attempted += probe["samples"]
        if probe["exit"] != 0 or not probe["all_pass"]:
            failed += probe["samples"]
            problems.append(f"set-up probe {i}: exit {probe['exit']}")
    return seconds, attempted, failed, problems


# --------------------------------------------------------------------------
# Runs

def timed_run(hjts, name: str, seed: int, seconds: float) -> tuple[dict, int, int, list, dict]:
    """The end-to-end run: reports back to back for ``seconds``."""
    workload = WORKLOADS[name]
    setup, attempted, failed, problems = measure_setup(workload, seed)

    seam = SampleSeam(hjts.harness)
    with seam:
        warm = run_report(hjts, seam, verify_argv(workload, 1, derived_seed(seed, "warm", 0)), 1)
        reports = []
        first_sample = len(seam.records)
        started = time.perf_counter()
        while (len(reports) < workload.reports
               or len(seam.records) - first_sample < MIN_SAMPLES
               or time.perf_counter() - started < seconds):
            argv = verify_argv(workload, workload.points, derived_seed(seed, "run", len(reports)))
            reports.append(run_report(hjts, seam, argv, workload.points))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        repeat = check_repeat(hjts, seam, reports[0], workload.points)

    latencies_ms = [r[2] * 1e3 for report in reports for r in report.samples]
    deciles = statistics.quantiles(latencies_ms, n=10, method="inclusive")
    ratios = [ratio for report in reports[:workload.reports] for ratio in report.ratios]
    busy_s = sum(report.wall_s for report in reports)
    for report in (warm, *reports, repeat):
        attempted += len(report.samples)
        failed += report.failed
        problems.extend(report.problems)
    metrics = {
        "samples_per_s": (len(latencies_ms) / busy_s, "1/s"),
        "sample_ms_p50": (deciles[4], "ms"),
        "sample_ms_p90": (deciles[8], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "residual_ratio_p50": (statistics.median(ratios), "ratio"),
    }
    info = {
        "residual_ratio_max": max(ratios),
        "samples_timed": len(latencies_ms),
        "reports": len(reports),
        "failed_share": failed / attempted,
        "setup_s_all": setup,
    }
    return metrics, attempted, failed, problems, info


def traced_run(hjts, name: str, seed: int, seconds: float) -> tuple[dict, int, int, list, dict]:
    """The per-layer run: one fixed report, alternately untraced and traced."""
    workload = WORKLOADS[name]
    argv = verify_argv(workload, workload.trace_points, derived_seed(seed, "trace", 0))
    plain_seam = SampleSeam(hjts.harness)
    with plain_seam:
        done = [run_report(hjts, plain_seam, verify_argv(workload, 1, derived_seed(seed, "warm", 0)), 1)]
    plain, traced, summaries = [], [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        with SampleSeam(hjts.harness) as seam:
            done.append(run_report(hjts, seam, argv, workload.trace_points))
        plain.append(done[-1].wall_s)
        tracer = Tracer()
        with tracer, SampleSeam(hjts.harness, tracer) as seam:
            done.append(run_report(hjts, seam, argv, workload.trace_points))
        traced.append(done[-1].wall_s)
        summary = tracer.summary()
        check_trace(summary, done[-1].wall_s)
        summaries.append((summary, tracer.eigh_work_n3))
        if len(summaries) == 1:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"trace-{name}.npz")

    for report in done[2:]:
        if report.text != done[1].text:
            report.problems.append("report bytes differ between repeats of one seed")
            report.failed = len(report.samples)
    counts = [({n: row[0] for n, row in s.items()}, work) for s, work in summaries]
    if any(c != counts[0] for c in counts):
        done[-1].problems.append("call counts differ between traced repeats of one report")
        done[-1].failed = len(done[-1].samples)
    attempted = sum(len(r.samples) for r in done)
    failed = sum(r.failed for r in done)
    problems = [p for r in done for p in r.problems]

    calls, work_n3 = counts[0]
    samples = calls[SAMPLE_SPAN]
    metrics = {}
    for span in span_names():
        metrics[f"{span}.calls"] = (calls.get(span, 0), "count")
        metrics[f"{span}.self_s"] = (
            statistics.median(s.get(span, (0, 0.0))[1] for s, _ in summaries), "s")
    metrics["linalg.eigh.work_n3"] = (work_n3, "count")
    for layer in ("jts.Element", "geometry.potential", "duality.psi", "linalg.eigh",
                  "linalg.cholesky_logdet"):
        n = sum(c for span, c in calls.items()
                if span == layer or span.startswith(layer + "."))  # psi: all routes
        metrics[f"{layer}.per_sample"] = (n / samples, "calls/sample")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    info = {"traced_reports": len(traced), "samples_per_report": samples,
            "traced_wall_s": traced, "untraced_wall_s": plain}
    return metrics, attempted, failed, problems, info


def check_trace(summary: dict, wall_s: float) -> None:
    """Self times are non-negative and add up to no more than the traced wall time."""
    total = sum(own for _, own in summary.values())
    negative = {span: own for span, (_, own) in summary.items() if own < -1e-9}
    if negative or total > wall_s:
        raise BenchmarkError(
            f"inconsistent trace: self times sum to {total:.6f}s over a {wall_s:.6f}s "
            f"report; negative: {negative}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        hjts = load_hjts()
        run = traced_run if args.trace else timed_run
        metrics, attempted, failed, problems, info = run(hjts, args.workload, args.seed,
                                                         args.seconds)
    except BenchmarkError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for metric, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {metric:40s} {value:.6g} {unit}")
    print(json.dumps({"workload": args.workload, "trace": args.trace,
                      "env": environment(args.seed), **info}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
