"""Benchmark of the morse-topo CLI: seeded inputs, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload reeb-events --seed 1 --seconds 20 --trace 0

One job is one ``morse_topo.cli.main(argv)`` call in this process, with
stdout and stderr captured; one client runs jobs back to back (a closed
loop, no threads).  The job list of a pass comes from ``--seed`` and the
workload (see ``workloads.py``); passes repeat until ``--seconds`` of job
time have run, and the first pass always completes.  Outputs are checked
after each job, outside the timed region.  ``attempted`` and ``failed``
count the distinct jobs of a pass, not executions: later passes re-time
the same jobs, and a job fails if any of its executions gives a wrong
outcome.  So both counts depend on the inputs alone, never on how many
passes the time allowed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every job
twice, untraced and traced in alternating order, and prints per-layer self
times and counts per pass plus the tracing overhead; spans are written to
``.bench_work/spans/`` when the run ends.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# percentile of the per-job latencies reported as latency_tail_s; each
# leaves at least ten of the pass's jobs above it (see meta.json)
TAIL_PCT = {"reeb-events": 75, "reeb-bulk": 75, "sp-factor": 90, "forms-classify": 90}
SETUP_REPEATS = 11

# Shared machines change speed, by up to 1.8x for seconds at a time on the
# one the baseline was taken on.  A fixed stdlib-only loop, timed before and
# after every job, measures the speed of the moment; each job time is
# scaled by REFERENCE_CAL_S over the mean of those two loop times.  Times
# therefore read as seconds at the speed where the loop takes
# REFERENCE_CAL_S (about the fast state of that machine).  Raw seconds are
# printed alongside.
REFERENCE_CAL_S = 0.0019

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "output_bytes": "bytes",
}

# spans whose self times are reported, each as the metric "<span>_s"
SPANS = [
    "mesh.parse", "mesh.validate", "mesh.extract", "krgraph.to_dot",
    "krgraph.validate", "krgraph.critical_type_of", "surface.json",
    "canonical.build", "classify.decide", "symplectic.parse_matrix",
    "symplectic.decompose", "symplectic.completion", "symplectic.format_word",
    "mcg.factor", "mcg.generators", "cli.self",
]
COUNTS = [
    "mesh.vertices", "mesh.triangles", "mesh.events", "mesh.errors",
    "krgraph.vertices", "krgraph.edges", "symplectic.word_letters",
    "symplectic.errors", "mcg.generators", "cli.domain_errors", "cli.crashes",
]
PEAKS = {"symplectic.max_exp_bits": "bits", "symplectic.matrix_digits": "digits"}
OVERHEAD_UNITS = {"trace.overhead_pct": "%", "trace.overhead_p50_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in SPANS}
    units.update({name: "count" for name in COUNTS})
    units.update(PEAKS)
    units.update(OVERHEAD_UNITS)
    return units


def fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


# ---------------------------------------------------------------------------
# running jobs


def invoke(main, argv):
    """Run one CLI call like a fresh process would end: exit code, stdout
    and stderr (a traceback for an uncaught exception)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def calibration_loop() -> float:
    """Seconds a fixed piece of interpreter work takes right now."""
    start = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i, i + 7)
        seen[i % 97] = acc < i
        seen[i] = (i * 123456789123456789) // 987654321
    return time.perf_counter() - start


class Clock:
    """Times a call and scales it to the reference speed."""

    def __init__(self):
        self.last = calibration_loop()

    def measure(self, fn, *args, **kwargs):
        """(result, scaled seconds, raw seconds) of the call."""
        before = self.last
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        self.last = calibration_loop()
        return result, raw * 2 * REFERENCE_CAL_S / (before + self.last), raw


def measure_setup() -> float:
    """Median scaled time a fresh interpreter takes to import the CLI and
    build its parser, the cost every CLI call pays on top of the bare
    interpreter.  The child times itself and then runs the calibration loop,
    so both see the same speed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = (
        "import time; t = time.perf_counter(); import morse_topo.cli as c; "
        "c.build_parser(); t = time.perf_counter() - t; import sys; "
        f"sys.path.insert(0, {HERE!r}); from run import calibration_loop; "
        "calibration_loop(); print(t, calibration_loop())"
    )
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
            capture_output=True, text=True,
        )
        took, cal = map(float, proc.stdout.split())
        if i:  # the first call may write bytecode caches
            times.append(took * REFERENCE_CAL_S / cal)
    return statistics.median(times)


class Runner:
    """Runs a pass's jobs until the time is up and checks every outcome."""

    def __init__(self, main, jobs, refs, tracer=None):
        self.main, self.jobs, self.refs, self.tracer = main, jobs, refs, tracer
        self.clock = Clock()
        self.latency = [[] for _ in jobs]  # untraced scaled seconds per execution
        self.traced = [[] for _ in jobs]  # traced scaled seconds per execution
        self.scale = {}  # (job, traced execution) -> factor raw -> scaled
        self.raw = 0.0  # unscaled seconds of all executions
        self.verdict = [None] * len(jobs)  # None: right, else why not
        self.stdout_bytes = [0] * len(jobs)
        self.executions = 0
        self._seen: dict[int, tuple] = {}

    def _check(self, index, code, out, err):
        """Check an outcome unless it repeats the job's last one; the first
        wrong outcome of a job is kept as its verdict."""
        key = (code, hash(out), hash(err))
        if self._seen.get(index) == key:
            return
        self._seen[index] = key
        self.stdout_bytes[index] = len(out.encode("utf-8"))
        if self.verdict[index] is None:
            self.verdict[index] = checks.check(
                self.jobs[index].expect, code, out, err, self.refs
            )

    @property
    def failed(self) -> int:
        return sum(v is not None for v in self.verdict)

    def _execute(self, index, traced: bool):
        argv = self.jobs[index].argv
        if not traced:
            (code, out, err), took, raw = self.clock.measure(invoke, self.main, argv)
            self.latency[index].append(took)
        else:
            tr = self.tracer
            tr.job = (index, len(self.traced[index]))
            tr.install()
            try:
                (code, out, err), took, raw = self.clock.measure(
                    tr.span, "cli.self", invoke, self.main, argv
                )
            finally:
                tr.uninstall()
            if checks.crash_line(err):
                tr.count("cli.crashes")
            elif code == 1:
                tr.count("cli.domain_errors")
            self.scale[tr.job] = took / raw
            self.traced[index].append(took)
        self.raw += raw
        return code, out, err

    def run(self, seconds: float):
        executions = 0
        while executions < len(self.jobs) or self.raw < seconds:
            index = executions % len(self.jobs)
            modes = [False] if self.tracer is None else [False, True]
            if executions % 2:
                modes.reverse()
            for traced in modes:
                gc.collect()
                self._check(index, *self._execute(index, traced))
                self.executions += 1
            executions += 1


# ---------------------------------------------------------------------------
# metrics


def percentile(values, pct: float) -> float:
    """Linear interpolation between order statistics (the 'inclusive' rule)."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def latency_metrics(samples, tail_pct):
    """Per-job median latencies -> p50, tail, jobs per second of a pass."""
    per_job = [statistics.median(s) for s in samples if s]
    tail = percentile(per_job, tail_pct)
    return {
        "latency_p50_s": statistics.median(per_job),
        "latency_tail_s": tail,
        "jobs_per_s": len(per_job) / sum(per_job),
        "_beyond": sum(1 for x in per_job if x > tail),
        "_n": len(per_job),
    }


def per_pass(runner: Runner, value) -> float:
    """Sum over the pass's jobs of ``value(job, execution)`` averaged over
    each job's traced executions."""
    return sum(
        sum(value(index, k) for k in range(len(runs))) / len(runs)
        for index, runs in enumerate(runner.traced)
    )


def layer_metrics(runner: Runner) -> dict[str, float]:
    """Self times and counts per pass, and the largest sizes seen."""
    tr = runner.tracer
    selfs = tr.self_times()
    out = {}
    for name in SPANS:
        out[f"{name}_s"] = per_pass(
            runner, lambda i, k: selfs[(i, k)][name] * runner.scale[(i, k)]
        )
    for metric in COUNTS:
        out[metric] = per_pass(runner, lambda i, k: tr.counts[(i, k)][metric])
    for metric in PEAKS:
        out[metric] = tr.peaks[metric]
    return out


def explain_failures(runner: Runner, defects) -> dict[str, list[str]]:
    """Failed jobs grouped by the known defect whose signature they show."""
    groups: dict[str, list[str]] = {}
    for job, verdict in zip(runner.jobs, runner.verdict):
        if verdict is None:
            continue
        cause = next(
            (d["id"] for d in defects if d["signature"] in verdict), "unexplained"
        )
        groups.setdefault(cause, []).append(f"{job.id}: {verdict[:100]}")
    return groups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "morse_topo", "cli.py")):
        return fail("no morse_topo sources under src/; run from a full checkout")
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}")
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    with open(os.path.join(HERE, "meta.json"), encoding="utf-8") as fh:
        defects = json.load(fh)["known_defects"]

    from morse_topo.cli import main as cli_main

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        jobs = workloads.build(args.workload, args.seed, workdir, refs)
        setup_s = measure_setup() if not args.trace else None
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        runner = Runner(cli_main, jobs, refs, tracer)
        # keep the benchmark's own objects out of every later collection,
        # so a job's garbage collection scans about what a CLI process would
        gc.collect()
        gc.freeze()
        runner.run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = explain_failures(runner, defects)
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass, "
          f"{runner.executions} executions, {runner.failed} jobs failed")
    for cause, items in sorted(failures.items()):
        print(f"  failed ({cause}): {len(items)} jobs, e.g. {items[0]}")
    tail_pct = TAIL_PCT[args.workload]
    plain = latency_metrics(runner.latency, tail_pct)
    print(f"  latency_tail_s is p{tail_pct} of {plain['_n']} per-job median latencies; "
          f"{plain['_beyond']} jobs lie beyond it")
    scaled = sum(sum(s) for s in runner.latency + runner.traced)
    print(f"  {runner.raw:.3f} s of job time measured; scaled to the reference speed "
          f"it reads {scaled:.3f} s")
    ok_ratio = 1 - runner.failed / len(jobs)

    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "jobs_per_s": plain["jobs_per_s"],
            "latency_p50_s": plain["latency_p50_s"],
            "latency_tail_s": plain["latency_tail_s"],
            "ok_ratio": ok_ratio,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "output_bytes": float(sum(runner.stdout_bytes)),
        }
        units = END_TO_END_UNITS
    else:
        traced = latency_metrics(runner.traced, tail_pct)
        for name in ("jobs_per_s", "latency_p50_s", "latency_tail_s"):
            print(f"  {name}: untraced {plain[name]:.6g}, traced {traced[name]:.6g}, "
                  f"difference {traced[name] - plain[name]:+.6g}")
        metrics = layer_metrics(runner)
        busy = sum(metrics[f"{name}_s"] for name in SPANS)
        for name in sorted((f"{n}_s" for n in SPANS), key=metrics.get, reverse=True)[:3]:
            print(f"  {name} is {100 * metrics[name] / busy:.1f}% of traced job time")
        first = tracer.counts[(0, 0)]
        print(f"  first job {jobs[0].id}: "
              + ", ".join(f"{k} = {first[k]:g}" for k in COUNTS if first[k]))
        base = sum(statistics.median(s) for s in runner.latency if s)
        with_trace = sum(statistics.median(s) for s in runner.traced if s)
        metrics["trace.overhead_pct"] = 100 * (with_trace - base) / base
        metrics["trace.overhead_p50_s"] = traced["latency_p50_s"] - plain["latency_p50_s"]
        spans_dir = os.path.join(ROOT, ".bench_work", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans_file = os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.jsonl")
        tracer.dump(spans_file)
        print(f"  {len(tracer.spans)} spans written to {os.path.relpath(spans_file, ROOT)}")
        units = per_layer_units()
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    # failures a listed defect explains are counted, not treated as a
    # broken benchmark; any other wrong outcome makes the run incorrect
    print(json.dumps({
        "correct": "unexplained" not in failures,
        "attempted": len(jobs),
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
