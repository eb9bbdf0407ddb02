"""Benchmark of the ``rahman`` CLI, driven in-process through click.

    python3 perfbench/run.py --workload verify|table|queries --seed N \
        --seconds S --trace 0|1

One closed-loop client: a single process and thread sends each request
only after the previous one returned.  The run draws one batch from the
seed (see workloads.py) and repeats it in rounds, at least ``MIN_ROUNDS``
and until the next round would overrun ``--seconds`` by more than half a
round.  Every output is checked outside the timed region (see checks.py):
each request's first output in full, and each later one if it differs.

Timings are given at a reference speed of the host.  On a host whose cores
are shared, the same request runs up to 1.9x its fastest time, depending on
what else the host runs at that moment, and slow stretches last minutes.
So a fixed pure-Python probe is timed between every two requests, and each
request's latency is scaled by ``PROBE_REF_S`` over the mean of the probes
on either side of it.  The raw timings are in the ``# info`` record.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
request once untraced and once traced in each round, and prints the
per-layer metrics of layers.py with the tracing overhead.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  Lines before it give every metric by name and unit, and an
``# info`` record with the interpreter, core count, commit, source digest
and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import checks  # noqa: E402  (these import rahman from SRC)
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from rahman.cli import main as rahman_main  # noqa: E402

# Set-up is timed SETUP_RUNS times before the measured rounds and as many
# times after them, so that its median spans the run rather than one
# moment of a host whose speed drifts.
SETUP_RUNS = 10
# Rounds of the batch a run makes at least, so that no median rests on a
# request's first, cold run alone.
MIN_ROUNDS = 2
# The probe sums 1/i for i < PROBE_TERMS in Fractions, about 0.8 ms when
# the host is quiet; PROBE_REF_S is about its fastest time on the 2-core
# host where the baseline was made, so reference-speed timings come out
# close to what that host gives with no other load.
PROBE_TERMS = 300
PROBE_REF_S = 0.0008


def probe() -> float:
    """Seconds one fixed Fraction sum takes now; no ``rahman`` code runs."""
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, PROBE_TERMS):
            total += Fraction(1, i)
        return time.perf_counter() - start
    finally:
        gc.enable()


def invoke(argv) -> tuple:
    """Run one command as ``rahman argv`` would: (exit code, stdout, traceback)."""
    out = io.StringIO()
    traceback = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rahman_main.main(args=list(argv), prog_name="rahman", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:  # an uncaught exception is a traceback and exit 1
            code, traceback = 1, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), traceback


def work_units(request, outcome) -> int:
    """Checks run (verify), P values emitted (table), or one request (queries)."""
    code, out, _ = outcome
    if request.kind == "verify":
        try:
            return sum(report["checked"] for report in json.loads(out))
        except (ValueError, TypeError, KeyError):
            return 0
    if request.kind == "table":
        return ((request.n + 1) * (request.n + 2) // 2) ** 2 if code == 0 else 0
    return 1


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Pass:
    """Latencies and judged outcomes of one batch, run in rounds."""

    def __init__(self, batch, checker):
        self.batch = batch
        self.checker = checker
        self.rounds = 0
        self.latencies = [[] for _ in batch]  # per request, one per round
        self.slowness = [[] for _ in batch]   # probe time / PROBE_REF_S, likewise
        self.units = [0] * len(batch)
        self.failures: list = []              # (request, reason), every round
        self._judged: dict = {}               # (index, outcome) -> reason

    def record(self, outcomes, latencies, slowness) -> None:
        """Add one round.  An output is judged the first time it is seen."""
        for index, (request, outcome, latency) in enumerate(zip(self.batch, outcomes, latencies)):
            self.latencies[index].append(latency)
            self.slowness[index].append(slowness[index])
            key = (index, outcome)
            if key not in self._judged:
                self._judged[key] = self.checker.judge(request, outcome)
                self.units[index] = work_units(request, outcome)
            if self._judged[key] is not None:
                self.failures.append((request, self._judged[key]))
        self.rounds += 1

    @property
    def attempted(self) -> int:
        return self.rounds * len(self.batch)

    def scaled(self) -> list:
        """Latencies at the reference speed, per request and round."""
        return [[t / k for t, k in zip(times, factors)]
                for times, factors in zip(self.latencies, self.slowness)]

    def median_latencies(self) -> list:
        """Each request's median reference-speed latency over the rounds."""
        return [statistics.median(times) for times in self.scaled()]

    def median_batch_s(self, latencies) -> float:
        """Median over the rounds of the batch's summed ``latencies``."""
        return statistics.median(map(sum, zip(*latencies)))

    def mean_batch_s(self) -> float:
        return sum(map(sum, self.latencies)) / self.rounds


def run_request(request, tracer=None) -> tuple:
    """(outcome, latency) of one request, traced when ``tracer`` is given.

    The wrappers go in before and come out after the traced request, so
    untraced requests and the checks run unwrapped and add no spans.
    """
    if tracer is None:
        began = time.perf_counter()
        outcome = invoke(request.argv)
        return outcome, time.perf_counter() - began
    layers.instrument(tracer)
    try:
        span = tracer.begin("cli")
        outcome = invoke(request.argv)
        tracer.end(span)
    finally:
        tracer.restore()
    _, start, end, _ = tracer.spans[span]
    return outcome, end - start


def run_pass(batch, checker, budget_s=0.0, tracer=None) -> list:
    """Run ``batch`` in rounds, at least MIN_ROUNDS and until the next round
    would overrun ``budget_s`` of wall time by more than half a round;
    [untraced pass] or, with ``tracer``, [untraced pass, traced pass].

    With a tracer each request runs untraced and traced, back to back and
    in alternating order, which keeps the host's drift in speed out of the
    tracing overhead.  A probe runs before the first request and after
    each one.  The budget counts both copies, the probes and the checks.
    """
    copies = [None] if tracer is None else [None, tracer]
    passes = [Pass(batch, checker) for _ in copies]
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        outcomes = [[] for _ in copies]
        latencies = [[] for _ in copies]
        slowness = []
        before = probe()
        for index, request in enumerate(batch):
            order = range(len(copies)) if index % 2 == 0 else reversed(range(len(copies)))
            for copy in order:
                outcome, latency = run_request(request, copies[copy])
                outcomes[copy].append(outcome)
                latencies[copy].append(latency)
            after = probe()
            slowness.append((before + after) / 2 / PROBE_REF_S)
            before = after
        for result, done, took in zip(passes, outcomes, latencies):
            result.record(done, took, slowness)
        now = time.perf_counter()
        if passes[0].rounds >= MIN_ROUNDS and now - start + (now - round_start) / 2 > budget_s:
            return passes


def measure_setup(runs: int) -> list:
    """(raw, reference-speed) times from a fresh interpreter to an imported
    ``rahman.cli``, scaled like request latencies by probes on either side."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import rahman.cli"
    times = []
    before = probe()
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        took = time.perf_counter() - start
        after = probe()
        times.append((took, took * 2 * PROBE_REF_S / (before + after)))
        before = after
    return times


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rahman").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() if done.returncode == 0 else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(result: Pass, setup_s: float) -> dict:
    """Reference-speed metrics: medians over the rounds, then over requests."""
    batch_s = result.median_batch_s(result.scaled())
    latencies = result.median_latencies()
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (batch_s, "s"),
        "work_per_s": (sum(result.units) / batch_s, "1/s"),
        "request_p50_ms": (1e3 * percentile(latencies, 0.5), "ms"),
        "request_p90_ms": (1e3 * percentile(latencies, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def raw_timings(result: Pass, setup) -> dict:
    """The same medians in measured seconds, and the host's slowness."""
    return {
        "raw_setup_s": statistics.median(raw for raw, _ in setup),
        "raw_wall_s": result.median_batch_s(result.latencies),
        "slowness_median": statistics.median(k for row in result.slowness for k in row),
    }


def traced_metrics(args, batch):
    """Per-layer metrics, per batch, and the tracing overhead."""
    tracer = spans.Tracer()
    plain, traced_pass = run_pass(batch, checks.Checker(args.seed), args.seconds, tracer)
    metrics = layers.layer_metrics(tracer, plain.rounds, traced_pass.mean_batch_s(),
                                   plain.mean_batch_s())
    metrics["cli.error_rate"] = (len(traced_pass.failures) / traced_pass.attempted, "ratio")
    metrics["cli.pn_repeat_share"] = (workloads.pair_repeat_share(batch), "ratio")
    return metrics, [plain, traced_pass]


def main_entry(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("RAHMAN_MAX_N", None)  # the default ceiling, N=12

    info = provenance(args)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        batch = workloads.batch(args.workload, args.seed, workdir)
        if args.trace:
            metrics, passes = traced_metrics(args, batch)
        else:
            setup = measure_setup(SETUP_RUNS)
            passes = run_pass(batch, checks.Checker(args.seed), budget_s=args.seconds)
            setup += measure_setup(SETUP_RUNS)
            metrics = end_to_end(passes[0], statistics.median(scaled for _, scaled in setup))
            info.update(raw_timings(passes[0], setup))

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    info.update({
        "rounds": passes[0].rounds,
        "requests_per_batch": len(batch),
        "latency_samples": len(batch),
        "error_rate": len(failures) / attempted,
        "pn_repeat_share": workloads.pair_repeat_share(batch),
        "failures": sorted({f"{r.kind} {' '.join(r.argv[:2])}: "
                            + reason.replace(str(ROOT), ".")
                            for r, reason in failures})[:20],
    })
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print("# info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": all(workloads.known_defect(r) for r, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main_entry())
