"""The closed-loop runner, failure accounting and end-to-end metrics.

One client sends the next op only after the previous one returns.  A
pass runs every op of the workload once; the timed phase runs whole
passes, so each pass carries the same op mix.  Outputs of the first pass
are kept as the reference; every later pass is compared with it between
passes, outside the timed region, and the oracles check the reference
once the timed phase is over.  Set-up and the timed phase run under a
speed.SpeedClock: the metrics are their times scaled to the reference
machine speed, and the report prints the raw times beside them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracles
import speed
import workloads

# Percentiles in tenths of a percent; the tail is the highest of them
# with at least TAIL_BEYOND samples above it.
TAIL_PERCENTILES = ((900, "p90"), (990, "p99"), (999, "p99.9"))
TAIL_BEYOND = 10
SETUP_REPEATS = 9


@dataclass(frozen=True)
class Limits:
    """Op counts that keep the tail percentile of a workload fixed: at least
    min_ops so it exists, at most max_ops so that a faster machine does not
    move it to the next percentile."""

    min_ops: int
    max_ops: int


LIMITS = {
    "scan": Limits(10_000, 10**9),   # 2,600 ops a pass; p99.9
    "deep": Limits(100, 999),        # 700 ops a pass; p90
    "example": Limits(100, 999),     # 5 ops a cycle; p90
    "reduce": Limits(100, 999),      # 160 ops a pass; p90
}


def tail_percentile(latencies) -> tuple[str, float, int] | None:
    """(label, value, samples beyond) of the highest of p90/p99/p99.9 that
    has at least TAIL_BEYOND samples beyond it, by nearest rank; None when
    even p90 has fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    best = None
    for per_mille, label in TAIL_PERCENTILES:
        rank = -(-per_mille * n // 1000)
        if rank >= 1 and n - rank >= TAIL_BEYOND:
            best = (label, ordered[rank - 1], n - rank)
    return best


def run_cli(main, argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def import_tamedeg():
    """Import the package afresh and return its loaded modules."""
    for key in [k for k in sys.modules if k == "tamedeg" or k.startswith("tamedeg.")]:
        del sys.modules[key]
    importlib.import_module("tamedeg.cli")
    return sys.modules["tamedeg.cli"], sys.modules["tamedeg.decision"]


def make_executor(workload: str, cli, decision, work_dir: Path, files):
    """A function running one op spec.  Module attributes are looked up on
    each call, so the tracer's wrappers are used once installed."""
    if workload == "scan":
        return lambda spec: decision.decide(tuple(spec))

    def execute(spec):
        return run_cli(cli.main, [str(work_dir / arg) if arg in files else arg for arg in spec])

    return execute


@dataclass
class Setup:
    inputs: workloads.Inputs
    execute: object
    raw_times: list
    times: list


def setup(workload: str, seed: int, work_dir: Path) -> Setup:
    """Import, generate the inputs and write their files, SETUP_REPEATS times."""
    spans = []
    with speed.SpeedClock() as clock:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter_ns()
            cli, decision = import_tamedeg()
            inputs = workloads.GENERATORS[workload](seed)
            if work_dir.exists():
                shutil.rmtree(work_dir)
            work_dir.mkdir(parents=True)
            for name, text in inputs.files.items():
                (work_dir / name).write_text(text, encoding="utf-8")
            execute = make_executor(workload, cli, decision, work_dir, set(inputs.files))
            spans.append((start, time.perf_counter_ns()))
    raw, scaled = zip(*(clock.span(*span) for span in spans))
    return Setup(inputs, execute, [ns / 1e9 for ns in raw], [ns / 1e9 for ns in scaled])


@dataclass
class PassLog:
    """Latencies and failure bookkeeping of the timed phase.  run_pass
    records wall latencies and spans; timed_phase then replaces the
    latencies by program time, raw and scaled, from its SpeedClock."""

    latencies_ns: list = field(default_factory=list)
    spans_ns: list = field(default_factory=list)
    scaled_ns: list = field(default_factory=list)
    pass_ns: list = field(default_factory=list)
    speed: float = 1.0
    reference: list | None = None
    mismatches: list | None = None

    @property
    def ops(self) -> int:
        return len(self.latencies_ns)


def run_pass(ops, execute, log: PassLog, on_op=None) -> list:
    """Run each op once, timing it; returns the outputs."""
    clock = time.perf_counter_ns
    outputs = []
    pass_start = clock()
    for index, spec in enumerate(ops):
        if on_op is not None:
            on_op(index)
        start = clock()
        try:
            out = execute(spec)
        except Exception as exc:  # an op that raises is a failed op
            out = oracles.Failure(exc)
        end = clock()
        log.latencies_ns.append(end - start)
        log.spans_ns.append((start, end))
        outputs.append(out)
    log.pass_ns.append(clock() - pass_start)
    return outputs


def record(log: PassLog, outputs: list) -> None:
    """Keep the first pass as reference; count later outputs that differ."""
    if log.reference is None:
        log.reference = outputs
        log.mismatches = [0] * len(outputs)
        return
    for i, (got, ref) in enumerate(zip(outputs, log.reference)):
        if isinstance(got, oracles.Failure) or got != ref:
            log.mismatches[i] += 1


def timed_phase(ops, execute, seconds: float, limits: Limits) -> PassLog:
    """Whole passes, ending at the pass boundary nearest to `seconds`, but
    after at least limits.min_ops ops and before more than limits.max_ops."""
    log = PassLog()
    with speed.SpeedClock() as clock:
        while True:
            record(log, run_pass(ops, execute, log))
            if log.ops + len(ops) > limits.max_ops:
                break
            timed = sum(log.pass_ns) / 1e9
            last = log.pass_ns[-1] / 1e9
            if log.ops >= limits.min_ops and seconds - timed < last / 2:
                break
    log.latencies_ns, log.scaled_ns = map(list, zip(*(clock.span(*span) for span in log.spans_ns)))
    log.speed = clock.speed()
    return log


def count_failures(log: PassLog, errors: list) -> tuple[int, list[str]]:
    """Failed ops over all passes: every run of an op whose reference output
    the oracle rejected, plus each later run that differed from it."""
    passes = len(log.pass_ns)
    failed, reasons = 0, []
    for error, mismatches in zip(errors, log.mismatches):
        if error is not None:
            failed += passes
            reasons.append(error)
        else:
            failed += mismatches
    if any(log.mismatches):
        reasons.append(f"{sum(log.mismatches)} outputs differed from the first pass")
    return failed, reasons


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(log: PassLog, setup: Setup, rss_mib: float, failed: int) -> tuple[dict, dict]:
    """The end-to-end metrics, from scaled times, and separately the
    details the report prints, the raw times among them."""
    latencies_ms = [ns / 1e6 for ns in log.scaled_ns]
    metrics = {
        "ops_per_s": (log.ops / (sum(log.scaled_ns) / 1e9), "1/s"),
        "op_p50_ms": (statistics.median_high(latencies_ms), "ms"),
    }
    tail = tail_percentile(latencies_ms)
    if tail is not None:
        metrics["op_tail_ms"] = (tail[1], "ms")
    metrics["setup_s"] = (statistics.median(setup.times), "s")
    metrics["peak_rss_mib"] = (rss_mib, "MiB")
    metrics["op_ok_ratio"] = ((log.ops - failed) / log.ops, "ratio")
    details = {
        "op_fail_ratio": failed / log.ops,
        "tail": None if tail is None else {"percentile": tail[0], "beyond": tail[2], "samples": log.ops},
        "passes": len(log.pass_ns),
        "raw": {
            "ops_per_s": log.ops / (sum(log.latencies_ns) / 1e9),
            "op_p50_ms": statistics.median_high(log.latencies_ns) / 1e6,
            "setup_s": statistics.median(setup.raw_times),
        },
        "speed": log.speed,
    }
    return metrics, details
