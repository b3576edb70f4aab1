"""Benchmark of the tamedeg package: one workload per run, or all of them.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --all --seed 1

Run it from the repository root; it imports `tamedeg` from `src/` and
writes its scratch files under `.bench_work/`.  The default run length
and the per-layer metric names and units come from BENCHMARK.json.  The
last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  With --trace 0 the metrics are the end-to-end
ones, timed untraced and scaled to the reference machine speed (see
speed.py); with --trace 1 they are the per-layer ones from a traced pass
(see tracing.py), plus the ratio of traced to untraced wall time.  The
lines before it repeat every metric with its unit, the raw times and the
measured machine speed, the tail percentile with its sample count, the
failure ratio and the digest of the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import harness
import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("scan", "deep", "example", "reduce")


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    return args


def emit(line: str) -> None:
    print(line, flush=True)


def report(workload, args, setup, log, reasons, metrics, details) -> None:
    seeded = "uses the seed" if workloads.SEEDED[workload] else "ignores the seed"
    emit(f"# workload {workload} ({seeded}), seed {args.seed}, {details['passes']} passes, "
         f"{log.ops} ops, python {sys.version.split()[0]}, {os.cpu_count()} cpus")
    emit(f"# inputs sha256 {setup.inputs.digest()}")
    for name, (value, unit) in metrics.items():
        emit(f"{name} = {value:.6g} {unit}")
    if details.get("tail"):
        tail = details["tail"]
        emit(f"# op_tail_ms is {tail['percentile']}: {tail['beyond']} of {tail['samples']} samples beyond it")
    if "raw" in details:
        raw = ", ".join(f"{name} {value:.6g}" for name, value in details["raw"].items())
        emit(f"# raw, unscaled: {raw}; machine speed {details['speed']:.3f} of the reference")
    if "op_fail_ratio" in details:
        emit(f"op_fail_ratio = {details['op_fail_ratio']:.6g} ratio")
    for reason in reasons[:10]:
        emit(f"# FAILED {reason}")


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def run_workload(args, spec) -> int:
    workload = args.workload
    work_dir = WORK / f"{workload}-{os.getpid()}"
    try:
        setup = harness.setup(workload, args.seed, work_dir)
        ops, execute = setup.inputs.ops, setup.execute
        if args.trace:
            return run_traced(args, setup, spec["per_layer"])
        log = harness.timed_phase(ops, execute, args.seconds, harness.LIMITS[workload])
        rss = harness.peak_rss_mib()
        errors = oracles.ORACLES[workload](setup.inputs, args.seed).check_all(log.reference)
        failed, reasons = harness.count_failures(log, errors)
        metrics, details = harness.end_to_end(log, setup, rss, failed)
        report(workload, args, setup, log, reasons, metrics, details)
        emit(result_line(failed == 0, log.ops, failed, metrics))
        return 0
    finally:
        if work_dir.exists():
            shutil.rmtree(work_dir)


def run_traced(args, setup, per_layer) -> int:
    """One untraced pass, then the same pass traced."""
    workload = args.workload
    ops, execute = setup.inputs.ops, setup.execute
    log = harness.PassLog()
    harness.record(log, harness.run_pass(ops, execute, log))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        def mark(index):
            tracer.op_id = index + 1

        harness.record(log, harness.run_pass(ops, execute, log, on_op=mark))
    finally:
        tracer.uninstall()
    trace_path = WORK / "traces" / f"{workload}-seed{args.seed}.jsonl"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_path)
    untraced_ns, traced_ns = log.pass_ns
    errors = oracles.ORACLES[workload](setup.inputs, args.seed).check_all(log.reference)
    failed, reasons = harness.count_failures(log, errors)
    values = tracing.layer_metrics(tracer.spans, tracer.counts, traced_ns / untraced_ns,
                                   [m["name"] for m in per_layer])
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in per_layer}
    report(workload, args, setup, log, reasons, metrics, {"passes": 2})
    emit(f"# {len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    emit(result_line(failed == 0, log.ops, failed, metrics))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and imports are its own."""
    worst = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        started = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print(f"== {workload} ({time.perf_counter() - started:.1f} s, exit {done.returncode})")
        print("\n".join(lines), flush=True)
        if done.returncode:
            print(done.stderr, file=sys.stderr)
        worst = max(worst, done.returncode)
    return worst


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    if not (SRC / "tamedeg" / "__init__.py").is_file():
        print(f"bench: no tamedeg sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
