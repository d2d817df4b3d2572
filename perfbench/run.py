"""entroflow benchmark: time to verdict on four workloads.

    python3 perfbench/run.py --workload contract --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A single-process, closed-loop load generator: one client, no threads, the
next op starts when the last one has returned.  It writes seeded input
files, hands them to entroflow's public entry points in-process, checks
every answer after the timed loop, and prints one line per op with its
check outcome, then one JSON object as the last line of standard output.
Fixed instances that reproduce known defects of the program run once per
run as untimed probes; a probe that reproduces its defect is reported on
its own line and is not counted as failed.

With `--trace 0` the JSON holds the end-to-end metrics (BENCHMARK.json
`end_to_end`); with `--trace 1` it holds the per-layer metrics from spans
recorded around the calls into each layer (see `tracing`).  A traced run
does a fixed amount of work, the first `trace_cycles` cycles of the
seed's input stream, so its counts repeat exactly for a given seed.

`--workload all` runs every workload, untraced and then traced, each in
its own fresh process, and prints a summary with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOAD_NAMES = ["contract", "sweep", "search", "witness"]
SETUP_SAMPLES = 5
# A fresh interpreter importing what a user's first op imports; it prints
# the wall time of those imports.
SETUP_PROBE = (
    "import importlib, sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - t)\n"
)


def setup_seconds(imports: list[str]) -> float:
    """Median import time over fresh interpreters, after one warming run."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), *imports],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        if i:
            samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def grade(ops: list, results: list) -> tuple[bool, list[tuple[int, object, str, bool]]]:
    """Check every op's output and print one line per op with the outcome.

    An op fails if it raised or if its output fails its check.  A failure
    whose reason matches the op's `known_defect` reproduces that defect
    and leaves the run correct; any other failure makes it incorrect.
    Returns whether the run is correct, and (op index, op, reason, known)
    per failure.
    """
    correct, failures = True, []
    for i, (op, (took, out, error)) in enumerate(zip(ops, results)):
        if error is None:
            ok, reason = op.check(out)
            if not ok:
                error = f"check failed: {reason}"
        else:
            reason = error
        known = error is not None and op.known_defect is not None and re.search(op.known_defect, error) is not None
        if error is not None:
            correct &= known
            failures.append((i, op, error, known))
        outcome = "ok  " if error is None else "KNOWN" if known else "FAIL"
        print(f"op {i:4d} {op.kind:20s} {took:9.4f}s {outcome} {op.label}: {reason}")
    return correct, failures


def run_op(op) -> tuple[float, object, str | None]:
    """(seconds taken, output, failure reason or None); every op has its own guard."""
    t0 = time.perf_counter()
    try:
        out, error = op.run(), None
    except Exception as exc:
        out, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, error


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    if not (SRC / "entroflow" / "__init__.py").is_file():
        print(f"perfbench: no entroflow sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import entroflow

    if Path(entroflow.__file__).resolve().parent != SRC / "entroflow":
        print(f"perfbench: imported entroflow from {entroflow.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[name]
    setup = None if trace else setup_seconds(workload.imports)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK))
    tracer = Tracer()
    try:
        workload.warmup(workdir)
        # The fixed instances that reproduce known defects run once, before
        # timing and tracing: they are reported, not measured.
        probes = workload.probes(workdir)
        probe_results = [run_op(op) for op in probes]
        if trace:
            tracer.install()
        rng = random.Random(f"{name}:{seed}")
        ops, results, cycle_seconds = [], [], []
        while True:
            if trace:
                if len(cycle_seconds) == workload.trace_cycles:
                    break
            elif cycle_seconds and sum(cycle_seconds) + cycle_seconds[-1] > seconds:
                break
            batch = workload.cycle(rng, workdir, len(cycle_seconds))
            start = time.perf_counter()
            for op in batch:
                tracer.op = len(ops)
                results.append(run_op(op))
                tracer.op = None
                ops.append(op)
            cycle_seconds.append(time.perf_counter() - start)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            tracer.write(WORK / f"trace-{name}-{seed}.json")
        print("known-defect probes:")
        probes_correct, probe_failures = grade(probes, probe_results)
        print("timed ops:")
        correct, failures = grade(ops, results)
        correct &= probes_correct
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    # Failed ops count as attempted, but neither as completed nor in the
    # latency sample.  A probe that reproduces its known defect is reported
    # but not counted as failed; one that fails any other way is.
    failed = {i for i, _, _, _ in failures}
    latencies = sorted(took for i, (took, _, _) in enumerate(results) if i not in failed)
    unexpected = [f for f in probe_failures + failures if not f[3]]
    attempted = len(probes) + len(ops)
    wall = sum(cycle_seconds)
    print(f"{name}: {len(ops)} ops in {len(cycle_seconds)} cycles, {wall:.3f} s timed, {len(probes)} probes")
    print(f"fail_ratio = {len(unexpected)}/{attempted} = {len(unexpected) / attempted:.4f}")
    for where, found in (("probe", probe_failures), ("op", failures)):
        for i, op, error, known in found:
            print(f"  failed {where} {i} {op.kind} {op.label}{' (known defect)' if known else ''}: {error}")
    known = sum(1 for f in probe_failures if f[3])
    print(f"known defects reproduced = {known} of {len(probes)} probes")
    if not latencies:
        print(f"perfbench: no {name} op succeeded", file=sys.stderr)
        return 1
    print(f"op_s.p50 over {len(latencies)} completed ops")
    if len(latencies) >= 100:
        p90 = statistics.quantiles(latencies, n=10)[-1]
        print(f"op_s.p90 = {p90:.6f} s (over {len(latencies)} ops)")
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.layer_metrics().items()}
        metrics["bench.traced_ops"] = {"value": len(ops), "unit": "count"}
        metrics["bench.traced_ops_per_s"] = {"value": len(latencies) / wall, "unit": "1/s"}
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "ops_per_s": {"value": len(latencies) / wall, "unit": "1/s"},
            "op_s.p50": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for key, m in metrics.items():
        print(f"{key} = {m['value']} {m['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": len(unexpected), "metrics": metrics}
        )
    )
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
            argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                print(f"perfbench: {name} --trace {trace} exited {done.returncode}", file=sys.stderr)
                return 1
            summary[name, trace] = json.loads(done.stdout.strip().splitlines()[-1])
    print("\nworkload   metric               value         unit")
    for name in WORKLOAD_NAMES:
        plain, traced = summary[name, 0], summary[name, 1]
        for key, m in plain["metrics"].items():
            print(f"{name:10s} {key:20s} {m['value']:<13.6g} {m['unit']}")
        print(f"{name:10s} {'fail_ratio':20s} {plain['failed'] / plain['attempted']:<13.6g} 1 ({plain['failed']} of {plain['attempted']})")
        overhead = traced["metrics"]["bench.traced_ops_per_s"]["value"] - plain["metrics"]["ops_per_s"]["value"]
        print(f"{name:10s} {'trace_overhead':20s} {overhead:<13.6g} 1/s (traced minus untraced ops_per_s)")
        print(f"{name:10s} {'correct':20s} {plain['correct'] and traced['correct']}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
