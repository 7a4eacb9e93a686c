"""Benchmark of rindler-probe: four workloads, timed end to end or layer by layer.

    python3 perfbench/run.py --workload simulate-rindler --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  A run repeats whole rounds of the workload's operations
until ``--seconds`` of timed work have passed, checks every output, and
prints one JSON object as the last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics
(see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path


def seconds_since_process_start():
    """Wall time since this process started, from the kernel's start stamp."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


def round_wall(rounds):
    """Wall time of one round, each operation taken at its median over the rounds."""
    return sum(statistics.median(times) for times in zip(*rounds))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path(__file__).resolve().parents[1]
    if not (root / "src" / "rindler_probe" / "__init__.py").is_file():
        print(f"error: no rindler_probe sources under {root / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("RINDLER_PROBE_THREADS", None)  # the program's default thread count
    sys.path.insert(0, str(root / "src"))

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    runs = root / "perfbench" / "_runs"
    workdir = runs / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        values, report = measure(args, workload, tracing, runs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    report["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps(report))
    return 0


def measure(args, workload, tracing, runs):
    """Time whole rounds for --seconds; return the metric values and the counts."""
    tracer = tracing.Tracer()
    setup_s = seconds_since_process_start()

    rounds = {False: [], True: []}  # operation times of each untraced / traced round
    attempted = failed = 0
    failures = []
    timed = 0.0
    r = 0
    while r < (2 if args.trace else 1) or timed < args.seconds:
        traced = bool(args.trace) and r % 2 == 1
        ops = [workload.operation(r, k) for k in range(workload.ops_per_round)]
        results = []
        times = []
        for run, _ in ops:
            attempted += 1
            start = time.perf_counter()
            try:
                if traced:
                    with tracer.installed(), tracer.span(f"op:{args.workload}"):
                        results.append(run())
                else:
                    results.append(run())
            except Exception:
                failed += 1
                results.append(None)
                traceback.print_exc()
            times.append(time.perf_counter() - start)
        rounds[traced].append(times)
        timed += sum(times)
        for (_, check), result in zip(ops, results):
            if result is not None:
                failures += check(result)
        r += 1

    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    if args.trace:
        n_traced = len(rounds[True]) * workload.ops_per_round
        values = tracing.layer_metrics(tracer.spans, n_traced)
        values["trace.overhead_s"] = round_wall(rounds[True]) - round_wall(rounds[False])
        values.update(tracing.kernel_bench())
        tracer.write(runs / f"trace-{args.workload}-s{args.seed}.csv")
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": round_wall(rounds[False]),
            "op_p50_s": statistics.median(sum(rounds[False], [])),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return values, {"correct": not failures, "attempted": attempted, "failed": failed}


if __name__ == "__main__":
    sys.exit(main())
