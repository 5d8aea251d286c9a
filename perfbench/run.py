"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 60 --trace 0

Runs from the root of a source checkout (it imports ``src/repro``).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes the
separate traced run and prints the per-layer metrics.  The last line of
standard output is the result object; the line before it records the
run's context (workload, seed, nproc, Python version, sample counts).
See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: metric name -> unit; the end-to-end set (trace 0) and the per-layer
#: set (trace 1).  BENCHMARK.json names exactly these.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "jobs_per_s": "1/s",
    "ok_share": "share",
    "peak_rss_mb": "MB",
    "power_saving_pct": "%",
    "latch_ratio": "latch/FF",
}
PER_LAYER = {
    "sim.busy_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "sim.compile_s": "s",
    "lint.busy_s": "s",
    "lint.calls": "count",
    "retime.busy_s": "s",
    "ilp.busy_s": "s",
    "timing.hold_fix_s": "s",
    "timing.sta_s": "s",
    "synth.busy_s": "s",
    "convert.busy_s": "s",
    "cg.busy_s": "s",
    "pnr.busy_s": "s",
    "power.busy_s": "s",
    "verify.busy_s": "s",
    "verify.cones": "count",
    "verify.solver_runs": "count",
    "circuits.build_s": "s",
    "flow.pipeline_s": "s",
    "flow.cache_hit_rate": "share",
    "flow.lock_wait_s": "s",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}
#: per-layer metrics only ``serve-mixed`` measures: the closed loops have
#: no daemon, no disk tier and no ``sim_lanes`` jobs.  ``serve-mixed`` is
#: not listed in BENCHMARK.json (see NOTES.md), so these are not either.
SERVE_LAYER = {
    "sim.batch_busy_s": "s",
    "flow.disk_hit_rate": "share",
    "serve.queue_wait_s": "s",
    "serve.run_s": "s",
    "serve.dedup_share": "share",
    "serve.notify_s": "s",
    "loadgen.late_max_s": "s",
}
WORKLOADS = ("suite-cold", "large-3p", "serve-mixed")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def make_workload(name: str, seed: int, seconds: int):
    import workloads

    if name == "suite-cold":
        return workloads.SuiteCold(seed)
    if name == "large-3p":
        return workloads.Large3p(seed)
    return workloads.ServeMixed(seed, seconds, WORK_DIR)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program source at {src}/repro",
              file=sys.stderr)
        return 1
    sys.path.insert(0, src)

    workload = make_workload(args.workload, args.seed, args.seconds)
    if workload.workers > nproc():
        print(f"perfbench: {args.workload} needs {workload.workers} workers "
              f"but only {nproc()} CPUs are available", file=sys.stderr)
        return 2
    if args.trace:
        outcome = workload.trace(args.seconds)
        units = dict(PER_LAYER)
        if args.workload == "serve-mixed":
            units.update(SERVE_LAYER)
    else:
        outcome = workload.measure(args.seconds)
        units = END_TO_END
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        **outcome.context,
    }
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
