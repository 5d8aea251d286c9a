"""The benchmark's workloads.

Each workload turns the seed into its inputs, times its set-up, runs its
measured loop, checks every output, and returns one :class:`Outcome`.
The program is driven only through its public API: ``repro.flow``
(``compare_styles`` / ``run_flow``) and the ``repro.serve`` daemon over
localhost HTTP.

A workload's *unit* of work is what ``wall_s`` times: one pass over the
design mix (``suite-cold``), one 3-phase flow (``large-3p``) or the whole
submission stream (``serve-mixed``).  Its *operations* are what the
latency percentiles and ``jobs_per_s`` count: one design comparison,
one flow, one submitted job.
"""

from __future__ import annotations

import gc
import math
import os
import random
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace

import layers
import loadgen

#: ``setup_s`` is the median of at least this many set-ups per run,
#: repeated until they have taken :data:`SETUP_MIN_S` in all, so that a
#: set-up of a few milliseconds is still a median of many.
SETUP_REPEATS = 7
SETUP_MIN_S = 1.0
#: share of a traced closed-loop unit the layers' self times must cover.
MIN_COVERAGE_PCT = 90.0


@dataclass
class Outcome:
    attempted: int = 0
    #: failed, refused or wrong-output operations.
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: end-to-end values (trace 0) or per-layer values (trace 1).
    metrics: dict[str, float] = field(default_factory=dict)
    #: sample counts and other facts printed alongside the result.
    context: dict[str, object] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def derive_seed(seed: int, label: str) -> int:
    """A stable per-input seed (``random.Random`` seeds from str are
    hashed deterministically, unlike ``hash()``)."""
    return random.Random(f"{seed}:{label}").randrange(1, 1 << 31)


def timed_setup(setup):
    """Run ``setup`` at least :data:`SETUP_REPEATS` times and for at
    least :data:`SETUP_MIN_S`; returns the median seconds and the last
    result.  Each set-up starts from a collected heap with the previous
    result dropped: otherwise the netlists' reference cycles pile up and
    every repeat reads slower than the one before."""
    times: list[float] = []
    state = None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), state


def closed_loop(unit, seconds: float) -> list[float]:
    """Run ``unit`` back to back, one client, and return each unit's
    wall time.  Runs at least one unit and starts another only when the
    median so far says it will end inside the window."""
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        unit()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            return durations


def closed_metrics(out: Outcome, op_times: list[float],
                   unit_times: list[float]) -> None:
    """The timing metrics shared by the two closed-loop workloads."""
    out.metrics.update({
        "wall_s": statistics.median(unit_times),
        # one client, no queue: the operations are a fixed design mix run
        # in whole passes, not a random tail, so the open loop's
        # ten-samples-beyond rule does not apply
        "latency_p50_s": loadgen.interpolate(op_times, 50),
        "latency_p90_s": loadgen.interpolate(op_times, 90),
        "jobs_per_s": len(op_times) / sum(unit_times),
    })
    out.context.update({"units": len(unit_times), "operations": len(op_times)})


def finish(out: Outcome, setup_s: float) -> Outcome:
    out.metrics["setup_s"] = setup_s
    out.metrics["ok_share"] = 1.0 - out.failed / max(1, out.attempted)
    out.metrics["peak_rss_mb"] = peak_rss_mb()
    return out


def saving_pct(ff_total: float, three_total: float) -> float:
    return 100.0 * (ff_total - three_total) / ff_total


def stage_cache_metrics(records) -> dict[str, float]:
    """Cache figures from the flows' StageRecords."""
    hits = sum(r.cache_hit for r in records)
    return {
        "flow.cache_hit_rate": hits / len(records) if records else 0.0,
        "flow.lock_wait_s": sum(float(r.summary.get("lock_wait_s", 0.0))
                                for r in records),
    }


def layer_metrics(recorder: layers.Recorder) -> dict[str, float]:
    """Per-layer self times and counters of one traced unit."""
    own = recorder.self_times()
    sim_s = own.get("sim", 0.0) + own.get("sim.batch", 0.0)
    counters = recorder.counters
    return {
        "sim.busy_s": sim_s,
        "sim.batch_busy_s": own.get("sim.batch", 0.0),
        "sim.events": counters.get("sim.events", 0),
        "sim.events_per_s": counters.get("sim.events", 0) / sim_s
        if sim_s else 0.0,
        "sim.compile_s": counters.get("sim.compile_s", 0.0),
        "lint.busy_s": own.get("lint", 0.0),
        "lint.calls": counters.get("lint.calls", 0),
        "retime.busy_s": own.get("retime", 0.0),
        "ilp.busy_s": own.get("ilp", 0.0),
        "timing.hold_fix_s": own.get("timing.hold_fix", 0.0),
        "timing.sta_s": own.get("timing.sta", 0.0),
        "synth.busy_s": own.get("synth", 0.0),
        "convert.busy_s": own.get("convert", 0.0),
        "cg.busy_s": own.get("cg", 0.0),
        "pnr.busy_s": own.get("pnr", 0.0),
        "power.busy_s": own.get("power", 0.0),
        "verify.busy_s": own.get("verify", 0.0),
        "verify.cones": counters.get("verify.cones", 0),
        "verify.solver_runs": counters.get("verify.solver_runs", 0),
        "flow.pipeline_s": own.get("flow.pipeline", 0.0),
    }


def trace_summary(untraced_s: float, traced_s: float,
                  recorder: layers.Recorder) -> dict[str, float]:
    """Tracing overhead (traced vs untraced unit), and the share of the
    traced unit's wall time that the layers' self times account for.
    Coverage is taken against the traced unit, which the spans measure:
    the untraced unit runs at another moment on a shared machine."""
    return {
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "trace.coverage_pct": 100.0 * sum(recorder.self_times().values())
        / traced_s,
    }


def check_coverage(out: Outcome) -> None:
    """Fail a traced closed-loop run whose layer spans no longer account
    for the unit's wall time, as when a wrapper stops reaching a stage."""
    coverage = out.metrics["trace.coverage_pct"]
    if coverage < MIN_COVERAGE_PCT:
        out.fail(f"layer spans cover {coverage:.1f}% of the traced unit, "
                 f"below {MIN_COVERAGE_PCT:.0f}%")


# ---------------------------------------------------------------------------
# the closed loops


@dataclass
class Kept:
    """What a closed loop keeps of one operation: its quality figures and
    StageRecords, not the netlists."""

    ff_power: float
    three_power: float
    ff_registers: int
    three_registers: int
    records: list


class ClosedLoop:
    """One client running a workload's unit of operations back to back.

    Subclasses define ``setup`` (returns the designs), ``operations`` (the
    names of one unit's operations), ``operate`` (one operation through
    the public flow API), ``check`` (its output checks) and ``keep``.
    """

    workers = 1

    def prepare(self) -> None:
        """Work done once after set-up and before the measured window."""

    def run_unit(self, out: Outcome, op_times: list[float],
                 kept: list) -> None:
        for op in self.operations():
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                results = self.operate(op)
            except Exception as exc:  # a failed operation, not a crash
                out.fail(f"{op}: {type(exc).__name__}: {exc}")
                continue
            finally:
                op_times.append(time.perf_counter() - t0)
            self.check(out, op, results)
            kept.append(self.keep(results))

    def measure(self, seconds: float) -> Outcome:
        setup_s, self.inputs = timed_setup(self.setup)
        self.prepare()
        out = Outcome()
        op_times: list[float] = []
        kept: list[Kept] = []
        units = closed_loop(
            lambda: self.run_unit(out, op_times, kept), seconds)
        closed_metrics(out, op_times, units)
        first = kept[:len(self.operations())]
        out.metrics["power_saving_pct"] = saving_pct(
            sum(k.ff_power for k in first),
            sum(k.three_power for k in first))
        out.metrics["latch_ratio"] = (sum(k.three_registers for k in first)
                                      / sum(k.ff_registers for k in first))
        return finish(out, setup_s)

    def trace(self, seconds: float) -> Outcome:
        """One untraced unit, then a traced set-up and a traced unit."""
        self.inputs = self.setup()
        self.prepare()
        out = Outcome()
        t0 = time.perf_counter()
        self.run_unit(out, [], [])
        untraced = time.perf_counter() - t0
        with layers.Recorder() as setup_rec:
            self.inputs = self.setup()
        kept: list[Kept] = []
        with layers.Recorder() as recorder:
            t0 = time.perf_counter()
            self.run_unit(out, [], kept)
            traced = time.perf_counter() - t0
        out.metrics.update(layer_metrics(recorder))
        out.metrics.update(stage_cache_metrics(
            [r for k in kept for r in k.records]))
        out.metrics["circuits.build_s"] = setup_rec.self_times().get(
            "circuits.build", 0.0)
        out.metrics.update(trace_summary(untraced, traced, recorder))
        check_coverage(out)
        return out


class SuiteCold(ClosedLoop):
    """ff/ms/3p comparisons over a fixed mix of paper-sized designs,
    serial executor, a fresh in-memory cache per design, no disk tier,
    formal verification on.  Unit: one pass over the mix."""

    #: an even count, so the median operation is the mean of two
    #: mid-length ones (des3 and s13207) rather than one short one.
    MIX = ("s1196", "s5378", "s9234", "s13207", "s15850", "des3", "md5",
           "plasma")

    def __init__(self, seed: int):
        from repro.circuits import spec
        from repro.flow import FlowOptions

        self.options = {}
        for design in self.MIX:
            bench = spec(design)
            self.options[design] = FlowOptions(
                period=bench.period, profile=bench.workload,
                sim_cycles=bench.sim_cycles, verify=True,
                seed=derive_seed(seed, design))

    def setup(self) -> dict:
        from repro.circuits import build

        return {design: build(design) for design in self.MIX}

    def operations(self) -> tuple[str, ...]:
        return self.MIX

    def operate(self, design: str):
        from repro.flow import ArtifactCache, compare_styles

        return compare_styles(self.inputs[design], self.options[design],
                              executor="serial", cache=ArtifactCache())

    def check(self, out: Outcome, design: str, comparison) -> None:
        from repro.reporting.paper_data import TABLE1

        want = TABLE1[design].regs_3p
        got = comparison.three_phase.stats.registers
        if got != want:
            out.fail(f"{design}: 3p latches {got} != Table I {want}")
            return
        for style in ("ms", "3p"):
            result = comparison.result(style).verify
            if result is None or result.proven != len(result.cones):
                out.fail(f"{design}/{style}: not every verify cone proven")
                return

    def keep(self, comparison) -> Kept:
        ff, three = comparison.ff, comparison.three_phase
        return Kept(ff.power.total, three.power.total, ff.stats.registers,
                    three.stats.registers,
                    [r for style in ("ff", "ms", "3p")
                     for r in comparison.result(style).stages])


class Large3p(ClosedLoop):
    """One CPU-scale design through the 3-phase flow only, with default
    options.  Unit: one flow.  An FF flow of the same design runs once
    before the measured window as the power reference.

    The inputs do not depend on the run seed: the power saving of this
    3000-FF structure moves by up to a third with the structure seed
    (20.5%, 14.9%, 20.7% for seeds 1, 3, 4) and with the stimulus seed
    (14.4% to 19.3% over ten seeds), wider than the bound on
    ``power_saving_pct``; here only the timings are of interest.
    """

    SPEC = dict(n_ffs=3000, n_single=1500, n_gates=9500, n_inputs=64,
                n_outputs=64, enable_fraction=0.3, self_loop_fraction=0.35,
                max_depth=12, seed=1)

    def __init__(self, seed: int):
        from repro.circuits import StructuredSpec

        self.spec = StructuredSpec("large3p", **self.SPEC)
        self.reference = None

    def setup(self):
        from repro.circuits import build_structured

        return build_structured(self.spec)

    def prepare(self) -> None:
        self.reference = self.operate("ff")

    def operations(self) -> tuple[str, ...]:
        return ("3p",)

    def operate(self, style: str):
        from repro.flow import FlowOptions, run_flow

        return run_flow(self.inputs, FlowOptions(style=style))

    def check(self, out: Outcome, style: str, result) -> None:
        want = 2 * self.spec.n_ffs - self.spec.n_single
        if result.stats.registers != want:
            out.fail(f"3p registers {result.stats.registers} != {want}")

    def keep(self, result) -> Kept:
        ff = self.reference
        return Kept(ff.power.total, result.power.total, ff.stats.registers,
                    result.stats.registers, list(result.stages))


# ---------------------------------------------------------------------------
# serve-mixed


class Daemon:
    """An in-process ``repro serve``: thread executor, two workers, a
    disk cache tier in a scratch directory under ``work_dir``."""

    WORKERS = 2
    QUEUE_DEPTH = 64

    def __init__(self, work_dir: str):
        from repro.flow.scheduler import JobScheduler
        from repro.serve import JobManager, start_in_thread

        os.makedirs(work_dir, exist_ok=True)
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
        self.scheduler = JobScheduler(jobs=self.WORKERS, executor="thread",
                                      cache_dir=self.cache_dir)
        self.manager = JobManager(self.scheduler, workers=self.WORKERS,
                                  queue_depth=self.QUEUE_DEPTH)
        self.handle = start_in_thread(self.manager)
        self.host, self.port = self.handle.host, self.handle.port

    def close(self) -> None:
        try:
            self.handle.stop()
            self.scheduler.close()
        finally:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


class ServeMixed:
    """Open-loop traffic at a fixed rate against the daemon."""

    workers = Daemon.WORKERS

    def __init__(self, seed: int, seconds: float, work_dir: str):
        self.stream = loadgen.make_stream(seed, seconds)
        self.work_dir = work_dir
        self.cold: dict[int, dict] = {}

    def setup(self) -> None:
        daemon = Daemon(self.work_dir)
        try:
            loadgen.get_json(daemon.host, daemon.port, "/healthz")
        finally:
            daemon.close()

    def cold_run(self, config: int) -> dict:
        """A configuration run cold (no cache) through ``run_flow``, as
        ``{style: DesignResult}``: 3p, and ff too for a reference."""
        from repro.circuits import build
        from repro.flow import run_flow
        from repro.serve.jobs import resolve_options

        body = self.stream.configs[config]
        options = resolve_options(body["design"], body["options"])
        module = build(body["design"])
        reference = config in self.stream.references
        styles = ("ff", "3p") if reference else ("3p",)
        return {style: run_flow(module, replace(options, style=style))
                for style in styles}

    def run_stream(self, out: Outcome,
                   recorder: layers.Recorder | None = None):
        """Start a daemon, warm it up, replay the stream (traced when a
        recorder is given) and check outputs; returns the load report,
        the stream's jobs and the stream's cache counters."""
        daemon = Daemon(self.work_dir)
        try:
            warm = loadgen.drive(daemon.host, daemon.port, loadgen.warmup())
            before = daemon.scheduler.cache_stats()
            if recorder is not None:
                recorder.install()
            try:
                report = loadgen.drive(daemon.host, daemon.port,
                                       self.stream.submissions)
            finally:
                if recorder is not None:
                    recorder.uninstall()
            warm_ids = {reply.job_id for reply in warm.replies}
            jobs = [job for job in daemon.manager.jobs()
                    if job.id not in warm_ids]
            after = daemon.scheduler.cache_stats()
            cache = {key: after[key] - before[key]
                     for key in ("hits", "misses", "disk_hits")}
        finally:
            daemon.close()
        out.attempted += len(warm.replies)
        for reply in warm.replies:
            if reply.error is not None:
                out.fail(f"warm-up: {reply.error}")
        if not self.cold:
            self.cold = {i: self.cold_run(i)
                         for i in range(len(self.stream.configs))}
        out.attempted += len(report.replies)
        first: dict[int, dict] = {}
        for reply in report.replies:
            if reply.error is not None:
                out.fail(reply.error)
                continue
            config = reply.submission.config
            core = loadgen.result_core(reply.result)
            first.setdefault(config, core)
            want = self.cold[config]["3p"]
            if core != first[config]:
                out.fail(f"resubmission of config {config} "
                         f"({reply.job_id}) differs from its first run")
            elif core["3p"] != {"registers": want.stats.registers,
                                "area": want.area,
                                "power": want.power.as_row()}:
                body = self.stream.configs[config]
                out.fail(f"config {config} ({body['design']} "
                         f"{body['options']}): served 3p result differs "
                         f"from a cold run")
        return report, jobs, cache

    def measure(self, seconds: float) -> Outcome:
        setup_s, _ = timed_setup(self.setup)
        out = Outcome()
        report, _, _ = self.run_stream(out)
        latencies = [o.latency_s for o in report.replies]
        p50 = loadgen.percentile(latencies, 50)
        p90 = loadgen.percentile(latencies, 90)
        if p50 is None or p90 is None:
            raise SystemExit(
                f"{len(latencies)} submissions are too few for a p90 with "
                f"{loadgen.MIN_BEYOND} samples beyond it; lengthen --seconds")
        done = sum(math.isfinite(x) for x in latencies)
        cold = [self.cold[i] for i in self.stream.references]
        out.metrics.update({
            "wall_s": report.makespan_s,
            "latency_p50_s": p50,
            "latency_p90_s": p90,
            "jobs_per_s": done / report.makespan_s,
            "power_saving_pct": saving_pct(
                sum(c["ff"].power.total for c in cold),
                sum(c["3p"].power.total for c in cold)),
            "latch_ratio": (sum(c["3p"].stats.registers for c in cold)
                            / sum(c["ff"].stats.registers for c in cold)),
        })
        out.context.update({
            "operations": len(latencies),
            "late_max_s": round(report.late_max_s, 4),
        })
        return finish(out, setup_s)

    def trace(self, seconds: float) -> Outcome:
        out = Outcome()
        _, jobs, _ = self.run_stream(out)
        untraced = sum(job.finished_at - job.started_at for job in jobs)
        recorder = layers.Recorder()
        report, jobs, cache = self.run_stream(out, recorder)
        traced = sum(job.finished_at - job.started_at for job in jobs)
        queued, run = [], []
        for job in jobs:
            ts = {event["event"]: event["ts"] for event in job.events}
            queued.append(ts["started"] - ts["queued"])
            run.append(ts["finished"] - ts["started"])
        out.metrics.update(layer_metrics(recorder))
        out.metrics.update(stage_cache_metrics(
            [r for job in jobs for result in job.results.values()
             for r in result.stages]))
        lookups = cache["hits"] + cache["misses"]
        out.metrics.update({
            "circuits.build_s": recorder.self_times().get(
                "circuits.build", 0.0),
            "flow.disk_hit_rate": cache["disk_hits"] / lookups
            if lookups else 0.0,
            "serve.queue_wait_s": statistics.fmean(queued),
            "serve.run_s": statistics.fmean(run),
            "serve.dedup_share": sum(o.deduped for o in report.replies)
            / len(report.replies),
            "serve.notify_s": statistics.fmean(
                o.notify_s for o in report.replies if o.error is None),
            "loadgen.late_max_s": report.late_max_s,
        })
        out.metrics.update(trace_summary(untraced, traced, recorder))
        return out
