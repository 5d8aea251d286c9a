"""Layer spans recorded from outside the program.

The flow's pipeline stages import their layer entry points at call time
(``from repro.synth import synthesize`` inside ``SynthStage.run``), so
replacing the module attribute with a timing wrapper reaches every call
the pipeline makes without touching the program's source.  Each wrapped
call records a span (layer, start, end, parent span);
a layer's self time is its spans' durations minus the parts covered by
their child spans, so nested layer calls are never counted twice.

Wrappers only reach code running in this process: the benchmark uses
the serial and thread executors for the traced run.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass

#: (layer, module, attribute) of every wrapped entry point; the
#: attribute may name a method as ``Class.method``.
#: The same layer may own several entry points (``convert`` covers both
#: conversion styles; ``sim`` covers stimulus generation and the
#: single-vector testbench, ``sim.batch`` the word-packed one).
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("circuits.build", "repro.circuits", "build"),
    ("circuits.build", "repro.circuits", "build_structured"),
    # the serve job layer binds ``build`` at import; rebind it there too
    ("circuits.build", "repro.serve.jobs", "build"),
    ("synth", "repro.synth", "synthesize"),
    ("lint", "repro.lint", "run_lint"),
    ("ilp", "repro.convert.phase_ilp", "assign_phases"),
    ("convert", "repro.convert", "convert_to_three_phase"),
    ("convert", "repro.convert", "convert_to_master_slave"),
    ("retime", "repro.retime", "retime_forward"),
    ("cg", "repro.cg", "apply_p2_clock_gating"),
    ("timing.hold_fix", "repro.timing.hold_fix", "fix_holds"),
    ("timing.sta", "repro.timing", "analyze"),
    ("pnr", "repro.pnr", "place_and_route"),
    ("sim", "repro.sim", "generate_vectors"),
    ("sim", "repro.sim", "run_testbench"),
    ("sim.batch", "repro.sim", "generate_batch_stimulus"),
    ("sim.batch", "repro.sim", "run_batch_testbench"),
    ("power", "repro.power", "measure_power"),
    ("verify", "repro.verify.cec", "EquivalenceChecker.check"),
    ("flow.pipeline", "repro.flow.pipeline", "module_digest"),
    ("flow.pipeline", "repro.flow.pipeline", "Stage.snapshot"),
    ("flow.pipeline", "repro.flow.pipeline", "Stage.restore"),
)


@dataclass
class Span:
    id: int
    layer: str
    start: float
    end: float
    parent: int | None


class Recorder:
    """In-memory span log plus per-layer counters.

    ``install()`` swaps every entry point for a recording wrapper and
    ``uninstall()`` restores the originals; use it as a context manager.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def _wrap(self, layer: str, fn):
        observe = _OBSERVERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(
                        Span(span_id, layer, start, end, parent))
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def install(self) -> "Recorder":
        for layer, module_name, attr in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name] if path else getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Layer -> summed self time (span duration minus child spans)."""
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = (child_time.get(span.parent, 0.0)
                                           + span.end - span.start)
        out: dict[str, float] = {}
        for span in self.spans:
            own = span.end - span.start - child_time.get(span.id, 0.0)
            out[span.layer] = out.get(span.layer, 0.0) + own
        return out


def _observe_sim(recorder: Recorder, result) -> None:
    sim = getattr(result, "simulator", None)
    if sim is not None:
        recorder.add("sim.events", sim.events_processed)
        recorder.add("sim.compile_s", sim.compile_seconds)


def _observe_verify(recorder: Recorder, result) -> None:
    recorder.add("verify.cones", len(result.cones))
    recorder.add("verify.solver_runs", result.solver_runs)


def _observe_lint(recorder: Recorder, result) -> None:
    recorder.add("lint.calls", 1)


_OBSERVERS = {
    "sim": _observe_sim,
    "sim.batch": _observe_sim,
    "verify": _observe_verify,
    "lint": _observe_lint,
}
