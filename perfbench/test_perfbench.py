"""Tests of the benchmark's own code (not of the program it measures)."""

import json
import math
import os
import re
import statistics
import time

import pytest

import layers
import loadgen
import run
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


# -- seeded inputs -----------------------------------------------------------


def test_same_seed_same_submission_stream():
    assert loadgen.make_stream(7, 30) == loadgen.make_stream(7, 30)
    assert loadgen.make_stream(7, 30) != loadgen.make_stream(8, 30)


def test_stream_composition():
    stream = loadgen.make_stream(3, 30)
    subs = stream.submissions
    assert len(subs) == 2 * math.ceil(loadgen.RATE * 30 / 2)
    assert all(0 <= s.due < 30 + loadgen.NEAR_LAG_S for s in subs)
    assert [s.due for s in subs] == sorted(s.due for s in subs)
    # every configuration is submitted twice: half are resubmissions
    assert sorted(s.config for s in subs) == sorted(
        2 * list(range(len(stream.configs))))
    # references cover every design and carry no flags
    assert {stream.configs[i]["design"] for i in stream.references} == set(
        loadgen.SMALL_DESIGNS + loadgen.MID_DESIGNS)
    for i in stream.references:
        assert set(stream.configs[i]["options"]) == {
            "sim_cycles", "profile_cycles", "seed"}
    flagged = [c for c in stream.configs
               if "sim_lanes" in c["options"] or "verify" in c["options"]]
    assert 0 < len(flagged) < len(stream.configs) // 4


def mix(stream):
    """Flag counts and the number of near resubmissions of a stream."""
    dues: dict[int, list[float]] = {}
    for sub in stream.submissions:
        dues.setdefault(sub.config, []).append(sub.due)
    near = sum(b - a == pytest.approx(loadgen.NEAR_LAG_S, abs=1e-9)
               for a, b in dues.values())
    flags = [tuple(sorted(set(c["options"]) - {"seed"}))
             for c in stream.configs]
    return sorted(flags), near


def test_every_seed_offers_the_same_mix():
    mixes = [mix(loadgen.make_stream(seed, 30)) for seed in range(1, 6)]
    assert all(m == mixes[0] for m in mixes)
    assert mixes[0][1] > 0


def test_same_seed_same_netlist():
    from repro.flow import module_digest

    assert module_digest(workloads.Large3p(5).setup()) == \
        module_digest(workloads.Large3p(5).setup())


def test_suite_stimulus_seeds_follow_the_run_seed():
    a, b = workloads.SuiteCold(1), workloads.SuiteCold(1)
    assert a.options == b.options
    assert a.options != workloads.SuiteCold(2).options


# -- metric names ------------------------------------------------------------


def test_metric_names_and_units():
    for table in (run.END_TO_END, run.PER_LAYER, run.SERVE_LAYER):
        for name, unit in table.items():
            assert NAME.match(name), name
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    assert not set(run.END_TO_END) & set(run.PER_LAYER)
    assert not set(run.PER_LAYER) & set(run.SERVE_LAYER)


def test_benchmark_json_matches_the_command():
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(entry["name"]), entry["name"]


# -- percentiles -------------------------------------------------------------


@pytest.mark.parametrize("n,pct,ok", [
    (19, 50, False), (20, 50, True),
    (99, 90, False), (100, 90, True),
    (999, 99, False), (1000, 99, True),
])
def test_percentile_needs_ten_samples_beyond(n, pct, ok):
    values = [float(i) for i in range(n)]
    assert loadgen.samples_beyond(n, pct) >= 10 if ok else \
        loadgen.samples_beyond(n, pct) < 10
    assert (loadgen.percentile(values, pct) is not None) == ok


def test_percentile_interpolates():
    values = [float(v) for v in range(1, 101)]
    expected = statistics.quantiles(values, n=10, method="inclusive")[8]
    assert loadgen.percentile(values, 90) == pytest.approx(expected)
    assert loadgen.percentile(list(reversed(values)), 50) == 50.5


def test_failures_stay_in_the_sample():
    values = [0.1] * 85 + [math.inf] * 15
    assert loadgen.percentile(values, 90) == math.inf
    assert loadgen.percentile(values, 50) == 0.1


def test_percentile_rejects_out_of_range():
    with pytest.raises(ValueError):
        loadgen.percentile([1.0] * 100, 100)


# -- tracing -----------------------------------------------------------------


def test_self_time_excludes_child_spans():
    recorder = layers.Recorder()

    def inner():
        time.sleep(0.05)

    wrapped_inner = recorder._wrap("inner", inner)

    def outer():
        time.sleep(0.02)
        wrapped_inner()

    recorder._wrap("outer", outer)()
    own = recorder.self_times()
    assert own["inner"] == pytest.approx(0.05, abs=0.02)
    assert own["outer"] == pytest.approx(0.02, abs=0.02)


def test_install_restores_every_entry_point():
    import importlib

    def current():
        out = []
        for _, module, attr in layers.ENTRY_POINTS:
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = getattr(owner, part)
            out.append(owner)
        return out

    before = current()
    with layers.Recorder():
        assert all(a is not b for a, b in zip(before, current()))
    assert all(a is b for a, b in zip(before, current()))


def busy(seconds: float) -> None:
    """A stand-in layer entry point for the coverage tests."""
    time.sleep(seconds)


class Toy(workloads.ClosedLoop):
    """A closed loop whose one operation spends ``covered`` seconds in a
    wrapped layer and ``missed`` seconds outside every layer."""

    def __init__(self, covered: float, missed: float):
        self.covered, self.missed = covered, missed

    def setup(self):
        return None

    def operations(self):
        return ("op",)

    def operate(self, op):
        busy(self.covered)
        time.sleep(self.missed)

    def check(self, out, op, result):
        pass

    def keep(self, result):
        return workloads.Kept(1.0, 1.0, 1, 1, [])


@pytest.mark.parametrize("missed,fails", [(0.0, False), (0.1, True)])
def test_traced_run_fails_below_coverage(monkeypatch, missed, fails):
    monkeypatch.setattr(layers, "ENTRY_POINTS",
                        (("toy", __name__, "busy"),))
    out = Toy(covered=0.1, missed=missed).trace(1)
    coverage = out.metrics["trace.coverage_pct"]
    assert (coverage < workloads.MIN_COVERAGE_PCT) == fails
    assert out.failed == (1 if fails else 0)


# -- the command -------------------------------------------------------------


def test_refuses_a_workload_wider_than_nproc(monkeypatch, capsys):
    monkeypatch.setattr(run, "nproc", lambda: 1)
    code = run.main(["--workload", "serve-mixed", "--seed", "1",
                     "--seconds", "30"])
    assert code == 2
    assert capsys.readouterr().out == ""
