"""Pipeline subsystem tests: staging, telemetry, caching, parallelism."""

import re
import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.circuits import build
from repro.flow import (
    ArtifactCache,
    FlowOptions,
    Pipeline,
    build_pipeline,
    build_stages,
    compare_styles,
    module_digest,
    run_flow,
)
from repro.flow import pipeline as pipeline_mod
from repro.flow.pipeline import StaStage, StageContext
from repro.netlist.core import Module

_DIGEST = re.compile(r"^[0-9a-f]{16}$")


@pytest.fixture(scope="module")
def design():
    return build("s1488")


@pytest.fixture(scope="module")
def options():
    return FlowOptions(period=1000.0, sim_cycles=24, profile="random")


class TestStageRecords:
    @pytest.fixture(scope="class")
    def result(self, design, options):
        from dataclasses import replace

        return run_flow(design, replace(options, style="3p"))

    def test_every_stage_has_a_record(self, result):
        names = [record.stage for record in result.stages]
        assert names == ["synth", "lint_synth", "ilp", "convert",
                         "lint_convert", "retime", "lint_retime", "cg",
                         "lint_cg", "hold_fix", "pnr", "sta", "sim",
                         "power"]

    def test_records_have_walltime_and_digests(self, result):
        for record in result.stages:
            assert record.wall_time >= 0.0, record.stage
            assert _DIGEST.match(record.input_digest), record.stage
            assert _DIGEST.match(record.output_digest), record.stage
            assert not record.cache_hit  # no cache was passed

    def test_netlist_rewriting_stages_change_the_digest(self, result):
        for record in result.stages:
            # passes that rewrite the netlist vs pure analyses (pnr may
            # go either way: CTS only inserts buffers past the fanout cap)
            if record.stage in ("synth", "convert"):
                assert record.input_digest != record.output_digest, record.stage
            if record.stage in ("ilp", "sta", "sim", "power"):
                assert record.input_digest == record.output_digest, record.stage

    def test_runtime_dict_assembled_from_records(self, result):
        from_records = {}
        for record in result.stages:
            for key, seconds in record.runtime_keys.items():
                from_records[key] = from_records.get(key, 0.0) + seconds
        assert result.runtime == from_records

    def test_stage_seconds_prefers_records(self, result):
        assert result.stage_seconds("ilp") == result.runtime["ilp"]
        assert result.stage_record("pnr") is not None

    def test_sim_stages_report_kernel_throughput(self, result):
        # Both simulation-driven stages must surface the kernel counters.
        for stage_name in ("cg", "sim"):
            summary = result.stage_record(stage_name).summary
            assert summary["sim_events"] > 0, stage_name
            assert summary["sim_events_per_s"] > 0.0, stage_name
            assert summary["sim_compile_s"] >= 0.0, stage_name

    def test_format_stage_records_shows_throughput(self, result):
        from repro.reporting.runtime import format_stage_records

        text = format_stage_records(result)
        assert "Mev/s" in text
        sim_line = next(
            line for line in text.splitlines() if line.lstrip().startswith("sim ")
        )
        assert f"sim {result.stage_record('sim').summary['sim_events']} ev" \
            in sim_line


class TestRuntimeKeysRegression:
    """The P&R wall time must land in the runtime dict (the old monolith
    started a timer before place_and_route and never read it)."""

    def test_pnr_keys_recorded_for_every_style(self, design, options):
        from dataclasses import replace

        for style in ("ff", "ms", "3p", "pulsed"):
            result = run_flow(design, replace(options, style=style,
                                              sim_cycles=20))
            assert {"place", "cts", "route"} <= set(result.runtime), style
            pnr = result.stage_record("pnr")
            assert pnr is not None and pnr.wall_time >= 0.0, style

    def test_expected_key_set_3p(self, design, options):
        from dataclasses import replace

        result = run_flow(design, replace(options, style="3p"))
        assert set(result.runtime) == {
            "synth", "ilp", "convert", "retime", "cg", "hold_fix",
            "place", "cts", "route", "sta", "sim",
        }

    def test_expected_key_set_ff(self, design, options):
        from dataclasses import replace

        result = run_flow(design, replace(options, style="ff"))
        assert set(result.runtime) == {
            "synth", "hold_fix", "place", "cts", "route", "sta", "sim",
        }


class TestArtifactCache:
    def test_same_design_and_options_hits(self, design, options):
        from dataclasses import replace

        cache = ArtifactCache()
        opts = replace(options, style="ff", sim_cycles=20)
        first = run_flow(design, opts, cache=cache)
        second = run_flow(design, opts, cache=cache)
        assert cache.misses("synth") == 1
        assert cache.hits("synth") == 1
        assert first.stage_record("synth").cache_hit is False
        assert second.stage_record("synth").cache_hit is True

    def test_changed_option_misses(self, design, options):
        from dataclasses import replace

        cache = ArtifactCache()
        run_flow(design, replace(options, style="ff", sim_cycles=20),
                 cache=cache)
        run_flow(design, replace(options, style="ff", sim_cycles=20,
                                 clock_gating_style="enabled"), cache=cache)
        assert cache.misses("synth") == 2
        assert cache.hits("synth") == 0

    def test_changed_design_misses(self, options):
        from dataclasses import replace

        cache = ArtifactCache()
        opts = replace(options, style="ff", sim_cycles=20)
        run_flow(build("s1488"), opts, cache=cache)
        run_flow(build("s1196"), opts, cache=cache)
        assert cache.misses("synth") == 2

    def test_cached_run_matches_uncached(self, design, options):
        from dataclasses import replace

        opts = replace(options, style="3p")
        plain = run_flow(design, opts)
        cache = ArtifactCache()
        run_flow(design, replace(options, style="ff"), cache=cache)
        warm = run_flow(design, opts, cache=cache)
        assert warm.stage_record("synth").cache_hit
        assert warm.power.total == plain.power.total
        assert warm.area == plain.area
        assert warm.stats.registers == plain.stats.registers


class TestPowerKey:
    """Power reads the simulated toggles, so its cache key must cover the
    stimulus: a shared cache used to hand the first run's power to every
    later run of the same netlist with another seed or lane count."""

    @pytest.mark.parametrize("style", ["ff", "3p"])
    def test_shared_cache_matches_cold_runs(self, style):
        design = build("s1196")
        shared = ArtifactCache()
        variants = [dict(seed=3), dict(seed=6), dict(seed=6, sim_lanes=64)]
        warm, cold = [], []
        for variant in variants:
            opts = FlowOptions(style=style, sim_cycles=40, **variant)
            warm.append(run_flow(design, opts, cache=shared).power.total)
            cold.append(run_flow(design, opts).power.total)
        assert warm == cold
        assert len(set(cold)) == len(variants)  # each variant matters


class TestCompareStyles:
    def test_one_synthesis_for_three_styles(self, design, options):
        cache = ArtifactCache()
        compare_styles(design, options, cache=cache)
        assert cache.runs("synth") == 1
        assert cache.hits("synth") == 2

    def test_parallel_equals_sequential_bit_for_bit(self, design, options):
        sequential = compare_styles(design, options)
        parallel = compare_styles(design, options, jobs=3)
        assert sequential.table_row() == parallel.table_row()
        for style in ("ff", "ms", "3p"):
            seq, par = sequential.result(style), parallel.result(style)
            assert set(seq.runtime) == set(par.runtime)
            assert seq.timing.ok == par.timing.ok

    def test_parallel_still_synthesizes_once(self, design, options):
        cache = ArtifactCache()
        compare_styles(design, options, jobs=3, cache=cache)
        assert cache.runs("synth") == 1


#: stages that never rewrite the netlist; every other stage does
_READ_ONLY = {"clocks", "ilp", "verify", "sta", "sim", "power"}


def _is_read_only(name: str) -> bool:
    return name in _READ_ONLY or name.startswith("lint_")


def _module_shape(module: Module) -> tuple:
    """Everything a faithful copy must reproduce, iteration order included."""
    return (
        module_digest(module),
        list(module.ports),
        list(module.clock_ports),
        list(module.nets),
        list(module.instances),
        [list(net.loads) for net in module.nets.values()],
        module._name_counter,
    )


def _tamper(module: Module) -> None:
    """Rewrite a netlist in place, as a caller of the flow might."""
    before = module_digest(module)
    module.remove_instance(module.combinational_instances()[0].name)
    module.fresh_name("tampered")
    assert module_digest(module) != before


class TestCopyDiscipline:
    """The artifact cache copies a netlist only when a stage rewrote it,
    and only once: the producer keeps its live module, the snapshot takes
    one copy, a hit restores one copy, read-only stages carry none."""

    @pytest.fixture(scope="class")
    def s1196(self):
        return build("s1196")

    def test_copies_per_executed_stage(self, s1196, options, monkeypatch):
        copies: Counter = Counter()
        original = Module.copy
        run_stage = pipeline_mod.Pipeline._run_stage.__code__

        def counting_copy(self, *args, **kwargs):
            caller = sys._getframe(1)
            # only the cache's own copies (snapshot/restore), not the ones
            # a pass makes of its input (e.g. the conversions)
            if caller.f_code.co_filename == pipeline_mod.__file__:
                frame = caller
                while frame.f_code is not run_stage:
                    frame = frame.f_back
                copies[(frame.f_locals["stage"].name,
                        caller.f_code.co_name)] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Module, "copy", counting_copy)
        comparison = compare_styles(s1196, replace(options, verify=True),
                                    executor="serial", cache=ArtifactCache())
        monkeypatch.undo()

        expected: Counter = Counter()
        for style in ("ff", "ms", "3p"):
            for record in comparison.result(style).stages:
                if not _is_read_only(record.stage):
                    where = "restore" if record.cache_hit else "snapshot"
                    expected[(record.stage, where)] += 1
        assert copies == expected
        assert expected[("synth", "snapshot")] == 1
        assert expected[("synth", "restore")] == 2  # ms and 3p hit

    @pytest.mark.parametrize("style", ["ff", "ms", "3p", "pulsed"])
    def test_read_only_flag_matches_behaviour(self, s1196, options, style):
        opts = replace(options, style=style, verify=True)
        ctx = StageContext(design=s1196, module=s1196, options=opts,
                           library=opts.library)
        for stage in build_stages(style):
            assert stage.mutates_module is not _is_read_only(stage.name), \
                stage.name
            if not stage.enabled(opts):
                continue
            before, digest = ctx.module, module_digest(ctx.module)
            stage.run(ctx)
            if not stage.mutates_module:
                # a read-only stage's hit installs no netlist, so its
                # producer may neither rebind nor rewrite the module
                assert ctx.module is before, stage.name
                assert module_digest(ctx.module) == digest, stage.name

    def test_mutating_the_result_leaves_the_cache_pristine(
            self, s1196, options):
        opts = replace(options, style="3p")
        cache = ArtifactCache()
        cold = run_flow(s1196, opts, cache=cache)
        digests = [(r.stage, r.input_digest, r.output_digest)
                   for r in cold.stages]
        power = cold.power.total
        shape = _module_shape(cold.module)

        def check_warm_and_tamper():
            warm = run_flow(s1196, opts, cache=cache)
            assert all(r.cache_hit for r in warm.stages)
            assert [(r.stage, r.input_digest, r.output_digest)
                    for r in warm.stages] == digests
            assert warm.power.total == power
            assert _module_shape(warm.module) == shape
            _tamper(warm.module)

        _tamper(cold.module)
        check_warm_and_tamper()

        # partial hits restore mid-chain snapshots that the cold run's
        # later in-place stages (hold fix, P&R) must not have touched
        for change in (dict(seed=2), dict(clock_uncertainty=40.0)):
            variant = replace(opts, **change)
            partial = run_flow(s1196, variant, cache=cache)
            fresh = run_flow(s1196, variant)
            assert any(r.cache_hit for r in partial.stages), change
            assert partial.power.total == fresh.power.total, change
            assert _module_shape(partial.module) == \
                _module_shape(fresh.module), change
            _tamper(partial.module)
        check_warm_and_tamper()

    def test_restored_copy_matches_live_module(self, s1196, options):
        for style in ("ff", "ms", "3p"):
            opts = replace(options, style=style)
            cache = ArtifactCache()
            live = run_flow(s1196, opts, cache=cache)
            restored = run_flow(s1196, opts, cache=cache)
            assert restored.stage_record("pnr").cache_hit
            assert restored.module is not live.module
            assert _module_shape(restored.module) == \
                _module_shape(live.module), style


class TestModuleDigest:
    def test_stable_across_copy(self, design):
        assert module_digest(design) == module_digest(design.copy())

    def test_different_designs_differ(self, design):
        assert module_digest(design) != module_digest(build("s1196"))


class TestPipelineWiring:
    def test_missing_producer_rejected(self):
        with pytest.raises(ValueError, match="needs"):
            Pipeline([StaStage()])

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError, match="unknown style"):
            build_pipeline("two-phase")

    def test_chain_shapes(self):
        assert [s.name for s in build_stages("ff")] == [
            "synth", "lint_synth", "clocks", "verify", "resize", "hold_fix",
            "pnr", "sta", "sim", "power"]
        assert [s.name for s in build_stages("3p")] == [
            "synth", "lint_synth", "ilp", "convert", "lint_convert",
            "retime", "lint_retime", "verify", "cg", "lint_cg", "resize",
            "hold_fix", "pnr", "sta", "sim", "power"]


class TestCliJobs:
    def test_run_accepts_jobs(self, capsys):
        from repro.cli import main

        assert main(["run", "s1488", "--cycles", "20", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "3-P total power saving" in out

    def test_table_commands_accept_jobs(self, capsys):
        from repro.cli import main

        assert main(["table1", "--designs", "s1488",
                     "--cycles", "16", "--jobs", "3"]) == 0
        assert "TABLE I" in capsys.readouterr().out
