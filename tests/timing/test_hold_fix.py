"""Hold-fixing pass tests."""

import pytest

from repro.circuits import build, spec
from repro.convert import ClockSpec, convert_to_master_slave, convert_to_three_phase
from repro.library.fdsoi28 import FDSOI28
from repro.library.generic import GENERIC
from repro.netlist import Module, check
from repro.sim import check_equivalent
from repro.flow import FlowOptions, run_flow
from repro.synth import synthesize
from repro.timing import PI_SOURCE, analyze, extract_timing_graph, hold_fix
from repro.timing.hold_fix import _pad_register, _padded_graph, fix_holds


def shift_register(n: int = 5) -> Module:
    """Direct FF-to-FF chain: the classic hold hazard."""
    m = Module("shift")
    m.add_input("clk", is_clock=True)
    m.add_input("d")
    prev = "d"
    for i in range(n):
        q = m.add_net(f"q{i}")
        m.add_instance(f"ff{i}", GENERIC["DFF"],
                       {"D": prev, "CK": "clk", "Q": q.name},
                       attrs={"init": 0})
        prev = q.name
    m.add_output("z", net_name=prev)
    return m


@pytest.fixture
def mapped_shift():
    return synthesize(shift_register(), FDSOI28).module


class TestFixHolds:
    def test_ff_shift_chain_gets_buffers(self, mapped_shift):
        clocks = ClockSpec.single(1000.0)
        report = fix_holds(mapped_shift, clocks, FDSOI28,
                           clock_uncertainty=120.0)
        check(mapped_shift)
        assert report.buffers_added > 0
        assert report.edges_fixed >= 4  # every FF-to-FF hop was short
        assert report.setup_ok_after
        assert report.area_added > 0

    def test_fix_actually_clears_violations(self, mapped_shift):
        clocks = ClockSpec.single(1000.0)
        fix_holds(mapped_shift, clocks, FDSOI28, clock_uncertainty=120.0)
        again = fix_holds(mapped_shift, clocks, FDSOI28,
                          clock_uncertainty=120.0)
        assert again.buffers_added == 0

    def test_behaviour_preserved(self, mapped_shift):
        original = mapped_shift.copy("orig")
        clocks = ClockSpec.single(1000.0)
        fix_holds(mapped_shift, clocks, FDSOI28, clock_uncertainty=120.0)
        report = check_equivalent(original, clocks, mapped_shift, clocks,
                                  n_cycles=30)
        assert report.equivalent, str(report)

    def test_zero_uncertainty_no_buffers(self, mapped_shift):
        clocks = ClockSpec.single(1000.0)
        report = fix_holds(mapped_shift, clocks, FDSOI28,
                           clock_uncertainty=0.0)
        assert report.buffers_added == 0

    def test_three_phase_needs_fewer_exposed_hops(self, mapped_shift):
        """Only the p1->p3 hop shares the FF design's zero gap; every other
        3-phase hop absorbs the skew in its phase gap."""
        ff_copy = mapped_shift.copy("ff")
        ff_report = fix_holds(ff_copy, ClockSpec.single(1000.0), FDSOI28,
                              clock_uncertainty=120.0)
        three = convert_to_three_phase(mapped_shift, FDSOI28, period=1000.0)
        p3_report = fix_holds(three.module, three.clocks, FDSOI28,
                              clock_uncertainty=120.0)
        check(three.module)
        assert p3_report.edges_fixed <= ff_report.edges_fixed

    def test_master_slave_pairs_exempt(self, mapped_shift):
        ms = convert_to_master_slave(mapped_shift, FDSOI28, period=1000.0)
        report = fix_holds(ms.module, ms.clocks, FDSOI28,
                           clock_uncertainty=60.0)
        # master->slave internal edges share a clock point; only the
        # cross-pair hops may need padding.
        for reg in report.per_register:
            inst = ms.module.instances[reg]
            if inst.attrs.get("role") == "slave":
                # a slave's only fanin is its own master: must be exempt
                pytest.fail(f"slave {reg} was padded against its master")


# -- the graph hold-fix hands its post-check ---------------------------------


def _edge(graph, src, dst):
    return next(e for e in graph.edges if e.src == src and e.dst == dst)


def _pad_and_compare(module: Module, reg: str, count: int = 2):
    """Pad ``reg`` as hold-fix does; the spliced graph must equal a fresh
    extraction edge for edge (exact floats, same order)."""
    before = extract_timing_graph(module)
    _pad_register(module, reg, FDSOI28.cell_for_op("BUF", drive=1), count)
    updated = _padded_graph(before, module, {reg})
    fresh = extract_timing_graph(module)
    assert updated.registers == fresh.registers
    assert updated.edges == fresh.edges
    return before, fresh


def _fanout_module() -> Module:
    """ffa -> BUF g -> n, and n feeds ffb.D, ffc.D and an INV to ffd; ffe
    and its edges sit apart from the padding."""
    dff, buf, inv = (FDSOI28.cell_for_op(op, drive=1)
                     for op in ("DFF", "BUF", "INV"))
    m = Module("fanout")
    m.add_input("clk", is_clock=True)
    m.add_input("x")
    for net in ("qa", "n", "nd", "qb", "qc", "qd", "qe", "ne"):
        m.add_net(net)
    m.add_instance("ffa", dff, {"D": "x", "CK": "clk", "Q": "qa"})
    m.add_instance("g", buf, {"A": "qa", "Y": "n"})
    m.add_instance("ffb", dff, {"D": "n", "CK": "clk", "Q": "qb"})
    m.add_instance("ffc", dff, {"D": "n", "CK": "clk", "Q": "qc"})
    m.add_instance("gi", inv, {"A": "n", "Y": "nd"})
    m.add_instance("ffd", dff, {"D": "nd", "CK": "clk", "Q": "qd"})
    m.add_instance("ge", inv, {"A": "qb", "Y": "ne"})
    m.add_instance("ffe", dff, {"D": "ne", "CK": "clk", "Q": "qe"})
    for q in ("qc", "qd", "qe"):
        m.add_output(f"z_{q}", net_name=q)
    return m


class TestPaddedGraph:
    def test_d_net_driven_by_register_q(self, mapped_shift):
        driver = mapped_shift.driver_instance(
            mapped_shift.instances["ff2"].net_of("D"))
        assert driver.name == "ff1"
        before, after = _pad_and_compare(mapped_shift, "ff2")
        # ff1's clock-to-q now drives a buffer, not ff2's D pin
        assert _edge(before, "ff1", "ff2") != _edge(after, "ff1", "ff2")

    def test_d_net_driven_by_data_input_port(self, mapped_shift):
        assert mapped_shift.instances["ff0"].net_of("D") == "d"
        before, after = _pad_and_compare(mapped_shift, "ff0")
        assert (_edge(after, PI_SOURCE, "ff0").min_delay
                > _edge(before, PI_SOURCE, "ff0").min_delay)

    def test_driver_gate_fans_out_to_other_registers(self):
        module = _fanout_module()
        before, after = _pad_and_compare(module, "ffb", count=3)
        # g's load changed, so paths to the unpadded ffc and ffd moved too
        for dst in ("ffc", "ffd"):
            assert _edge(before, "ffa", dst) != _edge(after, "ffa", dst)
        assert _edge(before, "ffb", "ffe") == _edge(after, "ffb", "ffe")

    @pytest.mark.parametrize("design", ["s5378", "s13207", "des3"])
    @pytest.mark.parametrize("style", ["ff", "ms", "3p"])
    def test_flow_post_check_graph_equals_extraction(
            self, monkeypatch, design, style):
        checked = []
        real = hold_fix.analyze

        def spy(module, clocks, graph=None, **kwargs):
            fresh = extract_timing_graph(module)
            assert graph.registers == fresh.registers
            assert graph.edges == fresh.edges
            checked.append(len(fresh.edges))
            return real(module, clocks, graph=graph, **kwargs)

        monkeypatch.setattr(hold_fix, "analyze", spy)
        bench = spec(design)
        result = run_flow(build(design), FlowOptions(
            style=style, period=bench.period, sim_cycles=16,
            profile_cycles=8))
        assert result.hold.buffers_added > 0
        assert len(checked) == 1
