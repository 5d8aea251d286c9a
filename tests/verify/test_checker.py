"""EquivalenceChecker: faithful conversions prove, defects surface.

The positive half of the acceptance bar: every conversion style on the
bundled designs is proven cone-by-cone *without a single solver
invocation* -- structural hashing folds each faithful miter to constant
FALSE.  The violation half checks that structural defects degrade to
per-cone ``violation`` verdicts instead of exceptions.
"""

import pytest

from repro.verify import (
    SUPPORTED_STYLES,
    EquivalenceChecker,
    VerifyResult,
    check_equivalence,
    format_verify_json,
    format_verify_text,
)

from tests.verify.conftest import LATCH_STYLES, convert_style


class TestProvenDesigns:
    @pytest.mark.parametrize("style", LATCH_STYLES)
    def test_s1196_proven_by_hashing(self, s1196, style):
        conv, clocks = convert_style(s1196, style)
        result = check_equivalence(s1196, conv, style, clocks)
        assert result.equivalent
        assert result.proven == len(result.cones) > 0
        assert result.solver_runs == 0, \
            "faithful cones must fold structurally, not go to the solver"
        assert all(c.method == "hash" for c in result.cones)

    @pytest.mark.parametrize("style", LATCH_STYLES)
    def test_s1488_proven_by_hashing(self, s1488, style):
        conv, clocks = convert_style(s1488, style)
        result = check_equivalence(s1488, conv, style, clocks)
        assert result.equivalent
        assert result.solver_runs == 0

    def test_gated_clock_design_proven(self, s5378_synth, s5378_3p):
        conv, clocks = s5378_3p
        result = check_equivalence(s5378_synth, conv, "3p", clocks)
        assert result.equivalent
        assert result.solver_runs == 0

    def test_state_and_output_cones_both_present(self, s1196, s1196_3p):
        conv, clocks = s1196_3p
        result = check_equivalence(s1196, conv, "3p", clocks)
        kinds = {c.cone.split(":")[0] for c in result.cones}
        assert kinds == {"state", "out"}
        n_ffs = len(list(s1196.flip_flops()))
        n_outs = len(s1196.output_ports())
        assert len(result.cones) == n_ffs + n_outs


class TestStyleHandling:
    def test_ff_style_trivially_equivalent(self, s1196):
        result = check_equivalence(s1196, s1196.copy(), "ff")
        assert result.equivalent
        assert result.cones == []

    def test_unknown_style_rejected(self, s1196):
        with pytest.raises(ValueError, match="unknown style"):
            EquivalenceChecker(s1196, s1196, "two-phase")

    def test_supported_styles(self):
        assert set(SUPPORTED_STYLES) == {"ff", "3p", "ms", "pulsed"}


class TestStructuralViolations:
    def _check(self, ff, conv, clocks):
        return check_equivalence(ff, conv, "3p", clocks, replay=False)

    def _first_holder(self, conv):
        return next(
            conv.instances[n] for n in sorted(conv.instances)
            if conv.instances[n].cell.op == "DLATCH"
            and conv.instances[n].attrs.get("phase") in ("p1", "p3")
        )

    def test_missing_holder_is_a_violation(self, s1196, s1196_3p):
        conv, clocks = s1196_3p
        cm = conv.copy()
        holder = self._first_holder(cm)
        orig = str(holder.attrs.pop("orig_ff"))
        result = self._check(s1196, cm, clocks)
        assert not result.equivalent
        state_cone = next(
            c for c in result.cones
            if c.cone == f"state:{orig}"
            and "no converted register" in c.detail)
        assert state_cone.status == "violation"
        assert state_cone.severity == "error"
        # the orphaned latch itself is reported too
        assert any("no orig_ff" in c.detail for c in result.cones)

    def test_duplicate_holders_are_a_violation(self, s1196, s1196_3p):
        conv, clocks = s1196_3p
        cm = conv.copy()
        holders = [
            cm.instances[n] for n in sorted(cm.instances)
            if cm.instances[n].cell.op == "DLATCH"
            and cm.instances[n].attrs.get("phase") in ("p1", "p3")
        ]
        holders[1].attrs["orig_ff"] = holders[0].attrs["orig_ff"]
        result = self._check(s1196, cm, clocks)
        assert any(c.status == "violation" and "both claim" in c.detail
                   for c in result.cones)

    def test_init_mismatch_is_a_violation(self, s1196, s1196_3p):
        conv, clocks = s1196_3p
        cm = conv.copy()
        holder = self._first_holder(cm)
        holder.attrs["init"] = 1 - int(holder.attrs.get("init", 0) or 0)
        result = self._check(s1196, cm, clocks)
        assert any(c.status == "violation"
                   and "initial value mismatch" in c.detail
                   for c in result.cones)

    def test_port_mismatch_is_a_violation(self, s1196, s1196_3p):
        conv, clocks = s1196_3p
        cm = conv.copy()
        some_net = self._first_holder(cm).output_net()
        cm.add_output("dbg_extra", net_name=some_net)
        result = self._check(s1196, cm, clocks)
        cone = next(c for c in result.cones if c.cone == "port:dbg_extra")
        assert cone.status == "violation"
        assert "only one side" in cone.detail

    def test_unknown_orig_ff_is_a_violation(self, s1196, s1196_3p):
        conv, clocks = s1196_3p
        cm = conv.copy()
        self._first_holder(cm).attrs["orig_ff"] = "not_a_real_ff"
        result = self._check(s1196, cm, clocks)
        assert any(c.status == "violation" and "unknown FF" in c.detail
                   for c in result.cones)


class TestResultModel:
    def test_severity_vocabulary(self):
        from repro.verify import ConeResult, ReplayResult

        assert ConeResult("state:a", "proven").severity is None
        assert ConeResult("state:a", "violation").severity == "error"
        assert ConeResult("state:a", "unknown").severity == "warn"
        # refuted: error without replays or with a confirming one,
        # warn when replays ran but none diverged
        assert ConeResult("state:a", "refuted").severity == "error"
        confirmed = ConeResult(
            "state:a", "refuted",
            replays=[ReplayResult("reference", confirmed=True)])
        assert confirmed.severity == "error"
        unconfirmed = ConeResult(
            "state:a", "refuted",
            replays=[ReplayResult("reference", confirmed=False)])
        assert unconfirmed.severity == "warn"

    def test_count_at_least_and_worst(self):
        from repro.verify import ConeResult

        result = VerifyResult("d", "3p", cones=[
            ConeResult("state:a", "proven"),
            ConeResult("state:b", "unknown"),
            ConeResult("state:c", "violation"),
        ])
        assert result.count_at_least("error") == 1
        assert result.count_at_least("warn") == 2
        assert result.worst == "error"
        assert not result.equivalent

    def test_text_and_json_reporters(self, s1196, s1196_3p):
        import json

        conv, clocks = s1196_3p
        result = check_equivalence(s1196, conv, "3p", clocks)
        text = format_verify_text("s1196", [result])
        assert "equivalent" in text
        payload = json.loads(format_verify_json("s1196", [result]))
        assert payload["design"] == "s1196"
        assert payload["summary"]["error"] == 0
        assert payload["results"][0]["equivalent"] is True
        assert payload["results"][0]["summary"]["proven"] == len(result.cones)


class TestOutputPortNets:
    """check() reads output-port nets from one port_nets() map per module."""

    @pytest.fixture(scope="class", params=["s1196", "des3"])
    def pair(self, request):
        from repro.circuits import build

        ff = build(request.param)
        conv, clocks = convert_style(ff, "3p")
        return ff, conv, clocks

    def test_map_agrees_with_net_of_port(self, pair):
        ff, conv, _ = pair
        for module in (ff, conv):
            nets = module.port_nets()
            assert module.output_ports()
            for port in module.output_ports():
                assert nets[port] == module.net_of_port(port).name

    def test_verdicts_match_per_port_lookup(self, pair, monkeypatch):
        from repro.netlist.core import Module

        ff, conv, clocks = pair
        mapped = check_equivalence(ff, conv, "3p", clocks)
        # an empty map sends every output port through net_of_port
        monkeypatch.setattr(Module, "port_nets", lambda self: {})
        scanned = check_equivalence(ff, conv, "3p", clocks)
        assert mapped == scanned
        assert mapped.proven == len(mapped.cones)

    def test_unconnected_output_port_still_raises(self, s1196, s1196_3p):
        from repro.netlist.core import NetlistError, PortRef

        conv, clocks = s1196_3p
        broken = conv.copy()
        port = sorted(broken.output_ports())[0]
        broken.net_of_port(port).loads.discard(PortRef(port))
        assert port not in broken.port_nets()
        with pytest.raises(NetlistError, match="not connected"):
            check_equivalence(s1196, broken, "3p", clocks)
