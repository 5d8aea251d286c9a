"""Sequential timing graph: min/max combinational delays between registers.

For multi-phase STA we need, for every pair of registers connected through
combinational logic, the shortest and longest path delay.  Primary inputs
act as pseudo-sources (the paper treats them "as if clocked by p1") and
primary outputs as pseudo-sinks.

Extraction runs one cone-restricted dynamic program per source, which is
near-linear for pipelined circuits where cones are local.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro import obs
from repro.netlist.core import Module
from repro.netlist.traversal import comb_topo_order
from repro.timing.delay import cell_delay

#: name used for the merged primary-input pseudo-source.
PI_SOURCE = "<PI>"
#: name used for the merged primary-output pseudo-sink.
PO_SINK = "<PO>"


@dataclass(frozen=True)
class SeqEdge:
    """Combinational connection between two sequential endpoints."""

    src: str  # register instance name or PI_SOURCE
    dst: str  # register instance name or PO_SINK
    min_delay: float
    max_delay: float


@dataclass
class TimingGraph:
    registers: list[str]
    edges: list[SeqEdge] = field(default_factory=list)


def extract_timing_graph(
    module: Module,
    wire_caps: dict[str, float] | None = None,
    include_ports: bool = True,
) -> TimingGraph:
    """Build the register-to-register delay graph.

    Delays include the source register's clock-to-q (or data-to-q) delay
    and every combinational cell delay on the path; the capture register's
    setup is applied by the STA, not here.  Paths stop at sequential data
    pins and at ICG enable pins (enables are checked by the clock-gating
    legality analysis, not the data STA).
    """
    with obs.span("timing.extract") as sp:
        sweep = _ConeSweep(module, wire_caps, include_ports)
        graph = TimingGraph(sweep.registers, _edge_list(sweep.run(sweep.starts)))
        sp.set(sources=len(sweep.starts), swept=len(sweep.starts),
               edges=len(graph.edges))
    return graph


def resweep_timing_graph(
    graph: TimingGraph,
    module: Module,
    sources: set[str],
) -> TimingGraph:
    """``graph`` with the edges of ``sources`` re-extracted from ``module``.

    For an edit that changes path delays only inside the cones of
    ``sources`` (``PI_SOURCE`` standing for every data input port), the
    result equals :func:`extract_timing_graph` on the edited ``module``
    edge for edge, in the same order, while sweeping only those cones.
    ``graph`` must come from a default ``extract_timing_graph(module)``
    call (ports included, no wire caps); it is not modified.
    """
    with obs.span("timing.extract") as sp:
        sweep = _ConeSweep(module, None, True)
        starts = [start for start in sweep.starts if start[0] in sources]
        fresh = _edge_list(sweep.run(starts))
        kept = [edge for edge in graph.edges if edge.src not in sources]
        # Both lists are sorted; Timsort merges the two runs in one pass.
        edges = sorted(kept + fresh, key=lambda e: (e.src, e.dst))
        sp.set(sources=len(sweep.starts), swept=len(starts), edges=len(edges))
    return TimingGraph(sweep.registers, edges)


class _ConeSweep:
    """Per-netlist tables shared by every source's cone sweep.

    A source is a register's Q net (launching after its clock-to-q delay)
    or a data input port (``PI_SOURCE``, launching at 0).  :meth:`run`
    sweeps each source's combinational fanout cone once in topological
    order and returns the min/max delay to every sink it reaches.
    """

    def __init__(
        self,
        module: Module,
        wire_caps: dict[str, float] | None,
        include_ports: bool,
    ) -> None:
        self.module = module
        self.wire_caps = wire_caps
        self.delays: dict[str, float] = {}
        self.registers = [i.name for i in module.sequential_instances()]
        #: (source name, start net) per sweep start.
        self.starts: list[tuple[str, str]] = []
        for name in self.registers:
            q_net = module.instances[name].conns.get("Q")
            if q_net is not None:
                self.starts.append((name, q_net))
        if include_ports:
            self.starts.extend(
                (PI_SOURCE, port) for port in module.data_input_ports())

        topo = comb_topo_order(module)
        self.topo_index = {name: i for i, name in enumerate(topo)}
        #: gate -> (its connected input nets, output net)
        self.gate_io: dict[str, tuple[list[str], str | None]] = {}
        #: gate fanout of each net
        self.net_gates: dict[str, list[str]] = {net: [] for net in module.nets}
        for name in topo:
            inst = module.instances[name]
            in_nets = [net for net in map(inst.conns.get, inst.cell.input_pins)
                       if net is not None]
            self.gate_io[name] = (in_nets, inst.conns.get(inst.cell.output_pin))
            for net in in_nets:
                self.net_gates[net].append(name)
        #: timing sinks loading each net (capturing registers, PO_SINK)
        self.net_sinks: dict[str, list[str]] = {}
        for name in self.registers:
            d_net = module.instances[name].conns.get("D")
            if d_net is not None:
                self.net_sinks.setdefault(d_net, []).append(name)
        if include_ports:
            port_nets = module.port_nets()
            for port in module.output_ports():
                if port in port_nets:
                    self.net_sinks.setdefault(port_nets[port], []).append(PO_SINK)

    def delay(self, name: str) -> float:
        delay = self.delays.get(name)
        if delay is None:
            delay = self.delays[name] = cell_delay(
                self.module, self.module.instances[name], self.wire_caps)
        return delay

    def run(
        self, starts: list[tuple[str, str]]
    ) -> dict[tuple[str, str], tuple[float, float]]:
        topo_index = self.topo_index
        gate_io = self.gate_io
        net_gates = self.net_gates
        net_sinks = self.net_sinks
        heappush, heappop = heapq.heappush, heapq.heappop
        edges: dict[tuple[str, str], tuple[float, float]] = {}

        for src_name, start_net in starts:
            launch = 0.0 if src_name == PI_SOURCE else self.delay(src_name)
            min_arr: dict[str, float] = {start_net: launch}
            max_arr: dict[str, float] = {start_net: launch}
            # Cone-restricted sweep: visit only gates reachable from the
            # start net, in topological order (heap keyed by topo index),
            # each once.  A visited gate's inputs are final, and its output
            # net (driven by it alone) is assigned exactly once.
            heap = [(topo_index[g], g) for g in net_gates[start_net]]
            heapq.heapify(heap)
            queued = {g for _, g in heap}
            while heap:
                _, gate_name = heappop(heap)
                in_nets, out_net = gate_io[gate_name]
                if out_net is None:
                    continue
                lo = hi = None
                for net in in_nets:
                    if net in min_arr:
                        a, b = min_arr[net], max_arr[net]
                        if lo is None or a < lo:
                            lo = a
                        if hi is None or b > hi:
                            hi = b
                delay = self.delay(gate_name)
                min_arr[out_net] = lo + delay
                max_arr[out_net] = hi + delay
                for nxt in net_gates[out_net]:
                    if nxt not in queued:
                        queued.add(nxt)
                        heappush(heap, (topo_index[nxt], nxt))

            # Harvest sinks.
            sinks: dict[str, tuple[float, float]] = {}
            for net_name, hi in max_arr.items():
                for dst in net_sinks.get(net_name, ()):
                    _accumulate(sinks, dst, min_arr[net_name], hi)
            for dst, (lo, hi) in sinks.items():
                key = (src_name, dst)
                if key in edges:
                    old_lo, old_hi = edges[key]
                    edges[key] = (min(old_lo, lo), max(old_hi, hi))
                else:
                    edges[key] = (lo, hi)
        return edges


def _edge_list(
    edges: dict[tuple[str, str], tuple[float, float]]
) -> list[SeqEdge]:
    return [SeqEdge(src, dst, lo, hi)
            for (src, dst), (lo, hi) in sorted(edges.items())]


def _accumulate(
    sinks: dict[str, tuple[float, float]], name: str, lo: float, hi: float
) -> None:
    if name in sinks:
        old_lo, old_hi = sinks[name]
        sinks[name] = (min(old_lo, lo), max(old_hi, hi))
    else:
        sinks[name] = (lo, hi)
