"""Flat gate-level netlist data model.

A :class:`Module` is a flat (non-hierarchical) netlist, the shape a
synthesized design has when the conversion flow operates on it: a set of
ports, nets, and cell instances.  All connectivity mutation goes through
:class:`Module` methods so the driver/load indexes stay consistent; the
conversion, retiming, and clock-gating passes are netlist rewrites built on
this API.

Connectivity references are lightweight named tuples:

* :class:`Pin` -- ``(instance_name, pin_name)`` on a cell instance;
* :class:`PortRef` -- a module port (an input port drives its net, an
  output port loads its net).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from repro.library.cell import Cell, PinDirection


class PortDirection(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"


class Pin(NamedTuple):
    """A pin of a cell instance, identified by names."""

    instance: str
    pin: str


class PortRef(NamedTuple):
    """A reference to a module port used as a net endpoint."""

    port: str


#: Anything that can drive or load a net.
Endpoint = Pin | PortRef


class NetlistError(ValueError):
    """Raised on inconsistent netlist operations."""


class OrderedSet:
    """A set that iterates in insertion order.

    Netlist iteration order is semantically load-bearing: order-sensitive
    passes (CTS sink grouping, clock-gating enable grouping) walk
    ``Net.loads`` and ``Module.clock_ports``, so their order must survive
    :meth:`Module.copy` and pickling unchanged -- including across
    processes, where string hash randomization reorders a builtin ``set``.
    Backed by a dict (insertion-ordered); equality is order-insensitive,
    matching set semantics.
    """

    __slots__ = ("_d",)

    def __init__(self, items: Iterable = ()):
        self._d: dict = dict.fromkeys(items)

    def add(self, item) -> None:
        self._d[item] = None

    def discard(self, item) -> None:
        self._d.pop(item, None)

    def remove(self, item) -> None:
        del self._d[item]

    def __contains__(self, item) -> bool:
        return item in self._d

    def __iter__(self) -> Iterator:
        return iter(self._d)

    def __len__(self) -> int:
        return len(self._d)

    def __bool__(self) -> bool:
        return bool(self._d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, OrderedSet):
            return self._d.keys() == other._d.keys()
        if isinstance(other, (set, frozenset)):
            return self._d.keys() == other
        return NotImplemented

    def __reduce__(self):
        # Pickle as the item list so the order round-trips exactly.
        return (type(self), (list(self._d),))

    def __repr__(self) -> str:
        return f"OrderedSet({list(self._d)!r})"


@dataclass
class Net:
    """A wire.  ``driver`` is the single source; ``loads`` are sinks."""

    name: str
    driver: Endpoint | None = None
    loads: OrderedSet = field(default_factory=OrderedSet)

    @property
    def endpoints(self) -> Iterator[Endpoint]:
        if self.driver is not None:
            yield self.driver
        yield from self.loads


@dataclass
class Instance:
    """A placed cell.  ``conns`` maps the cell's pin names to net names.

    ``attrs`` carries free-form annotations used by the flow, e.g.
    ``init`` (sequential initial value), ``phase`` (clock phase of a latch),
    ``orig_ff`` (name of the flip-flop a latch was converted from), and
    ``group`` (``"single"`` or ``"b2b"`` conversion group).
    """

    name: str
    cell: Cell
    conns: dict[str, str] = field(default_factory=dict)
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def is_sequential(self) -> bool:
        return self.cell.is_sequential

    def net_of(self, pin: str) -> str:
        try:
            return self.conns[pin]
        except KeyError:
            raise NetlistError(
                f"pin {pin!r} of instance {self.name!r} ({self.cell.name}) "
                "is not connected"
            ) from None

    def output_net(self) -> str:
        return self.net_of(self.cell.output_pin)


class Module:
    """A flat netlist with a consistent connectivity index."""

    def __init__(self, name: str):
        self.name = name
        self.ports: dict[str, PortDirection] = {}
        self.nets: dict[str, Net] = {}
        self.instances: dict[str, Instance] = {}
        #: input ports that carry clocks (excluded from logic traversal).
        self.clock_ports: OrderedSet = OrderedSet()
        #: next fresh-name suffix; a plain int so :meth:`copy` can carry
        #: it over -- a copy must hand out the same fresh names as the
        #: original would, or cached-snapshot restores diverge.
        self._name_counter = 0

    # -- naming ---------------------------------------------------------------

    def fresh_name(self, prefix: str) -> str:
        """A name not yet used by any net, instance, or port."""
        while True:
            candidate = f"{prefix}{self._name_counter}"
            self._name_counter += 1
            if (
                candidate not in self.nets
                and candidate not in self.instances
                and candidate not in self.ports
            ):
                return candidate

    # -- ports and nets ---------------------------------------------------------

    def add_net(self, name: str) -> Net:
        if name in self.nets:
            raise NetlistError(f"duplicate net {name!r}")
        net = Net(name)
        self.nets[name] = net
        return net

    def get_or_add_net(self, name: str) -> Net:
        return self.nets.get(name) or self.add_net(name)

    def add_input(self, name: str, is_clock: bool = False) -> Net:
        """Declare an input port; creates and drives a net of the same name."""
        if name in self.ports:
            raise NetlistError(f"duplicate port {name!r}")
        self.ports[name] = PortDirection.INPUT
        if is_clock:
            self.clock_ports.add(name)
        net = self.get_or_add_net(name)
        if net.driver is not None:
            raise NetlistError(f"net {name!r} already driven; cannot become input")
        net.driver = PortRef(name)
        return net

    def add_output(self, name: str, net_name: str | None = None) -> Net:
        """Declare an output port loading ``net_name`` (default: same name)."""
        if name in self.ports:
            raise NetlistError(f"duplicate port {name!r}")
        self.ports[name] = PortDirection.OUTPUT
        net = self.get_or_add_net(net_name if net_name is not None else name)
        net.loads.add(PortRef(name))
        return net

    def remove_port(self, name: str) -> None:
        """Remove a port; its net must have no remaining connections."""
        direction = self.ports.get(name)
        if direction is None:
            raise NetlistError(f"unknown port {name!r}")
        net = self.net_of_port(name)
        if direction is PortDirection.INPUT:
            if net.loads:
                raise NetlistError(f"input port {name!r} still has loads")
            net.driver = None
        else:
            net.loads.discard(PortRef(name))
        del self.ports[name]
        self.clock_ports.discard(name)
        if net.driver is None and not net.loads:
            del self.nets[net.name]

    def input_ports(self) -> list[str]:
        return [
            p for p, d in self.ports.items() if d is PortDirection.INPUT
        ]

    def data_input_ports(self) -> list[str]:
        """Input ports excluding clocks."""
        return [p for p in self.input_ports() if p not in self.clock_ports]

    def output_ports(self) -> list[str]:
        return [p for p, d in self.ports.items() if d is PortDirection.OUTPUT]

    def net_of_port(self, port: str) -> Net:
        direction = self.ports[port]
        if direction is PortDirection.INPUT:
            return self.nets[port]
        ref = PortRef(port)
        for net in self.nets.values():
            if ref in net.loads:
                return net
        raise NetlistError(f"output port {port!r} is not connected to any net")

    def port_nets(self) -> dict[str, str]:
        """Port -> net name for every connected port, in one pass.

        Agrees with :meth:`net_of_port` on every port it lists, at the cost
        of one scan of the nets instead of one scan per output port.  An
        unconnected output port is left out; :meth:`net_of_port` raises
        the diagnostic for it.
        """
        nets = {port: port for port in self.input_ports() if port in self.nets}
        for net in self.nets.values():
            for ref in net.loads:
                if type(ref) is PortRef:
                    nets.setdefault(ref.port, net.name)
        return nets

    # -- instances ------------------------------------------------------------

    def add_instance(
        self,
        name: str,
        cell: Cell,
        conns: dict[str, str] | None = None,
        attrs: dict[str, object] | None = None,
    ) -> Instance:
        """Place ``cell`` as instance ``name`` connected per ``conns``.

        Every referenced net must already exist; unconnected pins may be
        connected later via :meth:`connect`.
        """
        if name in self.instances:
            raise NetlistError(f"duplicate instance {name!r}")
        inst = Instance(name, cell, {}, dict(attrs or {}))
        self.instances[name] = inst
        for pin, net in (conns or {}).items():
            self.connect(name, pin, net)
        return inst

    def connect(self, inst_name: str, pin: str, net_name: str) -> None:
        inst = self.instances[inst_name]
        spec = inst.cell.pin(pin)  # validates the pin exists
        if pin in inst.conns:
            raise NetlistError(
                f"pin {pin!r} of {inst_name!r} already connected "
                f"to {inst.conns[pin]!r}"
            )
        net = self.nets.get(net_name)
        if net is None:
            raise NetlistError(f"unknown net {net_name!r}")
        ref = Pin(inst_name, pin)
        if spec.direction is PinDirection.OUTPUT:
            if net.driver is not None:
                raise NetlistError(
                    f"net {net_name!r} already driven by {net.driver}"
                )
            net.driver = ref
        else:
            net.loads.add(ref)
        inst.conns[pin] = net_name

    def disconnect(self, inst_name: str, pin: str) -> None:
        inst = self.instances[inst_name]
        net_name = inst.conns.pop(pin, None)
        if net_name is None:
            return
        net = self.nets[net_name]
        ref = Pin(inst_name, pin)
        if net.driver == ref:
            net.driver = None
        else:
            net.loads.discard(ref)

    def reconnect(self, inst_name: str, pin: str, net_name: str) -> None:
        self.disconnect(inst_name, pin)
        self.connect(inst_name, pin, net_name)

    def remove_instance(self, name: str) -> None:
        inst = self.instances[name]
        for pin in list(inst.conns):
            self.disconnect(name, pin)
        del self.instances[name]

    def remove_net(self, name: str) -> None:
        net = self.nets[name]
        if net.driver is not None or net.loads:
            raise NetlistError(f"net {name!r} is still connected")
        del self.nets[name]

    # -- bulk rewiring helpers used by the conversion passes -------------------

    def move_loads(
        self,
        old_net: str,
        new_net: str,
        exclude: Iterable[Endpoint] = (),
    ) -> None:
        """Move every load of ``old_net`` (except ``exclude``) to ``new_net``.

        This is the primitive behind inserting a latch/buffer in front of a
        net's fanout.
        """
        excluded = set(exclude)
        for load in list(self.nets[old_net].loads):
            if load in excluded:
                continue
            if isinstance(load, Pin):
                self.disconnect(load.instance, load.pin)
                self.connect(load.instance, load.pin, new_net)
            else:
                self.nets[old_net].loads.discard(load)
                self.nets[new_net].loads.add(load)

    def insert_cell_after(
        self,
        net_name: str,
        cell: Cell,
        in_pin: str,
        out_pin: str,
        name_prefix: str = "u_ins",
        extra_conns: dict[str, str] | None = None,
        attrs: dict[str, object] | None = None,
    ) -> Instance:
        """Insert ``cell`` between ``net_name`` and all of its current loads.

        The new instance's ``in_pin`` connects to ``net_name``; a fresh net
        is created on ``out_pin`` and inherits all previous loads.
        ``extra_conns`` connects remaining pins (e.g. a latch clock).
        """
        inst_name = self.fresh_name(name_prefix)
        new_net = self.add_net(self.fresh_name(f"{net_name}__q"))
        self.move_loads(net_name, new_net.name)
        conns = {in_pin: net_name, out_pin: new_net.name}
        conns.update(extra_conns or {})
        return self.add_instance(inst_name, cell, conns, attrs)

    def replace_cell(
        self,
        inst_name: str,
        new_cell: Cell,
        pin_map: dict[str, str] | None = None,
    ) -> Instance:
        """Swap the cell of ``inst_name``, renaming pins per ``pin_map``
        (old pin name -> new pin name).  Unmapped pins keep their names."""
        inst = self.instances[inst_name]
        mapping = pin_map or {}
        old_conns = dict(inst.conns)
        for pin in list(old_conns):
            self.disconnect(inst_name, pin)
        attrs = inst.attrs
        del self.instances[inst_name]
        new_inst = self.add_instance(
            inst_name,
            new_cell,
            {mapping.get(pin, pin): net for pin, net in old_conns.items()},
            attrs,
        )
        return new_inst

    # -- queries ---------------------------------------------------------------

    def driver_instance(self, net_name: str) -> Instance | None:
        """The instance driving ``net_name``, or None if port/undriven."""
        driver = self.nets[net_name].driver
        if isinstance(driver, Pin):
            return self.instances[driver.instance]
        return None

    def fanout_instances(self, net_name: str) -> list[Instance]:
        return [
            self.instances[load.instance]
            for load in self.nets[net_name].loads
            if isinstance(load, Pin)
        ]

    def sequential_instances(self) -> list[Instance]:
        return [i for i in self.instances.values() if i.is_sequential]

    def flip_flops(self) -> list[Instance]:
        return [i for i in self.instances.values() if i.cell.op == "DFF"]

    def latches(self) -> list[Instance]:
        return [i for i in self.instances.values() if i.cell.op == "DLATCH"]

    def combinational_instances(self) -> list[Instance]:
        """Cells traversed by combinational paths (gates; not FF/latch/ICG)."""
        return [
            i
            for i in self.instances.values()
            if not i.is_sequential and i.cell.kind.value not in ("icg", "tie")
        ]

    def total_area(self) -> float:
        return sum(i.cell.area for i in self.instances.values())

    def count_ops(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for inst in self.instances.values():
            counts[inst.cell.op] = counts.get(inst.cell.op, 0) + 1
        return counts

    # -- copying ---------------------------------------------------------------

    def copy(self, name: str | None = None) -> "Module":
        """Structural deep copy (cells are shared, they are immutable)."""
        dup = Module(name if name is not None else self.name)
        dup.ports = dict(self.ports)
        dup.clock_ports = OrderedSet(self.clock_ports)
        dup._name_counter = self._name_counter
        for net in self.nets.values():
            dup.nets[net.name] = Net(net.name, net.driver, OrderedSet(net.loads))
        for inst in self.instances.values():
            dup.instances[inst.name] = Instance(
                inst.name, inst.cell, dict(inst.conns), dict(inst.attrs)
            )
        return dup

    def __repr__(self) -> str:
        return (
            f"Module({self.name!r}, ports={len(self.ports)}, "
            f"nets={len(self.nets)}, instances={len(self.instances)})"
        )
