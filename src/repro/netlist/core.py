"""Netlist data model: instances, nets, top-level ports.

Design notes:

- Instances reference either a :class:`~repro.cells.stdcell.StdCell` or a
  :class:`~repro.cells.macro.Macro` as their master; the flows distinguish
  them with :attr:`Instance.is_macro`.
- Every instance and net carries a dense integer id assigned by the
  netlist, so placement/routing/timing can use numpy arrays indexed by id.
- Nets know their driver terminal; multi-driver nets are rejected at
  connect time, floating nets at :meth:`Netlist.validate` time.
- Top-level ports can carry the physical constraints the case study needs
  (paper Sec. V-1): a die edge, a fractional position along that edge, a
  half-cycle IO delay, and the name of the opposite-edge partner port they
  must align with for tile abutment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.cells.macro import Macro
from repro.cells.stdcell import PinDirection, StdCell

Master = Union[StdCell, Macro]

#: A net terminal: (instance, pin name) or (port, "").
Term = Tuple[object, str]

#: Die edges for port constraints.
EDGES = ("N", "S", "E", "W")

#: Opposite edge lookup for alignment checks.
OPPOSITE_EDGE = {"N": "S", "S": "N", "E": "W", "W": "E"}


@dataclass
class PortConstraint:
    """Physical/timing constraints of a top-level port.

    Attributes:
        edge: die edge the pin must sit on (``"N"``, ``"S"``, ``"E"``, ``"W"``).
        position: fractional position (0..1) along that edge.
        io_delay_fraction: external delay as a fraction of the clock period
            (0.5 for the half-cycle inter-tile NoC constraint).
        aligned_with: name of the opposite-edge port this pin must share a
            coordinate with so abutting tiles connect without routing.
        layer: metal layer of the pin shape (the case study puts all tile
            pins on the top logic-die metal).
    """

    edge: str
    position: float
    io_delay_fraction: float = 0.0
    aligned_with: Optional[str] = None
    layer: str = "M6"

    def __post_init__(self) -> None:
        if self.edge not in EDGES:
            raise ValueError(f"unknown edge {self.edge!r}")
        if not 0.0 <= self.position <= 1.0:
            raise ValueError("edge position must be within [0, 1]")
        if not 0.0 <= self.io_delay_fraction < 1.0:
            raise ValueError("io delay fraction must be within [0, 1)")


class Port:
    """A top-level netlist port."""

    __slots__ = ("name", "direction", "net", "constraint", "capacitance")

    def __init__(
        self,
        name: str,
        direction: PinDirection,
        constraint: Optional[PortConstraint] = None,
        capacitance: float = 2.0,
    ):
        self.name = name
        self.direction = direction
        self.net: Optional[Net] = None
        self.constraint = constraint
        self.capacitance = capacitance

    def __repr__(self) -> str:
        return f"Port({self.name}, {self.direction.value})"


class Instance:
    """One placed component: a standard cell or a macro."""

    __slots__ = ("name", "id", "master", "connections", "fixed")

    def __init__(self, name: str, instance_id: int, master: Master):
        self.name = name
        self.id = instance_id
        self.master = master
        #: pin name -> Net
        self.connections: Dict[str, "Net"] = {}
        #: True when the floorplan pins this instance (macros, pre-placed cells).
        self.fixed = False

    @property
    def is_macro(self) -> bool:
        return isinstance(self.master, Macro)

    @property
    def is_sequential(self) -> bool:
        if isinstance(self.master, StdCell):
            return self.master.is_sequential
        return self.master.is_memory

    @property
    def area(self) -> float:
        return self.master.area

    def pin_direction(self, pin_name: str) -> PinDirection:
        return self.master.pin(pin_name).direction

    def pin_capacitance(self, pin_name: str) -> float:
        return self.master.pin(pin_name).capacitance

    def net_on(self, pin_name: str) -> Optional["Net"]:
        return self.connections.get(pin_name)

    def __repr__(self) -> str:
        return f"Instance({self.name}:{self.master.name})"


class Net:
    """A signal net connecting instance pins and/or top-level ports."""

    __slots__ = ("name", "id", "terms", "driver", "is_clock")

    def __init__(self, name: str, net_id: int):
        self.name = name
        self.id = net_id
        #: All terminals, driver included.
        self.terms: List[Term] = []
        #: The driving terminal (output pin or input port), if known.
        self.driver: Optional[Term] = None
        self.is_clock = False

    @property
    def degree(self) -> int:
        return len(self.terms)

    @property
    def sinks(self) -> List[Term]:
        """All terminals except the driver."""
        return [t for t in self.terms if t is not self.driver]

    def instance_terms(self) -> List[Tuple[Instance, str]]:
        return [(obj, pin) for obj, pin in self.terms if isinstance(obj, Instance)]

    def port_terms(self) -> List[Port]:
        return [obj for obj, _pin in self.terms if isinstance(obj, Port)]

    def total_pin_capacitance(self) -> float:
        """Sum of sink pin input capacitances (fF) on this net."""
        total = 0.0
        for obj, pin in self.terms:
            if isinstance(obj, Instance):
                if obj.pin_direction(pin) is not PinDirection.OUTPUT:
                    total += obj.pin_capacitance(pin)
            elif obj.direction is PinDirection.OUTPUT:
                total += obj.capacitance
        return total

    def __repr__(self) -> str:
        return f"Net({self.name}, degree={self.degree})"


class Netlist:
    """A flat gate-level netlist."""

    def __init__(self, name: str):
        self.name = name
        self._instances: Dict[str, Instance] = {}
        self._instance_list: List[Instance] = []
        self._nets: Dict[str, Net] = {}
        self._net_list: List[Net] = []
        self._ports: Dict[str, Port] = {}

    # -- construction ----------------------------------------------------------

    def add_instance(self, name: str, master: Master) -> Instance:
        if name in self._instances:
            raise ValueError(f"duplicate instance name {name}")
        instance = Instance(name, len(self._instance_list), master)
        self._instances[name] = instance
        self._instance_list.append(instance)
        return instance

    def add_net(self, name: str) -> Net:
        if name in self._nets:
            raise ValueError(f"duplicate net name {name}")
        net = Net(name, len(self._net_list))
        self._nets[name] = net
        self._net_list.append(net)
        return net

    def get_or_add_net(self, name: str) -> Net:
        existing = self._nets.get(name)
        return existing if existing is not None else self.add_net(name)

    def add_port(
        self,
        name: str,
        direction: PinDirection,
        constraint: Optional[PortConstraint] = None,
    ) -> Port:
        if name in self._ports:
            raise ValueError(f"duplicate port name {name}")
        port = Port(name, direction, constraint)
        self._ports[name] = port
        return port

    def connect(self, net: Net, instance: Instance, pin_name: str) -> None:
        """Attach an instance pin to a net, tracking the driver."""
        if instance.net_on(pin_name) is not None:
            raise ValueError(
                f"pin {instance.name}.{pin_name} is already connected"
            )
        direction = instance.pin_direction(pin_name)
        term: Term = (instance, pin_name)
        if direction is PinDirection.OUTPUT:
            if net.driver is not None:
                raise ValueError(f"net {net.name} already has a driver")
            net.driver = term
        net.terms.append(term)
        instance.connections[pin_name] = net

    def connect_port(self, net: Net, port: Port) -> None:
        """Attach a top-level port to a net; input ports drive the net."""
        if port.net is not None:
            raise ValueError(f"port {port.name} is already connected")
        term: Term = (port, "")
        if port.direction is PinDirection.INPUT:
            if net.driver is not None:
                raise ValueError(f"net {net.name} already has a driver")
            net.driver = term
        net.terms.append(term)
        port.net = net

    # -- access ------------------------------------------------------------------

    @property
    def instances(self) -> List[Instance]:
        """All instances in id order.

        Each call returns a fresh O(n) copy, so bind it once outside
        any per-element loop rather than indexing it inside one.
        """
        return list(self._instance_list)

    @property
    def nets(self) -> List[Net]:
        """All nets in id order.

        Each call returns a fresh O(n) copy, so bind it once outside
        any per-element loop rather than indexing it inside one.
        """
        return list(self._net_list)

    @property
    def ports(self) -> List[Port]:
        """All top-level ports in creation order.

        Each call returns a fresh O(n) copy, so bind it once outside
        any per-element loop rather than indexing it inside one.
        """
        return list(self._ports.values())

    def instance(self, name: str) -> Instance:
        return self._instances[name]

    def net(self, name: str) -> Net:
        return self._nets[name]

    def port(self, name: str) -> Port:
        return self._ports[name]

    @property
    def num_instances(self) -> int:
        return len(self._instance_list)

    @property
    def num_nets(self) -> int:
        return len(self._net_list)

    def std_cells(self) -> List[Instance]:
        return [inst for inst in self._instance_list if not inst.is_macro]

    def macros(self) -> List[Instance]:
        return [inst for inst in self._instance_list if inst.is_macro]

    # -- statistics --------------------------------------------------------------

    def std_cell_area(self) -> float:
        """Total standard-cell area in um2."""
        return sum(inst.area for inst in self._instance_list if not inst.is_macro)

    def macro_area(self) -> float:
        """Total full macro area in um2."""
        return sum(inst.area for inst in self._instance_list if inst.is_macro)

    def macro_area_fraction(self) -> float:
        """Fraction of the total substrate area occupied by macros.

        The paper motivates MoL stacking with this exceeding 0.5 even for
        small caches.
        """
        total = self.std_cell_area() + self.macro_area()
        if total == 0.0:
            return 0.0
        return self.macro_area() / total

    def clock_nets(self) -> List[Net]:
        return [net for net in self._net_list if net.is_clock]

    # -- validation --------------------------------------------------------------

    def dangling_nets(self) -> List[Net]:
        """Driven nets with no sinks (harmless; reported for inspection)."""
        return [net for net in self._net_list
                if net.driver is not None and len(net.terms) < 2]

    def validate(self) -> None:
        """Raise ValueError on structural problems (undriven nets,
        unconnected instance input pins).  Driven nets without sinks are
        tolerated, as in commercial flows."""
        problems: List[str] = []
        for net in self._net_list:
            if net.driver is None:
                problems.append(f"net {net.name} has no driver")
        for inst in self._instance_list:
            for pin in inst.master.pins:
                if pin.direction is PinDirection.INPUT and inst.net_on(pin.name) is None:
                    problems.append(f"input pin {inst.name}.{pin.name} is unconnected")
        if problems:
            preview = "; ".join(problems[:10])
            raise ValueError(
                f"netlist {self.name} has {len(problems)} problems: {preview}"
            )

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name}, {self.num_instances} instances, "
            f"{self.num_nets} nets, {len(self._ports)} ports)"
        )
