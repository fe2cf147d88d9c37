"""Flat transistor-level netlist representation.

The IFA flow of the paper extracts a flat fault-free netlist from the
layout (their internal PIA tool) and injects one extracted defect at a
time.  :class:`Netlist` is our equivalent container: devices plus node
bookkeeping, with defect-injection helpers that return *modified copies*
so the fault-free netlist is never mutated (one-defect-at-a-time
semantics, exactly as in the paper's Figure 2 flow).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from repro.circuit.devices import (
    Capacitor,
    CurrentSource,
    Device,
    Mosfet,
    Resistor,
    VoltageSource,
)

GROUND = "0"


class Netlist:
    """A flat circuit netlist.

    Nodes are identified by strings; node ``"0"`` is ground.  Devices are
    added via :meth:`add` and must carry unique names.
    """

    def __init__(self, title: str = "") -> None:
        self.title = title
        self._devices: dict[str, Device] = {}
        self._splice_counter = itertools.count()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, device: Device) -> Device:
        """Add a device; raises ``ValueError`` on duplicate names."""
        if device.name in self._devices:
            raise ValueError(f"duplicate device name: {device.name}")
        self._devices[device.name] = device
        return device

    def extend(self, devices: Iterable[Device]) -> None:
        for dev in devices:
            self.add(dev)

    def remove(self, name: str) -> Device:
        """Remove and return a device by name; ``KeyError`` if absent."""
        return self._devices.pop(name)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._devices)

    def __contains__(self, name: str) -> bool:
        return name in self._devices

    def __getitem__(self, name: str) -> Device:
        return self._devices[name]

    def devices(self) -> Iterator[Device]:
        return iter(self._devices.values())

    def devices_of_type(self, cls: type) -> Iterator[Device]:
        return (d for d in self._devices.values() if isinstance(d, cls))

    @property
    def nodes(self) -> list[str]:
        """All node names (excluding ground), in deterministic order."""
        seen: dict[str, None] = {}
        for dev in self._devices.values():
            for node in _terminals(dev):
                if node != GROUND:
                    seen.setdefault(node)
        return list(seen)

    def connectivity(self) -> dict[str, list[str]]:
        """Node -> device-name adjacency map (for diagnosis and IFA)."""
        adj: dict[str, list[str]] = {}
        for dev in self._devices.values():
            for node in _terminals(dev):
                adj.setdefault(node, []).append(dev.name)
        return adj

    # ------------------------------------------------------------------
    # Defect injection (pure: returns a modified copy)
    # ------------------------------------------------------------------
    def copy(self, title: str | None = None) -> "Netlist":
        clone = Netlist(title if title is not None else self.title)
        clone._devices = dict(self._devices)
        return clone

    def with_bridge(self, node_a: str, node_b: str,
                    resistance: float) -> "Netlist":
        """Return a copy with a resistive bridge between two nodes."""
        if node_a == node_b:
            raise ValueError("bridge endpoints must differ")
        faulty = self.copy(f"{self.title}+bridge({node_a},{node_b},{resistance:g})")
        faulty.add(Resistor("Rbridge", node_a, node_b, resistance))
        return faulty

    def with_open(self, device_name: str, terminal: str, resistance: float,
                  name: str = "Ropen") -> "Netlist":
        """Return a copy with a resistive open in series with a terminal.

        The chosen terminal of ``device_name`` is re-wired to a fresh
        internal node and a resistor of the given value is spliced between
        the internal node and the original net -- the standard way of
        modelling a resistive via/contact open.
        """
        dev = self._devices[device_name]
        terms = _terminal_fields(dev)
        if terminal not in terms:
            raise ValueError(
                f"device {device_name} has no terminal {terminal!r}; "
                f"choices: {sorted(terms)}"
            )
        original_net = getattr(dev, terminal)
        internal = f"_open{next(self._splice_counter)}_{device_name}_{terminal}"
        faulty = self.copy(
            f"{self.title}+open({device_name}.{terminal},{resistance:g})"
        )
        # Replace the device with a rewired clone.
        import dataclasses

        rewired = dataclasses.replace(dev, **{terminal: internal})
        faulty._devices[device_name] = rewired
        faulty.add(Resistor(name, internal, original_net, resistance))
        return faulty

    def __repr__(self) -> str:
        return (
            f"Netlist({self.title!r}, {len(self._devices)} devices, "
            f"{len(self.nodes)} nodes)"
        )


def _terminal_fields(device: Device) -> tuple[str, ...]:
    if isinstance(device, Mosfet):
        return ("drain", "gate", "source")
    if isinstance(device, (Resistor, Capacitor)):
        return ("node_a", "node_b")
    if isinstance(device, (VoltageSource, CurrentSource)):
        return ("node_pos", "node_neg")
    raise TypeError(f"unknown device type: {type(device).__name__}")


def _terminals(device: Device) -> tuple[str, ...]:
    return tuple(getattr(device, f) for f in _terminal_fields(device))
