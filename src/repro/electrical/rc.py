"""Switched-resistor transient simulator.

This is the stand-in for the HSPICE runs of the paper's Fig. 3/4: a small
nodal-analysis engine in which MOS devices are voltage-controlled
switches with a finite on-resistance, every node carries a capacitance to
ground, and the node voltages are integrated with the backward-Euler
method.  The model captures exactly the effects the paper's argument
relies on -- which capacitances are charged and discharged, through which
resistive paths, and what current the supply delivers while that happens
-- while remaining a few hundred lines of numpy.

Device model:

* an NMOS switch conducts when its gate voltage exceeds the lower of its
  two channel terminals by more than ``vtn``;
* a PMOS switch conducts when its gate voltage is below the higher of its
  two channel terminals by more than ``vtp``;
* a conducting switch is a resistor ``r_on / width``; a non-conducting
  switch is a very small leakage conductance.

Gate terminals may be driven by another circuit node (cross-coupled
structures regenerate correctly this way, one time step of delay at a
time) or by an arbitrary waveform ``f(t)`` (clocks and input rails).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .technology import Technology, generic_180nm
from .waveform import Trace, WaveformSet

__all__ = ["SwitchedRCCircuit", "Switch", "GateDrive"]

#: Conductance of a switched-off device [siemens]; keeps floating nodes
#: numerically tame without noticeably discharging them within a cycle.
OFF_CONDUCTANCE = 1.0e-12

GateDrive = Union[str, Callable[[float], float], None]


@dataclass
class Switch:
    """One switched-resistor device."""

    name: str
    node_a: str
    node_b: str
    resistance: float
    kind: str = "nmos"  # "nmos", "pmos" or "always"
    gate: GateDrive = None
    threshold: Optional[float] = None

    def conductance(self, v_a: float, v_b: float, v_gate: float, default_vt: float) -> float:
        """Conductance of the device for the current operating point."""
        threshold = self.threshold if self.threshold is not None else default_vt
        if self.kind == "always":
            conducting = True
        elif self.kind == "nmos":
            conducting = (v_gate - min(v_a, v_b)) > threshold
        elif self.kind == "pmos":
            conducting = (max(v_a, v_b) - v_gate) > threshold
        else:  # pragma: no cover - guarded at add time
            raise ValueError(f"unknown switch kind {self.kind!r}")
        if not conducting:
            return OFF_CONDUCTANCE
        return 1.0 / self.resistance


class SwitchedRCCircuit:
    """A capacitive node network with switched-resistor devices."""

    def __init__(self, technology: Optional[Technology] = None) -> None:
        self.technology = technology or generic_180nm()
        self._capacitance: Dict[str, float] = {}
        self._initial: Dict[str, float] = {}
        self._supplies: Dict[str, Callable[[float], float]] = {}
        self._switches: List[Switch] = []

    # ------------------------------------------------------------------ build

    def add_node(self, name: str, capacitance: float, initial: float = 0.0) -> None:
        """Add (or update) a capacitive node."""
        if name in self._supplies:
            raise ValueError(f"{name!r} is already a supply node")
        self._capacitance[name] = self._capacitance.get(name, 0.0) + capacitance
        self._initial.setdefault(name, initial)
        if initial != 0.0:
            self._initial[name] = initial

    def add_supply(self, name: str, value: Union[float, Callable[[float], float]]) -> None:
        """Declare a node whose voltage is imposed (VDD, ground, input rails)."""
        if name in self._capacitance:
            raise ValueError(f"{name!r} is already a capacitive node")
        if callable(value):
            self._supplies[name] = value
        else:
            self._supplies[name] = lambda t, v=float(value): v

    def add_switch(
        self,
        name: str,
        node_a: str,
        node_b: str,
        resistance: float,
        kind: str = "nmos",
        gate: GateDrive = None,
        threshold: Optional[float] = None,
    ) -> None:
        """Add a switched-resistor device between two nodes."""
        if kind not in ("nmos", "pmos", "always"):
            raise ValueError(f"unknown switch kind {kind!r}")
        if kind != "always" and gate is None:
            raise ValueError("nmos/pmos switches need a gate drive")
        for node in (node_a, node_b):
            if node not in self._capacitance and node not in self._supplies:
                raise KeyError(f"unknown node {node!r}")
        self._switches.append(
            Switch(
                name=name,
                node_a=node_a,
                node_b=node_b,
                resistance=resistance,
                kind=kind,
                gate=gate,
                threshold=threshold,
            )
        )

    def add_resistor(self, name: str, node_a: str, node_b: str, resistance: float) -> None:
        """Add a fixed resistor (an always-on switch)."""
        self.add_switch(name, node_a, node_b, resistance, kind="always")

    # -------------------------------------------------------------- simulation

    def nodes(self) -> List[str]:
        return list(self._capacitance)

    def supplies(self) -> List[str]:
        return list(self._supplies)

    def simulate(
        self,
        t_stop: float,
        time_step: Optional[float] = None,
        record: Optional[Sequence[str]] = None,
    ) -> WaveformSet:
        """Integrate the circuit from 0 to ``t_stop``.

        Returns a :class:`~repro.electrical.waveform.WaveformSet` holding
        the voltage of every capacitive node (or the subset in
        ``record``), the waveform of every supply node, and the current
        delivered by each supply as ``i_<supply>`` (positive when flowing
        out of the supply into the circuit).
        """
        dt = time_step or self.technology.time_step
        steps = max(2, int(math.ceil(t_stop / dt)) + 1)
        times = np.linspace(0.0, t_stop, steps)

        node_names = list(self._capacitance)
        index = {name: i for i, name in enumerate(node_names)}
        capacitance = np.array([self._capacitance[name] for name in node_names])
        if np.any(capacitance <= 0.0):
            offenders = [name for name in node_names if self._capacitance[name] <= 0.0]
            raise ValueError(f"nodes with non-positive capacitance: {offenders}")

        voltages = np.zeros((steps, len(node_names)))
        voltages[0] = [self._initial.get(name, 0.0) for name in node_names]

        supply_names = list(self._supplies)
        supply_values = np.zeros((steps, len(supply_names)))
        for j, name in enumerate(supply_names):
            supply_values[:, j] = [self._supplies[name](t) for t in times]
        supply_index = {name: j for j, name in enumerate(supply_names)}
        supply_currents = np.zeros((steps, len(supply_names)))

        def voltage_of(node: str, step: int) -> float:
            if node in index:
                return float(voltages[step, index[node]])
            return float(supply_values[step, supply_index[node]])

        def gate_voltage(switch: Switch, step: int, t: float) -> float:
            if switch.gate is None:
                return 0.0
            if callable(switch.gate):
                return float(switch.gate(t))
            return voltage_of(switch.gate, step)

        n = len(node_names)
        for step in range(1, steps):
            t = float(times[step])
            previous = step - 1

            matrix = np.zeros((n, n))
            rhs = np.zeros(n)
            np.fill_diagonal(matrix, capacitance / dt)
            rhs += capacitance / dt * voltages[previous]

            conductances = np.zeros(len(self._switches))
            for k, switch in enumerate(self._switches):
                v_a = voltage_of(switch.node_a, previous)
                v_b = voltage_of(switch.node_b, previous)
                v_gate = gate_voltage(switch, previous, t)
                g = switch.conductance(v_a, v_b, v_gate, self.technology.vtn)
                conductances[k] = g
                a_idx = index.get(switch.node_a)
                b_idx = index.get(switch.node_b)
                if a_idx is not None:
                    matrix[a_idx, a_idx] += g
                    if b_idx is not None:
                        matrix[a_idx, b_idx] -= g
                    else:
                        rhs[a_idx] += g * supply_values[step, supply_index[switch.node_b]]
                if b_idx is not None:
                    matrix[b_idx, b_idx] += g
                    if a_idx is not None:
                        matrix[b_idx, a_idx] -= g
                    else:
                        rhs[b_idx] += g * supply_values[step, supply_index[switch.node_a]]

            voltages[step] = np.linalg.solve(matrix, rhs)

            # Supply currents with the freshly solved voltages.
            for k, switch in enumerate(self._switches):
                g = conductances[k]
                for supply_name, other in (
                    (switch.node_a, switch.node_b),
                    (switch.node_b, switch.node_a),
                ):
                    if supply_name in supply_index:
                        v_supply = supply_values[step, supply_index[supply_name]]
                        v_other = (
                            voltages[step, index[other]]
                            if other in index
                            else supply_values[step, supply_index[other]]
                        )
                        supply_currents[step, supply_index[supply_name]] += g * (
                            v_supply - v_other
                        )

        recorded = record if record is not None else node_names
        waveforms = WaveformSet(times=times)
        for name in recorded:
            if name in index:
                waveforms.add(Trace(name, times, voltages[:, index[name]]))
        for j, name in enumerate(supply_names):
            waveforms.add(Trace(name, times, supply_values[:, j]))
            waveforms.add(Trace(f"i_{name}", times, supply_currents[:, j]))
        return waveforms
