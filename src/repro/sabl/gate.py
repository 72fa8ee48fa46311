"""The sense amplifier based logic (SABL) gate model (paper Fig. 1).

A SABL gate is the sense amplifier of the StrongArm flip-flop with its
input differential pair replaced by a differential pull-down network:

* two cross-coupled inverters form the differential outputs OUT / OUTB,
* precharge PMOS devices pull OUT, OUTB (and, in this model, the DPDN
  output nodes X and Y) to VDD while the clock is low,
* the transistor M1 shorts X and Y during the evaluation phase so that
  both module outputs -- and, when the DPDN is fully connected, every
  internal node -- discharge regardless of which branch conducts,
* the clocked foot transistor connects the common node Z to ground during
  the evaluation phase.

Two views of the gate are provided.  The *charge view* wraps the
:class:`~repro.electrical.energy.EventEnergyModel` /
:class:`~repro.electrical.energy.CycleEnergySimulator` pair and is what
the power-analysis substrate uses.  The *transient view* builds a
switched-RC circuit of the full gate and reproduces the waveforms of the
paper's Fig. 3 (output voltages and supply current) and the discharged
charge of Fig. 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..boolexpr.ast import Expr
from ..electrical.capacitance import extract_capacitances
from ..electrical.energy import CycleEnergySimulator, EventEnergyModel, EventEnergyRecord
from ..electrical.rc import SwitchedRCCircuit
from ..electrical.technology import Technology, generic_180nm
from ..electrical.waveform import WaveformSet
from ..network.netlist import DifferentialPullDownNetwork
from .clocking import PhaseSchedule, clock_waveform, rail_waveforms

__all__ = ["TransientResult", "DifferentialGate", "SABLGate"]

#: Net names used by the transient view of the gate.
OUT_NET = "OUT"
OUTB_NET = "OUTB"
VDD_NET = "VDD"
GND_NET = "GND"
CLK_NET = "clk"


@dataclass
class TransientResult:
    """Waveforms and per-cycle energy of a transient gate simulation."""

    waveforms: WaveformSet
    events: List[Dict[str, bool]]
    technology: Technology
    cycle_charges: List[float]
    cycle_energies: List[float]

    def supply_current(self):
        """The supply current trace (positive into the circuit)."""
        return self.waveforms[f"i_{VDD_NET}"]

    def output_traces(self):
        """The differential output voltage traces (OUT, OUTB)."""
        return self.waveforms[OUT_NET], self.waveforms[OUTB_NET]

    def describe(self) -> str:
        lines = ["Transient simulation:"]
        for index, (event, charge, energy) in enumerate(
            zip(self.events, self.cycle_charges, self.cycle_energies)
        ):
            label = ", ".join(f"{k}={int(v)}" for k, v in sorted(event.items()))
            lines.append(
                f"  cycle {index}: ({label})  Q = {charge * 1e15:7.2f} fC  "
                f"E = {energy * 1e15:7.2f} fJ"
            )
        return "\n".join(lines)


class DifferentialGate:
    """A precharged differential gate wrapped around a DPDN.

    The shared body of :class:`SABLGate` and
    :class:`~repro.sabl.cvsl.CVSLGate`: the logical view, the charge
    view (the :class:`~repro.electrical.energy.EventEnergyModel` /
    :class:`~repro.electrical.energy.CycleEnergySimulator` pair of the
    gate's :attr:`style`) and the transient simulation loop.  A subclass
    names its style -- also the default name prefix -- and builds its
    switched-RC circuit in ``build_transient_circuit(events)``.
    """

    #: Charge-model style of :mod:`repro.electrical.energy`.
    style: str = ""

    def __init__(
        self,
        dpdn: DifferentialPullDownNetwork,
        technology: Optional[Technology] = None,
        output_load: Optional[float] = None,
        name: Optional[str] = None,
    ) -> None:
        self.dpdn = dpdn
        self.technology = technology or generic_180nm()
        self.output_load = (
            output_load if output_load is not None else self.technology.c_output_load
        )
        self.name = name or f"{self.style}_{dpdn.name}"
        self._event_model = EventEnergyModel(
            dpdn, self.technology, style=self.style, output_load=self.output_load
        )

    # ----------------------------------------------------------------- logical

    @property
    def function(self) -> Optional[Expr]:
        """The Boolean function realised between X and Z."""
        return self.dpdn.function

    def variables(self) -> List[str]:
        return self.dpdn.variables()

    def logic_output(self, assignment: Mapping[str, bool]) -> bool:
        """Logical output of the gate for a complementary input event."""
        if self.dpdn.function is None:
            raise ValueError(f"gate {self.name} has no function annotation")
        return bool(self.dpdn.function.evaluate(assignment))

    # ------------------------------------------------------------- charge view

    @property
    def event_model(self) -> EventEnergyModel:
        """The memoryless per-event energy model."""
        return self._event_model

    def cycle_simulator(self) -> CycleEnergySimulator:
        """A fresh stateful cycle-energy simulator for this gate."""
        return CycleEnergySimulator(
            self.dpdn, self.technology, style=self.style, output_load=self.output_load
        )

    def discharged_capacitance(self, assignment: Mapping[str, bool]) -> float:
        """Total capacitance discharged in the evaluation phase [farad]."""
        return self._event_model.discharged_capacitance(assignment)

    def event_energy(self, assignment: Mapping[str, bool]) -> float:
        """Per-event supply energy [joule]."""
        return self._event_model.event_energy(assignment)

    def energy_sweep(self) -> List[EventEnergyRecord]:
        """Per-event records for every complementary input combination."""
        return self._event_model.sweep()

    # ---------------------------------------------------------- transient view

    def transient(
        self,
        events: Sequence[Mapping[str, bool]],
        time_step: Optional[float] = None,
    ) -> TransientResult:
        """Simulate a sequence of precharge/evaluation cycles.

        ``events[k]`` gives the complementary input values applied during
        the evaluation phase of cycle ``k``.  The result carries the full
        waveform set plus the charge and energy drawn from the supply in
        each clock cycle -- the quantities an attacker measures.
        """
        events = [dict(event) for event in events]
        circuit = self.build_transient_circuit(events)
        schedule = PhaseSchedule(self.technology)
        waveforms = circuit.simulate(
            t_stop=len(events) * self.technology.clock_period, time_step=time_step
        )
        cycle_charges: List[float] = []
        cycle_energies: List[float] = []
        for cycle in range(len(events)):
            charge = waveforms.supply_charge(
                f"i_{VDD_NET}", schedule.cycle_start(cycle), schedule.cycle_end(cycle)
            )
            cycle_charges.append(charge)
            cycle_energies.append(charge * self.technology.vdd)
        return TransientResult(
            waveforms=waveforms,
            events=events,
            technology=self.technology,
            cycle_charges=cycle_charges,
            cycle_energies=cycle_energies,
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.dpdn.name!r}, "
            f"devices={self.dpdn.device_count()})"
        )


class SABLGate(DifferentialGate):
    """One SABL gate: a sense amplifier wrapped around a DPDN."""

    style = "sabl"

    def build_transient_circuit(
        self, events: Sequence[Mapping[str, bool]]
    ) -> SwitchedRCCircuit:
        """Build the switched-RC circuit of the gate for a sequence of events."""
        technology = self.technology
        circuit = SwitchedRCCircuit(technology)
        capacitances = extract_capacitances(self.dpdn, technology)

        # Gate output nodes: intrinsic output capacitance plus external load.
        output_cap = (
            technology.c_wire_output + 2.0 * technology.c_junction + self.output_load
        )
        circuit.add_node(OUT_NET, output_cap, initial=technology.vdd)
        circuit.add_node(OUTB_NET, output_cap, initial=technology.vdd)

        # DPDN nodes.  X and Y start precharged; internal nodes and Z start low.
        for node in self.dpdn.nodes():
            initial = technology.vdd if node in (self.dpdn.x, self.dpdn.y) else 0.0
            circuit.add_node(node, capacitances.capacitance(node), initial=initial)

        # Supplies and stimulus.
        circuit.add_supply(VDD_NET, technology.vdd)
        circuit.add_supply(GND_NET, 0.0)
        circuit.add_supply(CLK_NET, clock_waveform(technology, len(events)))
        for rail, waveform in rail_waveforms(
            list(events), self.dpdn.variables(), technology
        ).items():
            circuit.add_supply(rail, waveform)

        r_n, r_p = technology.r_on_nmos, technology.r_on_pmos
        # Precharge devices (PMOS, active while clk is low).
        circuit.add_switch("MP_out", VDD_NET, OUT_NET, r_p, kind="pmos", gate=CLK_NET)
        circuit.add_switch("MP_outb", VDD_NET, OUTB_NET, r_p, kind="pmos", gate=CLK_NET)
        circuit.add_switch("MP_x", VDD_NET, self.dpdn.x, r_p, kind="pmos", gate=CLK_NET)
        circuit.add_switch("MP_y", VDD_NET, self.dpdn.y, r_p, kind="pmos", gate=CLK_NET)
        # Cross-coupled sense amplifier.
        circuit.add_switch("MPC_out", VDD_NET, OUT_NET, r_p, kind="pmos", gate=OUTB_NET)
        circuit.add_switch("MPC_outb", VDD_NET, OUTB_NET, r_p, kind="pmos", gate=OUT_NET)
        circuit.add_switch("MNC_out", OUT_NET, self.dpdn.x, r_n, kind="nmos", gate=OUTB_NET)
        circuit.add_switch("MNC_outb", OUTB_NET, self.dpdn.y, r_n, kind="nmos", gate=OUT_NET)
        # Equalising transistor M1 and the clocked foot device.
        circuit.add_switch("M1", self.dpdn.x, self.dpdn.y, r_n, kind="nmos", gate=CLK_NET)
        circuit.add_switch("Mfoot", self.dpdn.z, GND_NET, r_n, kind="nmos", gate=CLK_NET)
        # The differential pull-down network itself.
        for transistor in self.dpdn.transistors:
            circuit.add_switch(
                f"MD_{transistor.name}",
                transistor.drain,
                transistor.source,
                r_n / transistor.width,
                kind="nmos",
                gate=transistor.gate.rail_name,
            )
        return circuit
