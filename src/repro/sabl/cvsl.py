"""Dynamic cascode voltage switch logic (CVSL) baseline gate.

Section 2 of the paper quotes simulations of the AND-NAND gate in cascode
voltage switch logic showing power variations "as large as 50 %", caused
by internal parasitic capacitances that discharge for some inputs only.
This module models that baseline: a precharged differential gate built
around the same (genuine) pull-down network, but *without* the SABL sense
amplifier and without the equalising transistor M1 -- so only the
conducting branch discharges, and the internal nodes of the other branch
(and any floating node) keep their charge.

The class shares :class:`repro.sabl.gate.DifferentialGate` with
:class:`repro.sabl.gate.SABLGate` so that the benchmarks can swap one
for the other; the charge-based models are shared with
:mod:`repro.electrical.energy` (style ``"cvsl"``) and the transient
view builds the classic precharged DCVS structure: two precharge PMOS,
two cross-coupled PMOS keeping the high output high, and the clocked foot
device.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..electrical.capacitance import extract_capacitances
from ..electrical.rc import SwitchedRCCircuit
from .clocking import clock_waveform, rail_waveforms
from .gate import GND_NET, VDD_NET, CLK_NET, DifferentialGate

__all__ = ["CVSLGate"]


class CVSLGate(DifferentialGate):
    """A precharged CVSL-style differential gate (the paper's baseline)."""

    style = "cvsl"

    def build_transient_circuit(
        self, events: Sequence[Mapping[str, bool]]
    ) -> SwitchedRCCircuit:
        """Switched-RC circuit of the precharged CVSL gate.

        The module outputs X and Y *are* the gate outputs here: they carry
        the external load, are precharged by clocked PMOS devices and held
        by a cross-coupled PMOS pair.
        """
        technology = self.technology
        circuit = SwitchedRCCircuit(technology)
        capacitances = extract_capacitances(
            self.dpdn, technology, include_sense_amplifier=False
        )

        for node in self.dpdn.nodes():
            capacitance = capacitances.capacitance(node)
            initial = 0.0
            if node in (self.dpdn.x, self.dpdn.y):
                capacitance += self.output_load + 2.0 * technology.c_junction
                initial = technology.vdd
            circuit.add_node(node, capacitance, initial=initial)

        circuit.add_supply(VDD_NET, technology.vdd)
        circuit.add_supply(GND_NET, 0.0)
        circuit.add_supply(CLK_NET, clock_waveform(technology, len(events)))
        for rail, waveform in rail_waveforms(
            list(events), self.dpdn.variables(), technology
        ).items():
            circuit.add_supply(rail, waveform)

        r_n, r_p = technology.r_on_nmos, technology.r_on_pmos
        circuit.add_switch("MP_x", VDD_NET, self.dpdn.x, r_p, kind="pmos", gate=CLK_NET)
        circuit.add_switch("MP_y", VDD_NET, self.dpdn.y, r_p, kind="pmos", gate=CLK_NET)
        circuit.add_switch("MPC_x", VDD_NET, self.dpdn.x, r_p, kind="pmos", gate=self.dpdn.y)
        circuit.add_switch("MPC_y", VDD_NET, self.dpdn.y, r_p, kind="pmos", gate=self.dpdn.x)
        circuit.add_switch("Mfoot", self.dpdn.z, GND_NET, r_n, kind="nmos", gate=CLK_NET)
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
