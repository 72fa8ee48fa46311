"""Parasitic capacitance extraction for differential pull-down networks.

The constant-power argument of the paper is an argument about
capacitances: the gate consumes the same energy every cycle exactly when
the *same total capacitance* is charged from the supply every cycle.
This module attaches a capacitance to every node of a DPDN from the
technology card:

* each transistor contributes one junction capacitance to the node on its
  drain and one to the node on its source (scaled by device width),
* every node carries a wiring capacitance (internal or output class),
* the module outputs X and Y additionally see the junctions of the sense
  amplifier devices that sit on them in the SABL gate (the cross-coupled
  NMOS, the equalising transistor M1 and, in our gate model, a precharge
  device), so that the X/Y capacitances are realistic and -- importantly
  -- *matched*, as the paper requires.

The extraction is deliberately layout-free: the paper's point is that no
amount of sizing or layout matching can fix a network whose *set of
discharged nodes* changes with the input, and that is a purely structural
property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..network.netlist import DifferentialPullDownNetwork
from .technology import Technology

__all__ = ["CapacitanceExtraction", "device_terms", "extract_capacitances"]

#: Number of sense-amplifier device terminals sitting on each of X and Y in
#: the generic SABL gate model (cross-coupled NMOS source, M1 terminal,
#: precharge PMOS drain).
_SENSE_AMP_JUNCTIONS_PER_OUTPUT = 3


@dataclass(frozen=True)
class CapacitanceExtraction:
    """Per-node capacitances of one DPDN [farads]."""

    node_capacitance: Mapping[str, float]
    technology: Technology

    def capacitance(self, node: str) -> float:
        return self.node_capacitance[node]

    def total(self, nodes: Optional[Mapping[str, bool] | set] = None) -> float:
        """Total capacitance of ``nodes`` (all nodes when omitted)."""
        if nodes is None:
            return sum(self.node_capacitance.values())
        return sum(self.node_capacitance[node] for node in nodes)

    def describe(self) -> str:
        lines = ["Node capacitances:"]
        for node, value in sorted(self.node_capacitance.items()):
            lines.append(f"  {node:<8}: {value * 1e15:6.2f} fF")
        lines.append(f"  total   : {self.total() * 1e15:6.2f} fF")
        return "\n".join(lines)


def extract_capacitances(
    dpdn: DifferentialPullDownNetwork,
    technology: Technology,
    include_sense_amplifier: bool = True,
    wire_overrides: Optional[Mapping[str, float]] = None,
) -> CapacitanceExtraction:
    """Extract the node capacitances of ``dpdn`` under ``technology``.

    ``include_sense_amplifier`` adds the SABL sense-amplifier junctions to
    X and Y; pass ``False`` when analysing the bare network (for example
    when embedding it in a different logic style).

    ``wire_overrides`` replaces the class-based wiring constant of
    individual nodes with explicit values [farad] -- the back-annotation
    hook of :mod:`repro.layout.parasitics`, which substitutes each module
    output's ``c_wire_output`` with the extracted capacitance of its
    routed rail.  Overriding a node with exactly ``c_wire_output`` (or
    ``c_wire_internal``) reproduces the layout-free extraction
    bit-identically.
    """
    capacitance: Dict[str, float] = {}
    external = set(dpdn.external_nodes)
    overrides = dict(wire_overrides or {})
    unknown = sorted(set(overrides) - set(dpdn.nodes()))
    if unknown:
        raise ValueError(f"wire overrides for unknown nodes {unknown}")

    terms = device_terms(dpdn, technology, include_sense_amplifier)
    for node in dpdn.nodes():
        wire = (
            technology.c_wire_output if node in external else technology.c_wire_internal
        )
        total = overrides.get(node, wire)
        for term in terms[node]:
            total += term
        capacitance[node] = total

    return CapacitanceExtraction(node_capacitance=capacitance, technology=technology)


def device_terms(
    dpdn: DifferentialPullDownNetwork,
    technology: Technology,
    include_sense_amplifier: bool = True,
) -> Dict[str, List[float]]:
    """The device capacitances :func:`extract_capacitances` adds to each
    node's wiring capacitance, in the order it adds them [farads].

    A node's extracted capacitance is its wiring value plus these terms,
    summed left to right, so a caller that varies only the wiring value
    (the routed rails of many gates of one network) can repeat the
    extraction's exact floating-point sums on whole arrays.
    """
    terms: Dict[str, List[float]] = {node: [] for node in dpdn.nodes()}
    for transistor in dpdn.transistors:
        junction = technology.c_junction * transistor.width
        terms[transistor.drain].append(junction)
        terms[transistor.source].append(junction)

    if include_sense_amplifier:
        sense = _SENSE_AMP_JUNCTIONS_PER_OUTPUT * technology.c_junction
        terms[dpdn.x].append(sense)
        terms[dpdn.y].append(sense)
        # The common node Z sees the junction of the clocked foot device.
        terms[dpdn.z].append(technology.c_junction)
    return terms
