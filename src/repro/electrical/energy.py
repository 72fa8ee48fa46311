"""Charge-based energy accounting for dynamic differential gates.

The paper's constant-power argument (Sections 2-3) is an accounting over
capacitances: every evaluation phase discharges a set of nodes, and the
charge removed from those nodes has to be put back by the supply in the
power-consuming precharge phase.  A gate is constant-power exactly when
the discharged capacitance is the same for every input event.

Two models are provided:

* :class:`EventEnergyModel` -- the memoryless per-event accounting used by
  the Fig. 4 reproduction: assume every node is charged at the start of
  the evaluation phase and report the total capacitance (and the energy)
  discharged for a given complementary input.
* :class:`CycleEnergySimulator` -- the stateful model used for power-trace
  generation: internal nodes remember whether they kept their charge
  (the memory effect), so the per-cycle supply energy of a non-fully
  connected gate depends on the *sequence* of inputs, exactly the
  behaviour a differential power analysis exploits.

Both models support the two gate styles compared in the paper:

* ``"sabl"`` -- the SABL gate of Fig. 1: the equalising transistor M1
  connects X and Y during evaluation, so X, Y and every DPDN node
  connected to X, Y or Z discharges;
* ``"cvsl"`` -- a conventional precharged CVSL-style gate without the
  equaliser: only the conducting branch (the nodes connected to Z)
  discharges.  This is the baseline whose power variation the paper
  quotes as "as large as 50 %".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..network.analysis import nodes_connected_to
from ..network.netlist import DifferentialPullDownNetwork
from .capacitance import CapacitanceExtraction, extract_capacitances
from .technology import Technology, generic_180nm

__all__ = [
    "GATE_STYLES",
    "DischargeRootsFn",
    "known_gate_styles",
    "EventEnergyRecord",
    "CycleEnergyRecord",
    "EventEnergyModel",
    "CycleEnergySimulator",
]

#: A gate style's discharge rule: which DPDN nodes are pulled low during
#: the evaluation phase (everything conducting to them discharges too).
DischargeRootsFn = Callable[[DifferentialPullDownNetwork], Tuple[str, ...]]


def _sabl_discharge_roots(dpdn: DifferentialPullDownNetwork) -> Tuple[str, ...]:
    # M1 shorts X and Y during evaluation, so both module outputs discharge.
    return (dpdn.x, dpdn.y, dpdn.z)


def _cvsl_discharge_roots(dpdn: DifferentialPullDownNetwork) -> Tuple[str, ...]:
    # No equaliser: only the common node Z (and what conducts to it) falls.
    return (dpdn.z,)


#: The discharge rule of every gate style, keyed by style name: the one
#: table the charge models and the flow's gate-style backends read.
_DISCHARGE_ROOTS: Dict[str, DischargeRootsFn] = {
    "sabl": _sabl_discharge_roots,
    "cvsl": _cvsl_discharge_roots,
}

#: Names of the gate styles the charge models accept.
GATE_STYLES: Tuple[str, ...] = tuple(_DISCHARGE_ROOTS)


def known_gate_styles() -> Tuple[str, ...]:
    """Names of every gate style the charge models accept."""
    return GATE_STYLES


def _discharge_roots(
    dpdn: DifferentialPullDownNetwork, style: str
) -> Tuple[str, ...]:
    """Nodes that are pulled low during the evaluation phase."""
    try:
        roots = _DISCHARGE_ROOTS[style]
    except KeyError:
        raise ValueError(
            f"unknown gate style {style!r}; expected one of {known_gate_styles()}"
        ) from None
    return roots(dpdn)


@dataclass(frozen=True)
class EventEnergyRecord:
    """Per-event discharge accounting (memoryless model)."""

    assignment: Tuple[Tuple[str, bool], ...]
    discharged_nodes: FrozenSet[str]
    discharged_capacitance: float
    energy: float

    def describe(self) -> str:
        inputs = ", ".join(f"{name}={int(value)}" for name, value in self.assignment)
        return (
            f"({inputs}): Ctot = {self.discharged_capacitance * 1e15:.2f} fF, "
            f"E = {self.energy * 1e15:.2f} fJ, nodes = {sorted(self.discharged_nodes)}"
        )


@dataclass(frozen=True)
class CycleEnergyRecord:
    """Per-cycle supply energy of the stateful model."""

    cycle: int
    assignment: Tuple[Tuple[str, bool], ...]
    recharged_internal_nodes: FrozenSet[str]
    recharged_capacitance: float
    energy: float


class EventEnergyModel:
    """Memoryless per-event discharge/energy model of one gate.

    ``wire_load`` back-annotates the routed capacitances of the gate's
    differential output pair as ``(c_true, c_false)`` [farad]: the wiring
    component of the X and Y module outputs is replaced by the pair's
    *matched* (lighter-rail) capacitance -- the part of the interconnect
    both rails share -- and the heavier rail's *imbalance excess* is
    charged only on the cycles whose output value selects it (see
    :meth:`swing_excess`).  Splitting the pair this way keeps the
    style-dependent baseline accounting (which discharges both outputs
    for SABL but only the conducting one for CVSL) data-independent, so
    the excess is charged exactly once for every style.  A matched pair
    has zero excess, so uniform annotation with
    ``technology.c_wire_output`` reproduces the layout-free model
    bit-identically; a mismatched pair makes the supply energy depend on
    the output *value*, which is exactly the routing-induced leakage the
    paper's fat-wire router eliminates.
    """

    def __init__(
        self,
        dpdn: DifferentialPullDownNetwork,
        technology: Optional[Technology] = None,
        style: str = "sabl",
        output_load: Optional[float] = None,
        capacitances: Optional[CapacitanceExtraction] = None,
        wire_load: Optional[Tuple[float, float]] = None,
    ) -> None:
        if style not in _DISCHARGE_ROOTS:
            raise ValueError(
                f"unknown gate style {style!r}; expected one of {known_gate_styles()}"
            )
        self.dpdn = dpdn
        self.technology = technology or generic_180nm()
        self.style = style
        self.output_load = (
            output_load if output_load is not None else self.technology.c_output_load
        )
        if wire_load is not None:
            c_true, c_false = (float(wire_load[0]), float(wire_load[1]))
            if c_true < 0.0 or c_false < 0.0:
                raise ValueError(f"wire load capacitances must be non-negative, got {wire_load}")
            wire_load = (c_true, c_false)
            if dpdn.function is None:
                raise ValueError(
                    "wire-load back-annotation needs the DPDN's function "
                    "annotation (the swinging rail follows the output value)"
                )
            if capacitances is not None:
                raise ValueError(
                    "pass either capacitances or wire_load, not both: an "
                    "explicit extraction would silently drop the rail "
                    "overrides the wire load implies"
                )
            matched = min(c_true, c_false)
            capacitances = extract_capacitances(
                dpdn,
                self.technology,
                wire_overrides={dpdn.x: matched, dpdn.y: matched},
            )
        self.wire_load = wire_load
        self.capacitances = capacitances or extract_capacitances(dpdn, self.technology)
        self._roots = _discharge_roots(dpdn, style)

    def swing_excess(self, value: bool) -> float:
        """Imbalance excess of the rail swinging for output ``value`` [farad].

        Zero without back-annotation and for matched pairs; for a
        mismatched pair the heavier rail costs its extra capacitance on
        the cycles whose output value selects it.
        """
        if self.wire_load is None:
            return 0.0
        c_true, c_false = self.wire_load
        matched = c_true if c_true <= c_false else c_false
        return (c_true if value else c_false) - matched

    # -- discharge sets ---------------------------------------------------------

    def discharged_nodes(self, assignment: Mapping[str, bool]) -> Set[str]:
        """DPDN nodes discharged during the evaluation phase of ``assignment``.

        With the SABL equaliser both module outputs (and everything
        conducting to X, Y or Z) fall; without it (CVSL style) only the
        nodes with a conducting path to the common node Z fall, while the
        non-conducting module output is held high.
        """
        connected = nodes_connected_to(self.dpdn, assignment, self._roots)
        connected.update(self._roots)
        return connected

    def discharged_capacitance(
        self, assignment: Mapping[str, bool], include_output_load: bool = True
    ) -> float:
        """Total capacitance discharged for one input event [farad].

        ``include_output_load`` adds the external load of the one gate
        output that swings (both gate styles discharge exactly one of the
        two precharged outputs per evaluation).  With back-annotated
        ``wire_load`` rails, the swinging rail's imbalance excess is
        charged as part of that external swing.
        """
        nodes = self.discharged_nodes(assignment)
        total = self.capacitances.total(nodes)
        if include_output_load:
            total += self.output_load
            if self.wire_load is not None:
                total += self.swing_excess(bool(self.dpdn.function.evaluate(assignment)))
        return total

    def event_energy(self, assignment: Mapping[str, bool]) -> float:
        """Supply energy attributable to one input event [joule]."""
        return self.technology.switching_energy(self.discharged_capacitance(assignment))

    # -- sweeps ------------------------------------------------------------------

    def sweep(self) -> List[EventEnergyRecord]:
        """Per-event records for every complementary input combination."""
        from ..network.analysis import complementary_assignments

        records: List[EventEnergyRecord] = []
        for assignment in complementary_assignments(self.dpdn.variables()):
            nodes = self.discharged_nodes(assignment)
            capacitance = self.discharged_capacitance(assignment)
            records.append(
                EventEnergyRecord(
                    assignment=tuple(sorted(assignment.items())),
                    discharged_nodes=frozenset(nodes),
                    discharged_capacitance=capacitance,
                    energy=self.technology.switching_energy(capacitance),
                )
            )
        return records

    def energy_by_event(self) -> Dict[Tuple[Tuple[str, bool], ...], float]:
        """Map of input event to per-event energy."""
        return {record.assignment: record.energy for record in self.sweep()}


class CycleEnergySimulator:
    """Stateful cycle-by-cycle energy model of one gate.

    Internal nodes carry their charge state from one cycle to the next:
    a node that floats keeps its charge (no recharge cost), a node that
    discharged and is reconnected during the next late-precharge /
    evaluation costs a recharge.  For a fully connected network the
    recharge set is every internal node every cycle and the energy is
    constant; for a genuine network it depends on the input *history*,
    which is the paper's memory effect.
    """

    def __init__(
        self,
        dpdn: DifferentialPullDownNetwork,
        technology: Optional[Technology] = None,
        style: str = "sabl",
        output_load: Optional[float] = None,
        wire_load: Optional[Tuple[float, float]] = None,
    ) -> None:
        self.model = EventEnergyModel(
            dpdn, technology, style, output_load, wire_load=wire_load
        )
        self.dpdn = dpdn
        self.technology = self.model.technology
        self._charged: Dict[str, bool] = {}
        self._cycle = 0
        self.reset()

    def reset(self, charged: bool = True) -> None:
        """Return every internal node to the given charge state, restart time."""
        self._charged = {node: charged for node in self.dpdn.internal_nodes()}
        self._cycle = 0

    @property
    def cycle(self) -> int:
        return self._cycle

    def internal_state(self) -> Dict[str, bool]:
        """Charge state of the internal nodes (True = holding charge)."""
        return dict(self._charged)

    def step(self, assignment: Mapping[str, bool]) -> CycleEnergyRecord:
        """Advance one precharge + evaluation cycle with the given input event.

        Returns the supply energy of the cycle: the always-present cost of
        recharging the module outputs, the swinging gate output and its
        load, plus the cost of recharging every internal node that lost
        its charge in an earlier evaluation and is connected again now.
        """
        connected = self.model.discharged_nodes(assignment)
        capacitances = self.model.capacitances

        recharged = {
            node
            for node in self.dpdn.internal_nodes()
            if node in connected and not self._charged[node]
        }
        recharged_capacitance = capacitances.total(recharged)

        # Whichever module outputs discharged are recharged every cycle:
        # with the SABL equaliser X and Y are both discharge roots and both
        # recharge; without it (CVSL) only the conducting output does.
        baseline_nodes = [
            node for node in (self.dpdn.x, self.dpdn.y) if node in connected
        ]
        baseline = capacitances.total(baseline_nodes) + self.model.output_load

        total_capacitance = baseline + recharged_capacitance
        if self.model.wire_load is not None:
            # The routed rail selected by the output value swings; a
            # mismatched pair charges the heavier rail's excess here.
            value = bool(self.dpdn.function.evaluate(assignment))
            total_capacitance += self.model.swing_excess(value)
        energy = self.technology.switching_energy(total_capacitance)

        # Evaluation: everything connected discharges; floating nodes keep state.
        for node in self.dpdn.internal_nodes():
            if node in connected:
                self._charged[node] = False
            # nodes left floating keep whatever charge they had

        record = CycleEnergyRecord(
            cycle=self._cycle,
            assignment=tuple(sorted(assignment.items())),
            recharged_internal_nodes=frozenset(recharged),
            recharged_capacitance=recharged_capacitance,
            energy=energy,
        )
        self._cycle += 1
        return record

    def run(self, events: Sequence[Mapping[str, bool]]) -> List[CycleEnergyRecord]:
        """Run a sequence of input events and return the per-cycle records."""
        return [self.step(event) for event in events]
