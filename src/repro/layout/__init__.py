"""repro.layout: the paper's back end -- place, route, extract, annotate.

The paper is a *complete* secure design flow: after synthesis and cell
design, its second half places and routes every differential gate so the
true/false output rails of each pair see the same interconnect
capacitance ("fat wire" routing).  This package reproduces that back
end for the mapped :class:`~repro.sabl.circuit.DifferentialCircuit`:

* :mod:`repro.layout.place` -- deterministic, seedable grid placement
  (greedy constructive + simulated-annealing HPWL refinement);
* :mod:`repro.layout.route` -- congestion-aware differential maze
  routing with a closed table of modes (:data:`ROUTERS`): ``fat`` (the
  paper's matched pair), ``diffpair`` (pairing penalty, small residual
  mismatch) and ``unbalanced`` (independent rails, the attacked
  baseline);
* :mod:`repro.layout.parasitics` -- length-based extraction into a
  :class:`NetParasitics` table whose :meth:`~NetParasitics.rail_loads`
  back-annotate the charge-based energy models.

:func:`layout_circuit` runs the three steps as one call; the flow
pipeline exposes it as the cached ``layout`` stage
(:class:`~repro.flow.config.LayoutConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..electrical.technology import Technology, generic_180nm
from ..sabl.circuit import DifferentialCircuit
from .parasitics import NetParasitics, extract_net_parasitics
from .place import LayoutError, NetTerminals, Placement, net_terminals, place_circuit
from .route import (
    ROUTERS,
    RoutedNet,
    RouterFn,
    RoutingResult,
    get_router,
    known_routers,
    route_circuit,
)

__all__ = [
    "LayoutError",
    "NetTerminals",
    "Placement",
    "net_terminals",
    "place_circuit",
    "RoutedNet",
    "RoutingResult",
    "ROUTERS",
    "RouterFn",
    "get_router",
    "known_routers",
    "route_circuit",
    "NetParasitics",
    "extract_net_parasitics",
    "CircuitLayout",
    "layout_circuit",
]


@dataclass(frozen=True)
class CircuitLayout:
    """The complete back-end result of one circuit: place, route, extract."""

    placement: Placement
    routing: RoutingResult
    parasitics: NetParasitics

    def describe(self) -> str:
        return "\n".join(
            [
                self.placement.describe(),
                self.routing.describe(),
                f"Extraction: {self.parasitics.total_wirelength_um():.1f} um of "
                f"track, max pair mismatch "
                f"{self.parasitics.max_mismatch() * 1e15:.3f} fF",
            ]
        )


def layout_circuit(
    circuit: DifferentialCircuit,
    technology: Optional[Technology] = None,
    router: str = "fat",
    grid: Optional[Tuple[int, int]] = None,
    seed: int = 2005,
    anneal_moves: int = 1500,
) -> CircuitLayout:
    """Place, route and extract ``circuit`` in one deterministic call.

    Gate-output nets (and only those) are marked back-annotatable; the
    pad-driven primary inputs are routed and reported but never load a
    gate in the energy models.
    """
    technology = technology or generic_180nm()
    placement = place_circuit(
        circuit, grid=grid, seed=seed, anneal_moves=anneal_moves
    )
    routing = route_circuit(circuit, placement, router=router)
    outputs = tuple(gate.output_net for gate in circuit.gates)
    parasitics = extract_net_parasitics(routing, technology, annotatable=outputs)
    return CircuitLayout(placement=placement, routing=routing, parasitics=parasitics)
