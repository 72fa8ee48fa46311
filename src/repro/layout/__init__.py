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
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..electrical.technology import Technology, generic_180nm
from ..sabl.circuit import DifferentialCircuit
from .parasitics import NetParasitics, extract_net_parasitics
from .place import (
    LayoutError,
    NetTerminals,
    Placement,
    Site,
    net_terminals,
    place_circuit,
)
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

    def to_record(self) -> Dict[str, Any]:
        """JSON-able record of the whole layout, exact to the last bit.

        Sites are flat indices ``row * cols + col`` and cell sets sorted
        lists of them; mappings are ``[key, ...]`` lists in their own
        order (a ``sort_keys`` dump must not reorder them); floats are
        kept as they are, which JSON round-trips exactly.  A ``fat``
        pair shares one cell set, stored once.
        :meth:`from_record` rebuilds a layout ``==`` to this one.
        """
        cols = self.placement.grid[1]

        def sites(mapping: Mapping[str, Site]) -> List[List[Any]]:
            return [[name, row * cols + col] for name, (row, col) in mapping.items()]

        def cells(cell_set) -> List[int]:
            return sorted(row * cols + col for row, col in cell_set)

        placement = self.placement
        parasitics = self.parasitics
        return {
            "grid": list(placement.grid),
            "placement": {
                "gates": sites(placement.gates),
                "input_pads": sites(placement.input_pads),
                "output_pads": sites(placement.output_pads),
                "hpwl": placement.hpwl,
                "initial_hpwl": placement.initial_hpwl,
                "seed": placement.seed,
            },
            "routing": {
                "router": self.routing.router,
                "nets": [
                    [
                        net.net,
                        net.true_length,
                        net.false_length,
                        cells(net.true_cells),
                        None
                        if net.false_cells is net.true_cells
                        else cells(net.false_cells),
                    ]
                    for net in self.routing.nets.values()
                ],
            },
            "parasitics": {
                "router": parasitics.router,
                "technology": parasitics.technology,
                "pairs": [
                    [net, *capacitance, *parasitics.pair_length_um[net]]
                    for net, capacitance in parasitics.pair_capacitance.items()
                ],
                "annotatable": list(parasitics.annotatable),
            },
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "CircuitLayout":
        """Rebuild the layout :meth:`to_record` wrote.

        Raises :class:`LayoutError` on a record of any other shape.
        """
        try:
            rows, cols = (int(size) for size in record["grid"])
            if rows < 1 or cols < 1:
                raise ValueError(f"grid {rows}x{cols}")

            coordinates = [divmod(index, cols) for index in range(rows * cols)]

            # A list index past the grid raises; a negative one must too.
            def site(index: int) -> Site:
                if index < 0:
                    raise ValueError(f"site {index} is off the {rows}x{cols} grid")
                return coordinates[index]

            def sites(pairs) -> Dict[str, Site]:
                return {str(name): site(index) for name, index in pairs}

            def cells(indices) -> frozenset:
                if indices and min(indices) < 0:
                    raise ValueError(f"negative site among {indices}")
                return frozenset(map(coordinates.__getitem__, indices))

            placed = record["placement"]
            placement = Placement(
                grid=(rows, cols),
                gates=sites(placed["gates"]),
                input_pads=sites(placed["input_pads"]),
                output_pads=sites(placed["output_pads"]),
                hpwl=float(placed["hpwl"]),
                initial_hpwl=float(placed["initial_hpwl"]),
                seed=int(placed["seed"]),
            )
            routed = record["routing"]
            nets: Dict[str, RoutedNet] = {}
            for entry in routed["nets"]:
                net, true_length, false_length, true_sites, false_sites = entry
                true_cells = cells(true_sites)
                if false_sites is not None:
                    false_cells = cells(false_sites)
                else:
                    false_cells = true_cells
                nets[str(net)] = RoutedNet(
                    net=str(net),
                    true_length=int(true_length),
                    false_length=int(false_length),
                    true_cells=true_cells,
                    false_cells=false_cells,
                )
            routing = RoutingResult(
                router=str(routed["router"]), grid=(rows, cols), nets=nets
            )
            extracted = record["parasitics"]
            capacitance: Dict[str, Tuple[float, float]] = {}
            lengths: Dict[str, Tuple[float, float]] = {}
            for net, c_true, c_false, l_true, l_false in extracted["pairs"]:
                capacitance[str(net)] = (float(c_true), float(c_false))
                lengths[str(net)] = (float(l_true), float(l_false))
            annotatable = tuple(str(net) for net in extracted["annotatable"])
            unknown = sorted(set(annotatable) - set(capacitance))
            if unknown:
                raise ValueError(f"annotatable nets {unknown} were never extracted")
            parasitics = NetParasitics(
                router=str(extracted["router"]),
                technology=str(extracted["technology"]),
                pair_capacitance=capacitance,
                pair_length_um=lengths,
                annotatable=annotatable,
            )
        except (LookupError, TypeError, ValueError) as error:
            raise LayoutError(f"malformed layout record: {error}") from error
        return cls(placement=placement, routing=routing, parasitics=parasitics)

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
    terminals = net_terminals(circuit)
    placement = place_circuit(
        circuit, grid=grid, seed=seed, anneal_moves=anneal_moves, terminals=terminals
    )
    routing = route_circuit(circuit, placement, router=router, terminals=terminals)
    outputs = tuple(circuit.net_names[net] for net in circuit.gate_output.tolist())
    parasitics = extract_net_parasitics(routing, technology, annotatable=outputs)
    return CircuitLayout(placement=placement, routing=routing, parasitics=parasitics)
