"""Differential maze routing over the placement grid.

Every circuit net is a *differential pair*: a true rail and a false rail
that must both travel from the driving gate to every sink.  The paper's
back-end insight is that the two rails must see the **same interconnect
capacitance** -- i.e. the same routed length -- or the gate's supply
energy depends on which rail swings.  Three routing modes, the closed
table :data:`ROUTERS`, reproduce the design space:

========== =============================================================
``fat``        the paper's method: the pair is routed as *one* fat wire
               (a single tree occupying two tracks) and split into rails
               afterwards -- identical length by construction, zero
               capacitance mismatch;
``diffpair``   the rails are routed separately but the false rail pays a
               *pairing penalty* for leaving the true rail's track, so it
               hugs the partner -- small residual mismatch where
               congestion forces a detour;
``unbalanced`` every rail is an independent net: all true rails are
               routed first, the false rails then thread through the
               congestion they left behind -- the conventional baseline
               the paper attacks, with systematic length mismatch.
========== =============================================================

Routing is congestion-aware Dijkstra on the sites grid (cost of entering
a site grows with the tracks already through it), sinks are connected
incrementally to the growing net tree, and all tie-breaking is by
coordinates -- the whole step is deterministic for a given placement.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..registry import lookup
from ..sabl.circuit import DifferentialCircuit
from .place import LayoutError, NetTerminals, Placement, Site, net_terminals

__all__ = [
    "RoutedNet",
    "RoutingResult",
    "ROUTERS",
    "RouterFn",
    "get_router",
    "known_routers",
    "route_circuit",
]

#: Cost of entering a site per track already routed through it.
_CONGESTION_WEIGHT = 0.5

#: Extra cost a ``diffpair`` false rail pays per site off its partner's track.
_PAIRING_PENALTY = 4.0


@dataclass(frozen=True)
class RoutedNet:
    """One routed differential pair.

    Lengths are in grid edges (multiply by the technology's
    ``route_pitch_um`` for microns); ``*_cells`` are the sites each
    rail's tree occupies.
    """

    net: str
    true_length: int
    false_length: int
    true_cells: FrozenSet[Site]
    false_cells: FrozenSet[Site]

    @property
    def length_mismatch(self) -> int:
        """Absolute rail length difference [grid edges]."""
        return abs(self.true_length - self.false_length)


@dataclass(frozen=True)
class RoutingResult:
    """All routed pairs of one circuit under one routing mode."""

    router: str
    grid: Tuple[int, int]
    nets: Mapping[str, RoutedNet]

    @property
    def total_length(self) -> int:
        """Total routed track length over both rails [grid edges]."""
        return sum(net.true_length + net.false_length for net in self.nets.values())

    @property
    def max_mismatch(self) -> int:
        """Largest rail length mismatch of any pair [grid edges]."""
        return max((net.length_mismatch for net in self.nets.values()), default=0)

    def describe(self) -> str:
        rows, cols = self.grid
        return (
            f"Routing ({self.router}): {len(self.nets)} pairs on "
            f"{rows}x{cols}, {self.total_length} edges of track, "
            f"max rail mismatch {self.max_mismatch} edges"
        )


#: A router backend: ``(circuit, placement) -> RoutingResult``.
RouterFn = Callable[[DifferentialCircuit, Placement], RoutingResult]


# ------------------------------------------------------------------ grid maze


class _GridMaze:
    """Congestion-aware incremental tree router on the sites grid."""

    def __init__(self, grid: Tuple[int, int]) -> None:
        self.rows, self.cols = grid
        self.usage: Dict[Site, int] = {}

    def _cost(self, site: Site, attraction: Optional[FrozenSet[Site]]) -> float:
        cost = 1.0 + _CONGESTION_WEIGHT * self.usage.get(site, 0)
        if attraction is not None and site not in attraction:
            cost += _PAIRING_PENALTY
        return cost

    def _neighbours(self, site: Site) -> List[Site]:
        row, col = site
        neighbours = []
        if row > 0:
            neighbours.append((row - 1, col))
        if row + 1 < self.rows:
            neighbours.append((row + 1, col))
        if col > 0:
            neighbours.append((row, col - 1))
        if col + 1 < self.cols:
            neighbours.append((row, col + 1))
        return neighbours

    def _path_to(
        self, tree: FrozenSet[Site], sink: Site, attraction: Optional[FrozenSet[Site]]
    ) -> List[Site]:
        """Cheapest path from the current tree to ``sink`` (Dijkstra)."""
        if sink in tree:
            return [sink]
        best: Dict[Site, float] = {site: 0.0 for site in tree}
        parent: Dict[Site, Optional[Site]] = {site: None for site in tree}
        frontier = [(0.0, site) for site in sorted(tree)]
        heapq.heapify(frontier)
        while frontier:
            cost, site = heapq.heappop(frontier)
            if cost > best.get(site, float("inf")):
                continue
            if site == sink:
                break
            for neighbour in self._neighbours(site):
                next_cost = cost + self._cost(neighbour, attraction)
                if next_cost < best.get(neighbour, float("inf")):
                    best[neighbour] = next_cost
                    parent[neighbour] = site
                    heapq.heappush(frontier, (next_cost, neighbour))
        if sink not in parent:
            raise LayoutError(f"no route to sink {sink} on {self.rows}x{self.cols}")
        path = [sink]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def route_tree(
        self,
        pins: Sequence[Site],
        tracks: int = 1,
        attraction: Optional[FrozenSet[Site]] = None,
    ) -> Tuple[FrozenSet[Site], int]:
        """Route one net tree over its ``pins``; commit ``tracks`` of usage.

        Returns ``(cells, length)`` with ``length`` in grid edges.  Sinks
        are connected to the growing tree farthest-first (deterministic),
        which keeps the trunk shared.  ``attraction`` discounts sites on
        a partner rail's track (the ``diffpair`` pairing penalty).
        """
        driver = pins[0]
        tree = {driver}
        length = 0
        remaining = sorted(
            set(pins[1:]),
            key=lambda s: (-(abs(s[0] - driver[0]) + abs(s[1] - driver[1])), s),
        )
        for sink in remaining:
            path = self._path_to(frozenset(tree), sink, attraction)
            new_cells = [site for site in path if site not in tree]
            length += len(new_cells)
            tree.update(new_cells)
        cells = frozenset(tree)
        for site in cells:
            self.usage[site] = self.usage.get(site, 0) + tracks
        return cells, length


def _ordered_terminals(circuit: DifferentialCircuit) -> List[NetTerminals]:
    return list(net_terminals(circuit).values())


def _pin_sites(terminal: NetTerminals, placement: Placement) -> List[Site]:
    return placement.pin_sites(terminal)


# ----------------------------------------------------------------- built-ins


def _route_fat(circuit: DifferentialCircuit, placement: Placement) -> RoutingResult:
    """The paper's router: one fat wire per pair, split after routing."""
    maze = _GridMaze(placement.grid)
    nets: Dict[str, RoutedNet] = {}
    for terminal in _ordered_terminals(circuit):
        cells, length = maze.route_tree(_pin_sites(terminal, placement), tracks=2)
        nets[terminal.net] = RoutedNet(
            net=terminal.net,
            true_length=length,
            false_length=length,
            true_cells=cells,
            false_cells=cells,
        )
    return RoutingResult(router="fat", grid=placement.grid, nets=nets)


def _route_diffpair(
    circuit: DifferentialCircuit, placement: Placement
) -> RoutingResult:
    """Separate rails with a pairing penalty pulling the false rail along."""
    maze = _GridMaze(placement.grid)
    nets: Dict[str, RoutedNet] = {}
    for terminal in _ordered_terminals(circuit):
        pins = _pin_sites(terminal, placement)
        true_cells, true_length = maze.route_tree(pins, tracks=1)
        false_cells, false_length = maze.route_tree(
            pins, tracks=1, attraction=true_cells
        )
        nets[terminal.net] = RoutedNet(
            net=terminal.net,
            true_length=true_length,
            false_length=false_length,
            true_cells=true_cells,
            false_cells=false_cells,
        )
    return RoutingResult(router="diffpair", grid=placement.grid, nets=nets)


def _route_unbalanced(
    circuit: DifferentialCircuit, placement: Placement
) -> RoutingResult:
    """Independent rails: all true rails first, false rails through the mess."""
    maze = _GridMaze(placement.grid)
    terminals = _ordered_terminals(circuit)
    true_routes: Dict[str, Tuple[FrozenSet[Site], int]] = {}
    for terminal in terminals:
        true_routes[terminal.net] = maze.route_tree(
            _pin_sites(terminal, placement), tracks=1
        )
    nets: Dict[str, RoutedNet] = {}
    for terminal in terminals:
        false_cells, false_length = maze.route_tree(
            _pin_sites(terminal, placement), tracks=1
        )
        true_cells, true_length = true_routes[terminal.net]
        nets[terminal.net] = RoutedNet(
            net=terminal.net,
            true_length=true_length,
            false_length=false_length,
            true_cells=true_cells,
            false_cells=false_cells,
        )
    return RoutingResult(router="unbalanced", grid=placement.grid, nets=nets)


#: Differential routing modes, keyed by short name.
ROUTERS: Dict[str, RouterFn] = {
    "fat": _route_fat,
    "diffpair": _route_diffpair,
    "unbalanced": _route_unbalanced,
}


def get_router(name: str) -> RouterFn:
    """The router backend named ``name``."""
    return lookup(ROUTERS, "router", name)


def known_routers() -> Tuple[str, ...]:
    """Sorted names of every routing mode."""
    return tuple(sorted(ROUTERS))


def route_circuit(
    circuit: DifferentialCircuit, placement: Placement, router: str = "fat"
) -> RoutingResult:
    """Route every net of ``circuit`` over ``placement`` with one mode."""
    return get_router(router)(circuit, placement)
