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
The maze works on flat site indices ``row * cols + col``; row-major
indices order exactly like ``(row, col)`` tuples, so every tie breaks as
it would on coordinates, and sites become ``(row, col)`` again only in
each :class:`RoutedNet`.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

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


#: A router backend: ``(net_terminals(circuit), placement) -> RoutingResult``.
RouterFn = Callable[[Mapping[str, NetTerminals], Placement], RoutingResult]


# ------------------------------------------------------------------ grid maze


class _GridMaze:
    """Congestion-aware incremental tree router on the sites grid.

    Sites are flat indices ``row * cols + col``.  Each site's neighbours
    are built once, in up/down/left/right order, and ``step[m]`` holds
    the cost of entering site ``m``, ``1.0 + _CONGESTION_WEIGHT *
    usage[m]`` (the same double the expression gives per visit).  The
    heap orders ``(cost, site)``; row-major indices sort exactly like
    ``(row, col)`` tuples, so ties -- and with them every path -- break
    as they would on coordinates.
    """

    def __init__(self, grid: Tuple[int, int]) -> None:
        self.rows, self.cols = rows, cols = grid
        self.usage = [0] * (rows * cols)
        self.step = [1.0] * (rows * cols)
        neighbours = []
        for row in range(rows):
            for col in range(cols):
                site = row * cols + col
                around = []
                if row > 0:
                    around.append(site - cols)
                if row + 1 < rows:
                    around.append(site + cols)
                if col > 0:
                    around.append(site - 1)
                if col + 1 < cols:
                    around.append(site + 1)
                neighbours.append(tuple(around))
        self.neighbours: Tuple[Tuple[int, ...], ...] = tuple(neighbours)

    def sites(self, cells: AbstractSet[int]) -> FrozenSet[Site]:
        """``(row, col)`` coordinates of flat ``cells``."""
        return frozenset(divmod(cell, self.cols) for cell in cells)

    def _path_to(
        self, tree: AbstractSet[int], sink: int, step: Sequence[float]
    ) -> List[int]:
        """Cheapest path from the current tree to ``sink`` (Dijkstra)."""
        if sink in tree:
            return [sink]
        neighbours = self.neighbours
        best = [math.inf] * len(neighbours)
        parent = [-2] * len(neighbours)  # -2: unreached, -1: a tree site
        for site in tree:
            best[site] = 0.0
            parent[site] = -1
        frontier = [(0.0, site) for site in sorted(tree)]  # sorted: a heap
        heappush, heappop = heapq.heappush, heapq.heappop
        while frontier:
            cost, site = heappop(frontier)
            if cost > best[site]:
                continue
            if site == sink:
                break
            for neighbour in neighbours[site]:
                next_cost = cost + step[neighbour]
                if next_cost < best[neighbour]:
                    best[neighbour] = next_cost
                    parent[neighbour] = site
                    heappush(frontier, (next_cost, neighbour))
        if parent[sink] == -2:
            raise LayoutError(
                f"no route to sink {divmod(sink, self.cols)} on {self.rows}x{self.cols}"
            )
        path = [sink]
        while parent[path[-1]] >= 0:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def route_tree(
        self,
        pins: Sequence[Site],
        tracks: int = 1,
        attraction: Optional[AbstractSet[int]] = None,
    ) -> Tuple[FrozenSet[int], int]:
        """Route one net tree over its ``pins``; commit ``tracks`` of usage.

        Returns ``(cells, length)``: the tree's flat site indices and its
        length in grid edges.  Sinks are connected to the growing tree
        farthest-first (deterministic), which keeps the trunk shared.
        ``attraction`` holds a partner rail's cells; every site off it
        costs ``_PAIRING_PENALTY`` more (the ``diffpair`` pull).
        """
        cols = self.cols
        step = self.step
        if attraction is not None:
            step = [cost + _PAIRING_PENALTY for cost in step]
            for site in attraction:
                step[site] = self.step[site]
        driver_row, driver_col = pins[0]
        driver = driver_row * cols + driver_col
        tree = {driver}
        length = 0
        remaining = sorted(
            {row * cols + col for row, col in pins[1:]},
            key=lambda s: (
                -(abs(s // cols - driver_row) + abs(s % cols - driver_col)),
                s,
            ),
        )
        for sink in remaining:
            path = self._path_to(tree, sink, step)
            new_cells = [site for site in path if site not in tree]
            length += len(new_cells)
            tree.update(new_cells)
        usage = self.usage
        for site in tree:
            usage[site] += tracks
            self.step[site] = 1.0 + _CONGESTION_WEIGHT * usage[site]
        return frozenset(tree), length


# ----------------------------------------------------------------- built-ins


def _route_fat(
    terminals: Mapping[str, NetTerminals], placement: Placement
) -> RoutingResult:
    """The paper's router: one fat wire per pair, split after routing."""
    maze = _GridMaze(placement.grid)
    nets: Dict[str, RoutedNet] = {}
    for terminal in terminals.values():
        cells, length = maze.route_tree(placement.pin_sites(terminal), tracks=2)
        sites = maze.sites(cells)
        nets[terminal.net] = RoutedNet(
            net=terminal.net,
            true_length=length,
            false_length=length,
            true_cells=sites,
            false_cells=sites,
        )
    return RoutingResult(router="fat", grid=placement.grid, nets=nets)


def _route_diffpair(
    terminals: Mapping[str, NetTerminals], placement: Placement
) -> RoutingResult:
    """Separate rails with a pairing penalty pulling the false rail along."""
    maze = _GridMaze(placement.grid)
    nets: Dict[str, RoutedNet] = {}
    for terminal in terminals.values():
        pins = placement.pin_sites(terminal)
        true_cells, true_length = maze.route_tree(pins, tracks=1)
        false_cells, false_length = maze.route_tree(
            pins, tracks=1, attraction=true_cells
        )
        nets[terminal.net] = RoutedNet(
            net=terminal.net,
            true_length=true_length,
            false_length=false_length,
            true_cells=maze.sites(true_cells),
            false_cells=maze.sites(false_cells),
        )
    return RoutingResult(router="diffpair", grid=placement.grid, nets=nets)


def _route_unbalanced(
    terminals: Mapping[str, NetTerminals], placement: Placement
) -> RoutingResult:
    """Independent rails: all true rails first, false rails through the mess."""
    maze = _GridMaze(placement.grid)
    true_routes: Dict[str, Tuple[FrozenSet[int], int]] = {}
    for terminal in terminals.values():
        true_routes[terminal.net] = maze.route_tree(
            placement.pin_sites(terminal), tracks=1
        )
    nets: Dict[str, RoutedNet] = {}
    for terminal in terminals.values():
        false_cells, false_length = maze.route_tree(
            placement.pin_sites(terminal), tracks=1
        )
        true_cells, true_length = true_routes[terminal.net]
        nets[terminal.net] = RoutedNet(
            net=terminal.net,
            true_length=true_length,
            false_length=false_length,
            true_cells=maze.sites(true_cells),
            false_cells=maze.sites(false_cells),
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
    circuit: DifferentialCircuit,
    placement: Placement,
    router: str = "fat",
    terminals: Optional[Mapping[str, NetTerminals]] = None,
) -> RoutingResult:
    """Route every net of ``circuit`` over ``placement`` with one mode.

    ``terminals`` is ``circuit``'s :func:`net_terminals`, when the caller
    has it already (:func:`repro.layout.layout_circuit` builds it once
    for placement and routing).
    """
    if terminals is None:
        terminals = net_terminals(circuit)
    return get_router(router)(terminals, placement)
