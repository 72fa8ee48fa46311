"""Deterministic grid placement of differential circuits.

The back end starts by assigning every gate of a
:class:`~repro.sabl.circuit.DifferentialCircuit` to a site on a small
rows x columns placement grid.  Primary inputs enter through *pads*
evenly spaced along the west edge, circuit outputs leave through pads on
the east edge, so every net -- including the attacked S-box outputs --
has real geometry to route over.

Placement is the classic two-step recipe:

1. **greedy constructive** -- gates are placed in topological (netlist)
   order, each at the free site nearest to the centroid of its already
   placed fan-in, which gives a sane initial wirelength.  The nearest
   site is a masked ``argmin`` of the Manhattan distance over the whole
   grid (occupied sites are ``inf``): the first minimum in row-major
   order, i.e. ties go to the smallest ``(row, col)``;
2. **simulated-annealing refinement** -- seeded random move/swap
   proposals accepted by half-perimeter-wirelength (HPWL) delta under a
   geometric temperature schedule.  Each net's pad bounding box and gate
   pins are fixed up front, so a touched net's HPWL is a scan of its
   gates' current sites; HPWLs are integer-valued, so every sum is exact
   and independent of order.

Both steps are fully deterministic for a fixed seed (the annealer draws
from ``numpy.random.default_rng(seed)``), which is what lets layout
configs participate in content-addressed store keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..sabl.circuit import DifferentialCircuit

__all__ = [
    "LayoutError",
    "NetTerminals",
    "Placement",
    "net_terminals",
    "place_circuit",
    "terminal_pin_sites",
]

#: Site coordinates: ``(row, column)`` on the placement grid.
Site = Tuple[int, int]

#: Target site occupancy of the automatic grid (gates per site).
_TARGET_UTILIZATION = 0.65

#: Annealing schedule: start/end temperatures in units of HPWL sites.
_ANNEAL_T_START = 3.0
_ANNEAL_T_END = 0.05


class LayoutError(ValueError):
    """A placement or routing step failed (bad grid, unroutable pin, ...)."""


@dataclass(frozen=True)
class NetTerminals:
    """Structural pins of one circuit net.

    ``driver`` is the driving gate's name, or the primary-input name for
    pad-driven nets (``is_input``); ``sinks`` are the gates consuming the
    net; ``output_names`` are the circuit outputs exposed on the net
    (each gets an east-edge pad).
    """

    net: str
    driver: str
    is_input: bool
    sinks: Tuple[str, ...]
    output_names: Tuple[str, ...]


def net_terminals(circuit: DifferentialCircuit) -> Dict[str, NetTerminals]:
    """Per-net pin structure of ``circuit``, in net creation order.

    Read from the circuit's array netlist (``net_names``, ``gate_names``,
    ``gate_inputs``, ``gate_output``) alone; no per-gate object is built.
    """
    names = circuit.net_names
    gate_names = circuit.gate_names
    sinks: List[List[str]] = [[] for _ in names]
    for gate, row in zip(gate_names, circuit.gate_inputs.tolist()):
        for net in row:
            if net >= 0 and gate not in sinks[net]:
                sinks[net].append(gate)
    outputs: Dict[str, List[str]] = {net: [] for net in names}
    for name, net in circuit.outputs.items():
        outputs[net].append(name)
    drivers: Dict[str, Tuple[str, bool]] = {
        net: (net, True) for net in circuit.primary_inputs
    }
    for gate, net in zip(gate_names, circuit.gate_output.tolist()):
        drivers[names[net]] = (gate, False)
    return {
        net: NetTerminals(
            net=net,
            driver=drivers[net][0],
            is_input=drivers[net][1],
            sinks=tuple(sinks[index]),
            output_names=tuple(outputs[net]),
        )
        for index, net in enumerate(names)
    }


def terminal_pin_sites(
    terminal: NetTerminals,
    gates: Mapping[str, Site],
    input_pads: Mapping[str, Site],
    output_pads: Mapping[str, Site],
) -> List[Site]:
    """Pin sites of one net: driver (gate or pad), sinks, output pads.

    The single geometry rule behind every pin: the router reads it
    through :meth:`Placement.pin_sites`, and :func:`_net_bounds` splits
    it into the fixed pad bounds and the gate pins from which the placer
    computes each net's HPWL -- all of them must agree on where a net's
    pins are.
    """
    sites = [
        input_pads[terminal.driver] if terminal.is_input else gates[terminal.driver]
    ]
    sites.extend(gates[sink] for sink in terminal.sinks)
    sites.extend(output_pads[name] for name in terminal.output_names)
    return sites


@dataclass(frozen=True)
class Placement:
    """A legal placement of one circuit on a sites grid."""

    grid: Tuple[int, int]
    gates: Mapping[str, Site]
    input_pads: Mapping[str, Site]
    output_pads: Mapping[str, Site]
    hpwl: float
    initial_hpwl: float
    seed: int

    def pin_sites(self, terminal: NetTerminals) -> List[Site]:
        """Pin sites of one net's terminals under this placement."""
        return terminal_pin_sites(
            terminal, self.gates, self.input_pads, self.output_pads
        )

    def describe(self) -> str:
        rows, cols = self.grid
        return (
            f"Placement: {len(self.gates)} gates on {rows}x{cols} sites, "
            f"HPWL {self.hpwl:.0f} (greedy {self.initial_hpwl:.0f}), "
            f"seed {self.seed}"
        )


def _edge_pads(names: Sequence[str], rows: int, column: int) -> Dict[str, Site]:
    """Pads for ``names`` evenly spaced along one grid column."""
    count = len(names)
    if count == 0:
        return {}
    return {
        name: (min(rows - 1, (index * rows + rows // 2) // count), column)
        for index, name in enumerate(names)
    }


#: One net's HPWL inputs: its pad bounding box ``(row_min, row_max,
#: col_min, col_max)`` (``None`` without pads) and its gate pins (gate
#: indices, driver first when a gate drives it).
_NetBounds = Tuple[Optional[Tuple[int, int, int, int]], Tuple[int, ...]]


def _net_bounds(
    terminal: NetTerminals,
    gate_index: Mapping[str, int],
    input_pads: Mapping[str, Site],
    output_pads: Mapping[str, Site],
) -> _NetBounds:
    """Split one net's :func:`terminal_pin_sites` into pads and gate pins."""
    if terminal.is_input:
        pads, gates = [input_pads[terminal.driver]], []
    else:
        pads, gates = [], [gate_index[terminal.driver]]
    gates.extend(gate_index[sink] for sink in terminal.sinks)
    pads.extend(output_pads[name] for name in terminal.output_names)
    if not pads:
        return None, tuple(gates)
    rows = [site[0] for site in pads]
    cols = [site[1] for site in pads]
    return (min(rows), max(rows), min(cols), max(cols)), tuple(gates)


def _net_hpwl(bounds: _NetBounds, gate_row: List[int], gate_col: List[int]) -> float:
    """HPWL of one net with its gates at ``(gate_row[g], gate_col[g])``."""
    box, gates = bounds
    if box is None:
        first = gates[0]
        row_lo = row_hi = gate_row[first]
        col_lo = col_hi = gate_col[first]
    else:
        row_lo, row_hi, col_lo, col_hi = box
    for gate in gates:
        row = gate_row[gate]
        if row < row_lo:
            row_lo = row
        elif row > row_hi:
            row_hi = row
        col = gate_col[gate]
        if col < col_lo:
            col_lo = col
        elif col > col_hi:
            col_hi = col
    return float(row_hi - row_lo + col_hi - col_lo)


def place_circuit(
    circuit: DifferentialCircuit,
    grid: Optional[Tuple[int, int]] = None,
    seed: int = 2005,
    anneal_moves: int = 1500,
    terminals: Optional[Mapping[str, NetTerminals]] = None,
) -> Placement:
    """Place ``circuit`` on a grid of sites (greedy + annealing refinement).

    ``grid`` fixes the ``(rows, columns)`` site array (it must hold every
    gate); ``None`` picks a square grid targeting ~65 % utilization.
    ``anneal_moves`` move/swap proposals refine the greedy placement
    (``0`` keeps the constructive result; a negative count is a
    :class:`LayoutError`).  Deterministic for a fixed ``seed``.
    ``terminals`` is ``circuit``'s :func:`net_terminals`, when the caller
    has it already.
    """
    gate_names = circuit.gate_names
    if not gate_names:
        raise LayoutError("cannot place a circuit without gates")
    if anneal_moves < 0:
        raise LayoutError(f"anneal_moves must be non-negative, got {anneal_moves}")
    if grid is None:
        side = max(2, math.ceil(math.sqrt(len(gate_names) / _TARGET_UTILIZATION)))
        grid = (side, side)
    rows, cols = int(grid[0]), int(grid[1])
    if rows < 1 or cols < 1:
        raise LayoutError(f"grid must have positive dimensions, got {grid}")
    if rows * cols < len(gate_names):
        raise LayoutError(
            f"grid {rows}x{cols} has {rows * cols} sites for "
            f"{len(gate_names)} gates"
        )

    if terminals is None:
        terminals = net_terminals(circuit)
    input_pads = _edge_pads(circuit.primary_inputs, rows, column=0)
    output_pads = _edge_pads(sorted(circuit.outputs), rows, column=cols - 1)

    # -- greedy constructive pass ------------------------------------------
    gates: Dict[str, Site] = {}
    site_rows, site_cols = np.divmod(np.arange(rows * cols, dtype=np.float64), cols)
    occupied = np.zeros(rows * cols, dtype=bool)
    net_names = circuit.net_names
    for name, row in zip(gate_names, circuit.gate_inputs.tolist()):
        anchors: List[Site] = []
        for net in row:
            if net < 0:
                continue
            terminal = terminals[net_names[net]]
            if terminal.is_input:
                anchors.append(input_pads[terminal.driver])
            elif terminal.driver in gates:
                anchors.append(gates[terminal.driver])
        if anchors:
            target = (
                sum(site[0] for site in anchors) / len(anchors),
                sum(site[1] for site in anchors) / len(anchors),
            )
        else:
            target = ((rows - 1) / 2.0, (cols - 1) / 2.0)
        distance = np.abs(site_rows - target[0]) + np.abs(site_cols - target[1])
        distance[occupied] = np.inf
        index = int(distance.argmin())
        occupied[index] = True
        gates[name] = divmod(index, cols)

    gate_index = {name: index for index, name in enumerate(gate_names)}
    gate_row = [gates[name][0] for name in gate_names]
    gate_col = [gates[name][1] for name in gate_names]
    bounds = [
        _net_bounds(terminal, gate_index, input_pads, output_pads)
        for terminal in terminals.values()
    ]
    net_cost = [_net_hpwl(net, gate_row, gate_col) for net in bounds]
    initial_hpwl = sum(net_cost)

    # -- simulated-annealing refinement ------------------------------------
    gate_nets: List[List[int]] = [[] for _ in gate_names]
    for net, (_, pins) in enumerate(bounds):
        for gate in set(pins):
            gate_nets[gate].append(net)

    site_gate = [-1] * (rows * cols)
    for gate, (row, col) in enumerate(zip(gate_row, gate_col)):
        site_gate[row * cols + col] = gate
    rng = np.random.default_rng(seed)
    if anneal_moves > 0:
        cooling = (_ANNEAL_T_END / _ANNEAL_T_START) ** (1.0 / anneal_moves)
        temperature = _ANNEAL_T_START
        for _ in range(anneal_moves):
            gate = int(rng.integers(0, len(gate_names)))
            row, col = int(rng.integers(0, rows)), int(rng.integers(0, cols))
            source_row, source_col = gate_row[gate], gate_col[gate]
            if row == source_row and col == source_col:
                temperature *= cooling
                continue
            partner = site_gate[row * cols + col]
            touched = set(gate_nets[gate])
            if partner >= 0:
                touched.update(gate_nets[partner])
                gate_row[partner], gate_col[partner] = source_row, source_col
            gate_row[gate], gate_col[gate] = row, col
            before = 0.0
            after = 0.0
            proposed_cost = []
            for net in touched:
                cost = _net_hpwl(bounds[net], gate_row, gate_col)
                proposed_cost.append((net, cost))
                before += net_cost[net]
                after += cost
            delta = after - before
            if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
                # accept: update caches
                site_gate[source_row * cols + source_col] = partner
                site_gate[row * cols + col] = gate
                for net, cost in proposed_cost:
                    net_cost[net] = cost
            else:
                # reject: restore
                gate_row[gate], gate_col[gate] = source_row, source_col
                if partner >= 0:
                    gate_row[partner], gate_col[partner] = row, col
            temperature *= cooling

    return Placement(
        grid=(rows, cols),
        gates={
            name: (gate_row[index], gate_col[index])
            for index, name in enumerate(gate_names)
        },
        input_pads=dict(input_pads),
        output_pads=dict(output_pads),
        hpwl=float(sum(net_cost)),
        initial_hpwl=float(initial_hpwl),
        seed=seed,
    )
