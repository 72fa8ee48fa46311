"""Cycle-accurate power simulation of differential circuits.

Each clock cycle the circuit precharges and then evaluates one primary
input vector; every gate consumes the energy its charge model predicts
for the input event it sees.  The simulator keeps the per-gate charge
state across cycles, so circuits built from *genuine* networks exhibit
the history-dependent memory effect the paper describes, while circuits
of fully connected gates draw the same energy every cycle (up to the
data-independent baseline).

The output of :meth:`CircuitPowerSimulator.run` is the per-cycle energy
series -- the "power trace" that the :mod:`repro.power` substrate feeds
to its differential power analysis.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..electrical.capacitance import device_terms
from ..electrical.energy import CycleEnergySimulator, EventEnergyModel
from ..electrical.technology import Technology, generic_180nm
from ..obs import get_observer
from ..network.netlist import DifferentialPullDownNetwork
from .circuit import DifferentialCircuit

__all__ = [
    "CyclePowerRecord",
    "CircuitPowerSimulator",
    "GateTable",
    "RoutedGroup",
    "RoutedTables",
    "build_template_tables",
    "build_gate_tables",
    "BatchedCircuitEnergyModel",
]


@dataclass(frozen=True)
class CyclePowerRecord:
    """Energy breakdown of one simulated cycle."""

    cycle: int
    inputs: Dict[str, bool]
    outputs: Dict[str, bool]
    total_energy: float  # math.fsum of the gate energies
    gate_energy: Dict[str, float]


class CircuitPowerSimulator:
    """Stateful per-cycle energy simulation of a :class:`DifferentialCircuit`.

    ``net_loads`` back-annotates routed interconnect: a mapping of gate
    output *net* name to the ``(c_true, c_false)`` rail capacitances of
    its differential pair [farad] (see
    :meth:`repro.layout.NetParasitics.rail_loads`).  Gates whose output
    net is absent keep the layout-free ``c_wire_output`` constant;
    ``None`` keeps today's streams byte-identical.
    """

    def __init__(
        self,
        circuit: DifferentialCircuit,
        technology: Optional[Technology] = None,
        gate_style: str = "sabl",
        output_load: Optional[float] = None,
        net_loads: Optional[Mapping[str, Tuple[float, float]]] = None,
    ) -> None:
        self.circuit = circuit
        self.technology = technology or generic_180nm()
        self.gate_style = gate_style
        net_loads = net_loads or {}
        self._simulators: Dict[str, CycleEnergySimulator] = {
            gate.name: CycleEnergySimulator(
                gate.dpdn,
                self.technology,
                style=gate_style,
                output_load=output_load,
                wire_load=net_loads.get(gate.output_net),
            )
            for gate in circuit.gates
        }
        self._cycle = 0

    def reset(self) -> None:
        """Reset every gate's internal charge state and the cycle counter."""
        for simulator in self._simulators.values():
            simulator.reset()
        self._cycle = 0

    @property
    def cycle(self) -> int:
        return self._cycle

    def step(self, inputs: Mapping[str, bool]) -> CyclePowerRecord:
        """Apply one primary input vector for one precharge/evaluate cycle."""
        net_values = self.circuit.evaluate_nets(inputs)
        gate_energy: Dict[str, float] = {}
        for gate in self.circuit.gates:
            event = gate.input_event(net_values)
            gate_energy[gate.name] = self._simulators[gate.name].step(event).energy
        outputs = {name: net_values[net] for name, net in self.circuit.outputs.items()}
        record = CyclePowerRecord(
            cycle=self._cycle,
            inputs={name: bool(inputs[name]) for name in self.circuit.primary_inputs},
            outputs=outputs,
            total_energy=math.fsum(gate_energy.values()),
            gate_energy=gate_energy,
        )
        self._cycle += 1
        return record

    def run(self, vectors: Sequence[Mapping[str, bool]]) -> List[CyclePowerRecord]:
        """Simulate a sequence of input vectors."""
        return [self.step(vector) for vector in vectors]

    def energies(self, vectors: Sequence[Mapping[str, bool]]) -> List[float]:
        """Convenience: just the per-cycle total energies."""
        return [record.total_energy for record in self.run(vectors)]


# ----------------------------------------------------------------- batched model


@dataclass
class GateTable:
    """Event tables of one gate template (or of one routed gate).

    A gate with ``k`` inputs sees one of ``2**k`` complementary input
    events per cycle.  For every event index (little-endian over the
    DPDN's sorted variables) the table stores which internal nodes the
    event connects to the discharge roots and the data-independent
    baseline capacitance (recharged module outputs plus output load), so
    a whole campaign reduces to NumPy gathers over these tables.

    Tables hold no charge state and their arrays are read-only: every
    unrouted gate of a template uses its template's table, and a routed
    gate's table shares the template's arrays except its own
    ``baseline`` and ``extra`` (see :func:`build_template_tables`).  One
    set can be shared between any number of energy models (the compiled
    kernel of :mod:`repro.kernel` and this module's reference model).
    """

    variables: Tuple[str, ...]
    internal_caps: np.ndarray  # (n_internal,) capacitance per internal node
    connected: np.ndarray  # (2**k, n_internal) bool
    baseline: np.ndarray  # (2**k,) baseline capacitance per event
    #: (2**k,) per-event internal capacitance ``connected @ internal_caps``,
    #: precomputed so the hot path is a gather instead of a matmul.
    cap_dot: np.ndarray = None  # type: ignore[assignment]
    #: (2**k,) back-annotated swinging-rail imbalance excess per event,
    #: or ``None`` for the layout-free model (legacy float path).
    extra: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.cap_dot is None:
            self.cap_dot = self.connected @ self.internal_caps
        arrays = (self.internal_caps, self.connected, self.baseline, self.cap_dot, self.extra)
        for array in arrays:
            if array is not None:
                array.setflags(write=False)

    def event_index(self, event: Mapping[str, bool]) -> int:
        index = 0
        for bit, variable in enumerate(self.variables):
            if event[variable]:
                index |= 1 << bit
        return index


def _baseline(model: EventEnergyModel, recharged) -> np.ndarray:
    """Recharged module outputs plus output load, per event."""
    return np.array(
        [model.capacitances.total(nodes) + model.output_load for nodes in recharged],
        dtype=float,
    )


def _walk_events(dpdn: DifferentialPullDownNetwork, model: EventEnergyModel):
    """Walk every input event of the network ``dpdn`` once.

    Returns ``(table, recharged, values)``: the network's layout-free
    table, and per event the module outputs (X, Y) it discharges and the
    output value (none without a function, which a routed gate must
    have), from which a routed gate's ``baseline`` and ``extra`` are
    built.
    """
    variables = tuple(dpdn.variables())
    internal = dpdn.internal_nodes()
    caps = np.array(
        [model.capacitances.capacitance(node) for node in internal], dtype=float
    )
    event_count = 1 << len(variables)
    connected = np.zeros((event_count, len(internal)), dtype=bool)
    recharged = []
    values = []
    for index in range(event_count):
        assignment = {
            variable: bool((index >> bit) & 1) for bit, variable in enumerate(variables)
        }
        nodes = model.discharged_nodes(assignment)
        connected[index] = [node in nodes for node in internal]
        recharged.append(tuple(node for node in (dpdn.x, dpdn.y) if node in nodes))
        if dpdn.function is not None:
            values.append(bool(dpdn.function.evaluate(assignment)))
    table = GateTable(
        variables=variables,
        internal_caps=caps,
        connected=connected,
        baseline=_baseline(model, recharged),
    )
    return table, recharged, values


def build_template_tables(
    circuit: DifferentialCircuit,
    technology: Optional[Technology] = None,
    gate_style: str = "sabl",
    output_load: Optional[float] = None,
    net_loads: Optional[Mapping[str, Tuple[float, float]]] = None,
) -> Tuple[Tuple[GateTable, ...], RoutedTables]:
    """Build the event tables of ``circuit``: ``(tables, routed)``.

    ``tables[t]`` is the table of ``circuit.templates[t]``.  The
    per-event walk (which internal nodes each event connects, which
    module outputs discharge, the output value) runs once per distinct
    network structure, so templates of one structure share a table.
    ``routed`` (a :class:`RoutedTables`) maps the row of every gate whose
    output net has a routed wire load in ``net_loads`` to that gate's
    own table: its template's read-only ``connected``, ``internal_caps``
    and ``cap_dot`` with its own ``baseline`` and ``extra``.  Those are
    built per template, on arrays over the template's routed gates
    (:func:`_routed_rows`), with the scalar sums of a per-gate
    :class:`EventEnergyModel` and bit-identical to them, and kept as
    those arrays: no per-gate object is built unless a gate's table is
    looked up.  Every other gate uses its template's table.
    """
    technology = technology or generic_180nm()
    walks: Dict[tuple, tuple] = {}
    template_walks = []
    for template in circuit.templates:
        dpdn = template.network
        structure = (dpdn.x, dpdn.y, dpdn.z, dpdn.transistors, dpdn.function)
        walk = walks.get(structure)
        if walk is None:
            model = EventEnergyModel(
                dpdn, technology, style=gate_style, output_load=output_load
            )
            walk = walks[structure] = _walk_events(dpdn, model)
        template_walks.append(walk)
    tables = tuple(walk[0] for walk in template_walks)
    routed = RoutedTables(tables, ())
    if net_loads:
        names = circuit.net_names
        rows, loads = [], []
        for row, net in enumerate(circuit.gate_output.tolist()):
            wire_load = net_loads.get(names[net])
            if wire_load is not None:
                rows.append(row)
                loads.append(wire_load)
        if rows:
            routed = RoutedTables(
                tables,
                _routed_groups(
                    circuit, template_walks, rows, loads, technology, output_load
                ),
            )
    return tables, routed


def _routed_groups(circuit, template_walks, rows, loads, technology, output_load):
    """The :class:`RoutedGroup` of each template among the routed gates
    ``rows`` (wire loads ``loads``), in template order."""
    rows = np.array(rows, dtype=np.intp)
    pairs = np.array([(load[0], load[1]) for load in loads], dtype=float)
    template_of = circuit.gate_template[rows]
    # The checks of EventEnergyModel(wire_load=...), first failing gate first.
    unannotated = np.array(
        [template.network.function is None for template in circuit.templates]
    )[template_of]
    negative = ~(pairs >= 0.0).all(axis=1)
    failed = np.flatnonzero(negative | unannotated)
    if failed.size:
        first = int(failed[0])
        if negative[first]:
            raise ValueError(
                f"wire load capacitances must be non-negative, got {loads[first]}"
            )
        raise ValueError(
            "wire-load back-annotation needs the DPDN's function "
            "annotation (the swinging rail follows the output value)"
        )
    groups = []
    for template_id in sorted(set(template_of.tolist())):
        members = np.flatnonzero(template_of == template_id)
        _, recharged, values = template_walks[template_id]
        baseline, extra = _routed_rows(
            circuit.templates[template_id].network,
            technology,
            output_load,
            recharged,
            values,
            pairs[members],
        )
        groups.append(RoutedGroup(template_id, rows[members], baseline, extra))
    return tuple(groups)


def _routed_rows(dpdn, technology, output_load, recharged, values, pairs):
    """``(baseline, extra)``, one row per routed gate of one network.

    ``pairs`` holds each gate's ``(c_true, c_false)`` rail loads.  Every
    entry is the value a per-gate
    :class:`~repro.electrical.energy.EventEnergyModel` with that wire
    load computes, by the same IEEE operations in the same order, only
    on arrays: X and Y are the matched (lighter) rail plus the
    extraction's device terms (:func:`device_terms`), an event's
    baseline sums its discharged module outputs from zero and adds the
    output load, and its extra is the rail its output value swings minus
    the matched one.
    """
    c_true, c_false = pairs[:, 0], pairs[:, 1]
    matched = np.where(c_false < c_true, c_false, c_true)
    terms = device_terms(dpdn, technology)
    rails = {}
    for node in (dpdn.x, dpdn.y):
        total = matched
        for term in terms[node]:
            total = total + term
        rails[node] = total
    load = technology.c_output_load if output_load is None else output_load
    baseline = np.empty((pairs.shape[0], len(recharged)), dtype=float)
    columns: Dict[tuple, np.ndarray] = {}
    for event, nodes in enumerate(recharged):
        column = columns.get(nodes)
        if column is None:
            total = 0
            for node in nodes:
                total = total + rails[node]
            column = columns[nodes] = total + load
        baseline[:, event] = column
    swings = np.array(values, dtype=bool)
    extra = np.where(swings, c_true[:, None], c_false[:, None]) - matched[:, None]
    return baseline, extra


def build_gate_tables(
    circuit: DifferentialCircuit,
    technology: Optional[Technology] = None,
    gate_style: str = "sabl",
    output_load: Optional[float] = None,
    net_loads: Optional[Mapping[str, Tuple[float, float]]] = None,
) -> List[GateTable]:
    """The event table of every gate of ``circuit``, in gate order.

    The tables of :func:`build_template_tables`, one entry per gate: a
    routed gate's own table, else its template's (shared, not copied).
    """
    tables, routed = build_template_tables(
        circuit,
        technology=technology,
        gate_style=gate_style,
        output_load=output_load,
        net_loads=net_loads,
    )
    return [
        routed.get(row, tables[template])
        for row, template in enumerate(circuit.gate_template.tolist())
    ]


def _share(template: GateTable, **arrays: np.ndarray) -> GateTable:
    """A copy of ``template``'s table with its own ``arrays``.

    A field copy, not ``dataclasses.replace``: that would re-run
    ``__post_init__`` on the shared, already read-only arrays.
    ``arrays`` (a routed gate's own ``baseline`` and ``extra``) are made
    read-only here.
    """
    for array in arrays.values():
        array.setflags(write=False)
    table = object.__new__(GateTable)
    table.__dict__.update(template.__dict__, **arrays)
    return table


@dataclass(frozen=True)
class RoutedGroup:
    """The routed gates of one template: row ``i`` of ``baseline`` and
    ``extra`` is the own ``baseline`` and ``extra`` of gate ``rows[i]``
    (gate rows ascending)."""

    template: int
    rows: np.ndarray  # (n,) gate rows
    baseline: np.ndarray  # (n, 2**k)
    extra: np.ndarray  # (n, 2**k)

    def __post_init__(self) -> None:
        for array in (self.rows, self.baseline, self.extra):
            array.setflags(write=False)


class RoutedTables(Mapping[int, GateTable]):
    """The own tables of a circuit's routed gates, by gate row.

    Held as one :class:`RoutedGroup` of arrays per template (``groups``,
    in template order), which is all the compiled kernel reads; a
    gate's :class:`GateTable` (its template's ``tables`` entry with the
    gate's own ``baseline`` and ``extra`` rows) is built when it is
    looked up, for the reference models.  Iteration is in row order.
    """

    __slots__ = ("groups", "_tables", "_where")

    def __init__(self, tables: Sequence[GateTable], groups: Sequence[RoutedGroup]) -> None:
        self.groups: Tuple[RoutedGroup, ...] = tuple(groups)
        self._tables = tables
        self._where: Optional[Dict[int, Tuple[int, int]]] = None

    def rows(self) -> np.ndarray:
        """Every routed gate row, ascending."""
        if not self.groups:
            return np.zeros(0, dtype=np.intp)
        return np.sort(np.concatenate([group.rows for group in self.groups]))

    def __len__(self) -> int:
        return sum(group.rows.shape[0] for group in self.groups)

    def __iter__(self):
        return iter(self.rows().tolist())

    def __contains__(self, row) -> bool:
        return self._lookup().get(row) is not None

    def __getitem__(self, row: int) -> GateTable:
        where = self._lookup().get(row)
        if where is None:
            raise KeyError(row)
        group = self.groups[where[0]]
        return _share(
            self._tables[group.template],
            baseline=group.baseline[where[1]],
            extra=group.extra[where[1]],
        )

    def _lookup(self) -> Dict[int, Tuple[int, int]]:
        if self._where is None:
            self._where = {
                row: (index, position)
                for index, group in enumerate(self.groups)
                for position, row in enumerate(group.rows.tolist())
            }
        return self._where


class BatchedCircuitEnergyModel:
    """Vectorized per-cycle supply-energy model of a differential circuit.

    Produces the same per-cycle energies as stepping a
    :class:`CircuitPowerSimulator` vector by vector (both sum a cycle's
    gate energies exactly, with :func:`math.fsum`; a gate's own energy
    can differ in its last bits where a network sums its internal
    capacitances in another order), but computes whole trace campaigns as NumPy array
    operations instead of per-trace Python loops:

    * gate input events are resolved through per-gate lookup tables built
      once from the charge model (:class:`~repro.electrical.energy.EventEnergyModel`),
    * net evaluation is memoised per unique primary-input vector (a 4-bit
      S-box campaign only ever sees 16 distinct vectors),
    * the memory effect -- an internal node costs a recharge whenever it
      is connected after having discharged in an earlier cycle -- is
      accumulated with vectorized first-occurrence bookkeeping.

    The model is stateful like the sequential simulator: node charge
    state carries across successive :meth:`energies` calls (and across
    internal batches), so warm-up cycles can be fed first and discarded.

    ``net_loads`` back-annotates routed per-net rail capacitances exactly
    like :class:`CircuitPowerSimulator` (the two back-ends stay
    trace-for-trace identical, annotated or not); ``None`` keeps the
    layout-free streams byte-identical.
    """

    def __init__(
        self,
        circuit: DifferentialCircuit,
        technology: Optional[Technology] = None,
        gate_style: str = "sabl",
        output_load: Optional[float] = None,
        net_loads: Optional[Mapping[str, Tuple[float, float]]] = None,
        tables: Optional[Sequence[GateTable]] = None,
    ) -> None:
        self.circuit = circuit
        self.technology = technology or generic_180nm()
        self.gate_style = gate_style
        if tables is None:
            tables = build_gate_tables(
                circuit,
                technology=self.technology,
                gate_style=gate_style,
                output_load=output_load,
                net_loads=net_loads,
            )
        elif len(tables) != circuit.gate_count():
            raise ValueError(
                f"expected {circuit.gate_count()} gate tables, got {len(tables)}"
            )
        self._tables: List[GateTable] = list(tables)
        # Per unique primary-input vector: event index of every gate.
        self._event_rows: Dict[Tuple[bool, ...], np.ndarray] = {}
        self.reset()

    def reset(self) -> None:
        """Return every internal node to the precharged state."""
        # True once a node has discharged (lost its initial precharge).
        self._discharged = [
            np.zeros(table.internal_caps.shape, dtype=bool) for table in self._tables
        ]

    # ------------------------------------------------------------------ events

    def _event_row(self, vector: Tuple[bool, ...]) -> np.ndarray:
        row = self._event_rows.get(vector)
        if row is None:
            inputs = dict(zip(self.circuit.primary_inputs, vector))
            net_values = self.circuit.evaluate_nets(inputs)
            row = np.array(
                [
                    table.event_index(gate.input_event(net_values))
                    for gate, table in zip(self.circuit.gates, self._tables)
                ],
                dtype=np.int64,
            )
            self._event_rows[vector] = row
        return row

    def _event_lut(self, input_matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-gate event-index table over the campaign's unique vectors.

        Returns ``(lut, inverse)`` with ``lut[inverse[t]]`` the per-gate
        event indices of cycle ``t``; the full per-cycle expansion is
        done batch by batch so ``batch_size`` bounds peak memory.
        """
        unique, inverse = np.unique(input_matrix, axis=0, return_inverse=True)
        lut = np.array(
            [self._event_row(tuple(map(bool, row))) for row in unique],
            dtype=np.int64,
        ).reshape(unique.shape[0], len(self._tables))
        return lut, inverse.reshape(-1)

    # ---------------------------------------------------------------- energies

    def energies(
        self,
        vectors: Union[np.ndarray, Sequence[Mapping[str, bool]]],
        batch_size: int = 1024,
    ) -> np.ndarray:
        """Per-cycle total supply energy of a sequence of input vectors.

        ``vectors`` is either a ``(cycles, inputs)`` boolean array with
        columns ordered like ``circuit.primary_inputs``, or a sequence of
        input mappings.  ``batch_size`` bounds the size of the
        intermediate per-batch arrays; gate charge state carries across
        batches, so the result is independent of the batch size.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        matrix = self._as_matrix(vectors)
        total = np.zeros(matrix.shape[0], dtype=float)
        if matrix.shape[0] == 0:
            return total
        obs = get_observer()
        tick = time.perf_counter() if obs.active else 0.0
        lut, inverse = self._event_lut(matrix)
        for start in range(0, matrix.shape[0], batch_size):
            stop = min(start + batch_size, matrix.shape[0])
            self._accumulate(lut[inverse[start:stop]], total[start:stop])
        if obs.active:
            elapsed = time.perf_counter() - tick
            obs.counter("kernel.cycles", matrix.shape[0], simulator="event")
            if elapsed > 0:
                obs.histogram(
                    "kernel.traces_per_s", matrix.shape[0] / elapsed, simulator="event"
                )
        return total

    def _as_matrix(self, vectors) -> np.ndarray:
        if isinstance(vectors, np.ndarray):
            matrix = vectors.astype(bool, copy=False)
            if matrix.ndim != 2 or matrix.shape[1] != len(self.circuit.primary_inputs):
                raise ValueError(
                    f"input matrix must have shape (cycles, "
                    f"{len(self.circuit.primary_inputs)})"
                )
            return matrix
        return np.array(
            [[bool(vector[name]) for name in self.circuit.primary_inputs] for vector in vectors],
            dtype=bool,
        ).reshape(len(vectors), len(self.circuit.primary_inputs))

    def _accumulate(self, events: np.ndarray, out: np.ndarray) -> None:
        """Write the exactly rounded sum (:func:`math.fsum`) of every gate's
        per-cycle energy for one batch into ``out``."""
        gate_energies = np.empty((len(self._tables), events.shape[0]), dtype=float)
        for position, table in enumerate(self._tables):
            indices = events[:, position]
            connected = table.connected[indices]  # (cycles, n_internal)
            # Gather the precomputed per-event dot product; bitwise equal
            # to ``connected @ table.internal_caps`` row by row.
            capacitance = table.cap_dot[indices]
            touched = connected.any(axis=0)
            # The first time a still-precharged node is connected it
            # discharges for free; every later connection costs a recharge.
            fresh = touched & ~self._discharged[position]
            if fresh.any():
                first_cycle = connected[:, fresh].argmax(axis=0)
                np.subtract.at(capacitance, first_cycle, table.internal_caps[fresh])
            self._discharged[position] |= touched
            total_capacitance = table.baseline[indices] + capacitance
            if table.extra is not None:
                total_capacitance += table.extra[indices]
            gate_energies[position] = self.technology.switching_energy(total_capacitance)
        # Column blocks keep the Python floats fsum reads to a slice of
        # the batch.
        for start in range(0, out.shape[0], 256):
            block = gate_energies[:, start : start + 256].T.tolist()
            out[start : start + len(block)] = [math.fsum(column) for column in block]
