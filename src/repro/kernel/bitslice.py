"""Bit-sliced execution of a compiled differential circuit.

The compiled plan turns a mapped :class:`~repro.sabl.circuit.DifferentialCircuit`
-- gate templates plus per-gate template ids, input net ids, inversion
flags and output net ids -- into straight-line data, working per gate
template and with NumPy indexing over those arrays, never per gate
object:

* **logic steps** -- the gate DAG flattened into topological *levels*;
  within a level, gates with the same operator and fan-in are fused into
  one :class:`_OpGroup` executed as a single bulk gather/XOR/reduce over
  the ``(n_nets, n_words)`` uint64 plane array.  Inverted connections
  are free (an XOR mask), mirroring the differential rails.
* **exact energy sums** -- a cycle's energy is the exactly rounded sum
  of its gates' energies (:func:`math.fsum` semantics).  Every entry of
  the stacked per-event tables (each gate's ``(2**k,)`` row: its
  template's, or its own when it is routed; see
  :func:`repro.sabl.simulator.build_template_tables`) is an integer
  multiple of one power of two, so the kernel sums integers in two
  int64 limbs and rounds once.  Any summation order gives the same bits.
* **counting** -- the unrouted gates of one template share a table of a
  few distinct values (2 for genuine SABL, 3 for CVSL).  For each value
  but the most frequent one, an indicator bit plane (the OR of its
  events' minterms over the gate's event bits) marks the gates drawing
  it; one ``np.unpackbits`` and one integer sum over gates count them
  per cycle, and the energy is the template's base value times its
  gates plus the counts times the value differences.
* **gathering** -- routed gates (each with its own row) and templates
  with too many distinct values keep per-gate event indices, recovered
  per gate-input position by a gathered XOR and one ``np.unpackbits``,
  and gather their integer energies from the stacked tables.

A table whose values span too many binary exponents for the limbs falls
back to gathering float energies and summing each cycle with
:func:`math.fsum`, which gives the same result more slowly.

**Energy table** -- a cycle's gate events, and so its steady-state
energy, depend on its primary-input vector alone.  A circuit of at most
:data:`_TABLE_WIDTH` (10) primary inputs is therefore run once over its
whole input space (:func:`build_energy_table`), and a campaign looks
each cycle up in that table
(:func:`repro.power.trace.kernel_energy_source`).  A wider circuit
packs and evaluates every cycle; the one vector a campaign repeats, the
fixed class of the assessment stream, is measured once per run by
:func:`repro.power.trace.measure_blocks`.

**Steady state** -- the kernel evaluates every cycle from the circuit's
steady state, in which each internal node that any input event can
connect has already discharged once.  There a connected node costs a
recharge on every cycle, so a gate's energy is a pure function of its
event (the stacked tables) and the kernel holds no charge state: a
call's result never depends on earlier calls.  The reference
:class:`~repro.sabl.simulator.BatchedCircuitEnergyModel` put into that
state, which sums each cycle with :func:`math.fsum`, produces the same
energies bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..boolexpr.ast import And, Const, Expr, Not, Or, Var, Xor
from ..obs import get_observer
from .pack import pack_bitplanes

__all__ = [
    "BitslicePlan",
    "build_bitslice_plan",
    "BitslicedCircuitEnergyModel",
    "build_energy_table",
]

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Bits of the low integer limb: a cycle's energy, in units of the
#: plan's ``unit``, is ``hi * 2**32 + lo``.
_LIMB_BITS = 32
_LIMB_MASK = (1 << _LIMB_BITS) - 1

#: Most gathered gates whose integer energies are summed at once; sized
#: so the gathered chunk stays cache-resident.
_GATHER_CHUNK = 128

#: Most cycles :meth:`BitslicedCircuitEnergyModel.energies` evaluates
#: at once: the working set (bit planes, event indices) grows with the
#: cycles in flight, so larger calls are walked in tiles of this size.
_CYCLE_TILE = 1024

#: Most primary inputs of a circuit given an energy table
#: (:func:`build_energy_table`): its ``2**width`` input vectors then fit
#: one tile, so the table never costs more than one tile to build.
_TABLE_WIDTH = _CYCLE_TILE.bit_length() - 1


@dataclass(frozen=True)
class _OpGroup:
    """Gates of one level sharing an operator and a fan-in.

    Executed as ``planes[outputs] = reduce(op, planes[sources] ^ inverted)``
    -- one NumPy call chain for the whole group.
    """

    kind: str  # "and" | "or"
    sources: np.ndarray  # (n_gates, fanin) int source-net indices
    inverted: np.ndarray  # (n_gates, fanin) uint64 XOR masks (0 or ~0)
    outputs: np.ndarray  # (n_gates,) int output-net indices


@dataclass(frozen=True)
class _ExprStep:
    """Fallback for a gate whose function is not a flat AND/OR of variables."""

    expr: Expr
    var_planes: Tuple[Tuple[str, int, bool], ...]  # (variable, source net, inverted)
    output: int


@dataclass(frozen=True)
class _CountGroup:
    """Unrouted gates of one template whose energy is counted, not gathered.

    ``sources[b]`` and ``masks[b]`` give event bit ``b`` of every gate of
    the group; ``classes[j]`` lists the events whose energy is the
    template's ``j``-th counted value.
    """

    sources: np.ndarray  # (k, n_gates) source net of each event bit
    masks: np.ndarray  # (k, n_gates) uint64 XOR masks (0 or ~0)
    classes: Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class BitslicePlan:
    """Straight-line bit-sliced program for one compiled circuit."""

    net_count: int
    net_index: Mapping[str, int]
    levels: Tuple[Tuple[object, ...], ...]  # _OpGroup | _ExprStep per level
    #: Gate rows whose energies are gathered per event (all rows when
    #: ``unit`` is ``None``); every other gate is counted.
    gather_rows: np.ndarray
    # Event extraction of the gathered gates, one entry per gate-input
    # position b: (indices into gather_rows, source_nets, xor_masks).
    event_positions: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    #: Smallest dtype holding every gathered gate's event index (uint8 up
    #: to fan-in 8, int32 beyond).
    events_dtype: np.dtype
    # Stacked per-event energy tables.
    offsets: np.ndarray  # (n_gates,) int32 offsets into the flat tables
    energy_flat: np.ndarray  # (sum 2**k,) steady-state per-event energy
    #: The power of two every ``energy_flat`` entry is an integer multiple
    #: of, or ``None`` when a cycle's sum could overflow the int64 limbs
    #: (every cycle is then summed with :func:`math.fsum`).
    unit: Optional[float]
    #: ``energy_flat / unit`` as int64 (``None`` with ``unit``).
    integers: Optional[np.ndarray]
    #: Gathered gates summed per int64 partial sum: a chunk that could
    #: overflow an int64 is split before its sum joins the limbs.
    gather_chunk: int
    count_groups: Tuple[_CountGroup, ...]
    #: ``(2, n_counted_values)`` int64 limbs of each counted value minus
    #: its template's base value, in ``count_groups`` class order.
    count_limbs: np.ndarray
    #: ``(2, 1)`` int64 limbs of the counted gates' base values, summed.
    count_base: np.ndarray
    #: Exact sum (:func:`math.fsum`) of the per-gate energies when *every*
    #: gate's table is event-independent (the paper's protected fc/SABL
    #: circuits with balanced routing), else ``None``.  Such a circuit
    #: draws this constant on every cycle, so the whole batch skips logic
    #: evaluation -- the bit-sliced analogue of "constant power".
    constant_fold: Optional[np.float64]

    @property
    def path(self) -> str:
        """How a cycle's energy is summed: ``fold`` (the constant),
        ``fsum`` (the float fallback), ``gather`` (some gate gathers its
        integer energy) or ``count`` (every gate is counted)."""
        if self.constant_fold is not None:
            return "fold"
        if self.unit is None:
            return "fsum"
        return "gather" if self.gather_rows.size else "count"

    def net_planes(self, matrix: np.ndarray) -> np.ndarray:
        """The ``(net_count, words)`` uint64 planes of every net over the
        cycles of ``matrix``, a ``(cycles, inputs)`` boolean array whose
        columns (the first planes) follow the circuit's primary inputs."""
        packed = pack_bitplanes(matrix)
        planes = np.zeros((self.net_count, packed.shape[1]), dtype=np.uint64)
        planes[: packed.shape[0]] = packed
        for steps in self.levels:
            for step in steps:
                if isinstance(step, _OpGroup):
                    values = planes[step.sources] ^ step.inverted[..., None]
                    if step.kind == "and":
                        planes[step.outputs] = np.bitwise_and.reduce(values, axis=1)
                    else:
                        planes[step.outputs] = np.bitwise_or.reduce(values, axis=1)
                else:
                    variables = {
                        name: planes[source] ^ (_ALL_ONES if inverted else np.uint64(0))
                        for name, source, inverted in step.var_planes
                    }
                    planes[step.output] = _eval_expr(
                        step.expr, variables, planes.shape[1]
                    )
        return planes

    def extract_events(self, planes: np.ndarray, trace_count: int) -> np.ndarray:
        """Event indices of the gathered gates, ``(len(gather_rows), trace_count)``."""
        gate_count = len(self.gather_rows)
        events: Optional[np.ndarray] = None
        for position, (rows, sources, masks) in enumerate(self.event_positions):
            values = planes[sources] ^ masks[:, None]
            bits = np.unpackbits(
                values.view(np.uint8), axis=1, count=trace_count, bitorder="little"
            )
            shifted = bits.astype(self.events_dtype, copy=False)
            if position:
                shifted = shifted << position
            if events is None:
                if rows.shape[0] == gate_count:
                    # Position 0 covers every gate: adopt the fresh
                    # unpack output instead of zero-fill + OR.
                    events = shifted
                    continue
                events = np.zeros(
                    (gate_count, trace_count), dtype=self.events_dtype
                )
            if rows.shape[0] == gate_count:
                events |= shifted
            else:
                events[rows] |= shifted
        if events is None:
            events = np.zeros((gate_count, trace_count), dtype=self.events_dtype)
        return events

    def count_values(self, planes: np.ndarray, trace_count: int) -> np.ndarray:
        """Per counted value, how many gates draw it in each column:
        ``(n_counted_values, trace_count)`` int64."""
        counts = np.empty((self.count_limbs.shape[1], trace_count), dtype=np.int64)
        row = 0
        for group in self.count_groups:
            bits = planes[group.sources] ^ group.masks[..., None]
            flipped = ~bits
            # Per-column counts of at most 2**16 - 1 gates fit a uint16,
            # the cheapest accumulator np.add.reduce has for them.
            total = np.uint16 if group.sources.shape[1] < 1 << 16 else np.int64
            for events in group.classes:
                indicator = None
                for event in events:
                    term = None
                    for position in range(bits.shape[0]):
                        literal = (bits if (event >> position) & 1 else flipped)[position]
                        term = literal if term is None else term & literal
                    indicator = term if indicator is None else indicator | term
                unpacked = np.unpackbits(
                    indicator.view(np.uint8), axis=1, count=trace_count, bitorder="little"
                )
                counts[row] = np.add.reduce(unpacked, axis=0, dtype=total)
                row += 1
        return counts

    def cycle_energies(self, planes: np.ndarray, trace_count: int) -> np.ndarray:
        """The exactly rounded per-column energy sums of evaluated ``planes``."""
        if self.unit is None:
            events = self.extract_events(planes, trace_count)
            values = np.take(self.energy_flat, self.offsets[self.gather_rows, None] + events)
            return np.array([math.fsum(column) for column in values.T.tolist()])
        if self.count_limbs.shape[1]:
            limbs = self.count_limbs @ self.count_values(planes, trace_count)
            limbs += self.count_base
        else:
            limbs = np.repeat(self.count_base, trace_count, axis=1)
        if self.gather_rows.size:
            events = self.extract_events(planes, trace_count)
            index = self.offsets[self.gather_rows, None] + events
            for start in range(0, index.shape[0], self.gather_chunk):
                part = np.take(self.integers, index[start : start + self.gather_chunk])
                part = part.sum(axis=0)
                limbs[0] += part >> _LIMB_BITS
                limbs[1] += part & _LIMB_MASK
        # Normalise to 0 <= lo < 2**32: both limbs then convert to float
        # exactly, so the one addition is the only rounding.
        hi = limbs[0] + (limbs[1] >> _LIMB_BITS)
        lo = limbs[1] & _LIMB_MASK
        return (hi * float(1 << _LIMB_BITS) + lo) * self.unit


def _eval_expr(expr: Expr, variables: Mapping[str, np.ndarray], words: int) -> np.ndarray:
    if isinstance(expr, Var):
        return variables[expr.name]
    if isinstance(expr, Const):
        return np.full(words, _ALL_ONES if expr.value else np.uint64(0), dtype=np.uint64)
    if isinstance(expr, Not):
        return ~_eval_expr(expr.operand, variables, words)
    if isinstance(expr, (And, Or, Xor)):
        op = {And: np.bitwise_and, Or: np.bitwise_or, Xor: np.bitwise_xor}[type(expr)]
        result = _eval_expr(expr.args[0], variables, words)
        for arg in expr.args[1:]:
            result = op(result, _eval_expr(arg, variables, words))
        return result
    raise TypeError(f"unsupported expression node {type(expr).__name__}")


def _flat_connection_args(expr: Expr) -> Optional[Tuple[str, List[Tuple[str, bool]]]]:
    """``("and"|"or", [(variable, negated), ...])`` for flat NNF gates, else None."""
    if not isinstance(expr, (And, Or)):
        return None
    kind = "and" if isinstance(expr, And) else "or"
    literals: List[Tuple[str, bool]] = []
    for arg in expr.args:
        if isinstance(arg, Var):
            literals.append((arg.name, False))
        elif isinstance(arg, Not) and isinstance(arg.operand, Var):
            literals.append((arg.operand.name, True))
        else:
            return None
    return kind, literals


def build_bitslice_plan(program) -> BitslicePlan:
    """Compile a :class:`~repro.kernel.compile.CompiledProgram` into a plan.

    The plan is built from the circuit's arrays (see
    :mod:`repro.sabl.circuit`).  Work that depends only on a gate's
    network -- its function analysis, the port behind each event bit
    and, for unrouted gates, its energy row with the constancy test and
    its count classes -- runs once per gate template.  Levels, op
    groups, count groups, event positions and energy offsets are NumPy
    indexing over the per-gate template ids; only expression-step gates
    and routed gates (each with its own energy row) are visited one at a
    time.
    """
    from .compile import KernelError

    circuit = program.circuit
    technology = program.technology
    templates = circuit.templates
    gate_template = circuit.gate_template
    inputs = circuit.gate_inputs
    inverted = circuit.gate_inverted
    outputs = circuit.gate_output
    gate_count = int(gate_template.shape[0])
    net_names = circuit.net_names
    net_index: Dict[str, int] = dict(zip(net_names, range(len(net_names))))
    uses = np.bincount(gate_template, minlength=len(templates))

    # ---------------------------------------------------- per template
    failures: Dict[int, str] = {}
    flats: List[Optional[Tuple[str, List[int], List[bool]]]] = [None] * len(templates)
    event_columns: List[List[int]] = [[] for _ in templates]
    for index, (template, table) in enumerate(zip(templates, program.tables)):
        if not uses[index]:
            continue
        function = template.network.function
        if function is None:
            failures[index] = (
                "has no function annotation; the bit-sliced kernel cannot evaluate it"
            )
            continue
        column = {port: position for position, port in enumerate(template.ports)}
        missing = [variable for variable in table.variables if variable not in column]
        if missing:
            failures[index] = f"leaves DPDN variables {missing} unconnected"
            continue
        event_columns[index] = [column[variable] for variable in table.variables]
        flat = _flat_connection_args(function)
        if flat is not None:
            kind, literals = flat
            flats[index] = (
                kind,
                [column[name] for name, _ in literals],
                [negated for _, negated in literals],
            )
    if failures:
        row = int(np.flatnonzero(np.isin(gate_template, list(failures)))[0])
        raise KernelError(
            f"gate {circuit.gate_names[row]} {failures[int(gate_template[row])]}"
        )

    # ------------------------------------------------------- levels
    # Relax ``level = 1 + max(input levels)`` over every gate at once until
    # it settles (the circuit's depth in rounds); the extra last entry of
    # ``net_level`` is the 0 the ``-1`` port padding reads.
    net_level = np.zeros(len(net_names) + 1, dtype=np.intp)
    gate_level = np.ones(gate_count, dtype=np.intp)
    while True:
        net_level[outputs] = gate_level
        deeper = 1 + net_level[inputs].max(axis=1, initial=0)
        if np.array_equal(deeper, gate_level):
            break
        gate_level = deeper

    # ----------------------------------------------------- logic steps
    staged: Dict[int, List[object]] = {}
    kind_of = np.array(
        [-1 if flat is None else int(flat[0] == "or") for flat in flats], dtype=np.intp
    )
    gate_kind = kind_of[gate_template]
    expression_rows = np.flatnonzero(gate_kind < 0).tolist()
    if expression_rows:
        input_rows, inverted_rows = inputs.tolist(), inverted.tolist()
    for row in expression_rows:
        template = templates[int(gate_template[row])]
        staged.setdefault(int(gate_level[row]), []).append(
            _ExprStep(
                expr=template.network.function,
                var_planes=tuple(
                    sorted(zip(template.ports, input_rows[row], inverted_rows[row]))
                ),
                output=int(outputs[row]),
            )
        )
    flat_rows = np.flatnonzero(gate_kind >= 0)
    if flat_rows.size:
        width = max(len(flat[1]) for flat in flats if flat is not None)
        columns = np.zeros((len(templates), width), dtype=np.intp)
        negated = np.zeros((len(templates), width), dtype=bool)
        fanin = np.zeros(len(templates), dtype=np.intp)
        for index, flat in enumerate(flats):
            if flat is not None:
                fanin[index] = len(flat[1])
                columns[index, : fanin[index]] = flat[1]
                negated[index, : fanin[index]] = flat[2]
        flat_templates = gate_template[flat_rows]
        gate_columns = columns[flat_templates]
        sources = np.take_along_axis(inputs[flat_rows], gate_columns, axis=1)
        rails = (
            np.take_along_axis(inverted[flat_rows], gate_columns, axis=1)
            ^ negated[flat_templates]
        )
        # Gates of one level, operator and fan-in form one group; groups
        # are staged in the order of their first gate.
        group_fanin = fanin[flat_templates]
        keys = (gate_level[flat_rows] * 2 + gate_kind[flat_rows]) * (width + 1) + group_fanin
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        stops = np.append(starts[1:], keys.shape[0])
        sources, masks = sources[order], _masks(rails[order])
        group_rows, group_fanin = flat_rows[order], group_fanin[order]
        for start, stop in sorted(
            zip(starts.tolist(), stops.tolist()), key=lambda span: order[span[0]]
        ):
            size = int(group_fanin[start])
            staged.setdefault(int(gate_level[group_rows[start]]), []).append(
                _OpGroup(
                    kind=flats[int(gate_template[group_rows[start]])][0],
                    sources=sources[start:stop, :size],
                    inverted=masks[start:stop, :size],
                    outputs=outputs[group_rows[start:stop]],
                )
            )
    levels = tuple(tuple(staged[level]) for level in sorted(staged))

    # ------------------------------------------------- event bit sources
    counts = np.array([len(columns) for columns in event_columns], dtype=np.intp)
    gate_counts = counts[gate_template]
    depth = int(gate_counts.max()) if gate_count else 0
    padded = np.zeros((len(templates), depth), dtype=np.intp)
    for index, columns in enumerate(event_columns):
        padded[index, : len(columns)] = columns
    gate_columns = padded[gate_template]
    event_sources = np.take_along_axis(inputs, gate_columns, axis=1)
    event_rails = np.take_along_axis(inverted, gate_columns, axis=1)

    # -------------------------------------------------------- energy tables
    # The exact scalar chain of the reference model:
    # (baseline + cap_dot) [+ extra] -> switching_energy, elementwise.
    sizes = np.left_shift(1, gate_counts)
    offsets = np.zeros(gate_count, dtype=np.int32)
    if gate_count:
        offsets[1:] = np.cumsum(sizes[:-1])
    energy_flat = np.zeros(int(sizes.sum()), dtype=float)
    unrouted = np.ones(gate_count, dtype=bool)
    unrouted[program.routed.rows()] = False
    used = np.zeros(len(templates), dtype=bool)
    used[gate_template[unrouted]] = True
    rows = []
    for index, table in enumerate(program.tables):
        values = np.zeros(1 << counts[index], dtype=float)
        if uses[index]:
            values = technology.switching_energy(table.baseline + table.cap_dot)
        rows.append(values)
    constant = all(
        bool(np.ptp(values) == 0.0) for values, live in zip(rows, used) if live
    )
    if unrouted.any():
        template_flat = np.concatenate(rows)
        template_start = np.zeros(len(rows), dtype=np.intp)
        template_start[1:] = np.cumsum([values.shape[0] for values in rows[:-1]])
        lengths = sizes[unrouted]
        within = np.arange(int(lengths.sum())) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        energy_flat[np.repeat(offsets[unrouted], lengths) + within] = template_flat[
            np.repeat(template_start[gate_template[unrouted]], lengths) + within
        ]
    # Routed gates, one template's at a time: row ``i`` of ``values`` is
    # the scalar chain of gate ``group.rows[i]``.
    for group in program.routed.groups:
        values = technology.switching_energy(
            group.baseline + program.tables[group.template].cap_dot + group.extra
        )
        targets = offsets[group.rows]
        energy_flat[targets[:, None] + np.arange(values.shape[1])] = values
        constant = constant and bool((np.ptp(values, axis=1) == 0.0).all())

    constant_fold: Optional[np.float64] = None
    if gate_count and constant:
        constant_fold = np.float64(math.fsum(energy_flat[offsets].tolist()))

    # ------------------------------------------------- counted templates
    # With integer tables, the unrouted gates of a template whose few
    # distinct values need no more indicators than it has event bits are
    # counted; every other gate is gathered.
    unit = _integer_unit(energy_flat, gate_count)
    integers = None
    gather_chunk = 1
    counted = np.zeros(gate_count, dtype=bool)
    count_groups: List[_CountGroup] = []
    deltas: List[int] = []
    base = 0
    if unit is not None:
        integers = (energy_flat / unit).astype(np.int64)
        largest = int(np.abs(integers).max(initial=1))
        gather_chunk = max(1, min(_GATHER_CHUNK, (1 << 63) // largest - 1))
        for index in np.flatnonzero(used).tolist():
            classes = _count_classes(
                (rows[index] / unit).astype(np.int64).tolist(), int(counts[index])
            )
            if classes is None:
                continue
            value, counted_classes = classes
            members = np.flatnonzero(unrouted & (gate_template == index))
            counted[members] = True
            base += value * members.size
            count_groups.append(
                _CountGroup(
                    sources=np.ascontiguousarray(event_sources[members, : counts[index]].T),
                    masks=np.ascontiguousarray(_masks(event_rails[members, : counts[index]]).T),
                    classes=tuple(events for events, _ in counted_classes),
                )
            )
            deltas.extend(delta - value for _, delta in counted_classes)
    gather_rows = np.flatnonzero(~counted)

    # -------------------------------------------------- event positions
    gather_counts = gate_counts[gather_rows]
    gather_depth = int(gather_counts.max()) if gather_rows.size else 0
    event_positions = []
    for position in range(gather_depth):
        members = np.flatnonzero(gather_counts > position)
        event_positions.append(
            (
                members,
                event_sources[gather_rows[members], position],
                _masks(event_rails[gather_rows[members], position]),
            )
        )

    return BitslicePlan(
        net_count=len(net_index),
        net_index=net_index,
        levels=levels,
        gather_rows=gather_rows,
        event_positions=tuple(event_positions),
        events_dtype=np.dtype(np.uint8 if gather_depth <= 8 else np.int32),
        offsets=offsets,
        energy_flat=energy_flat,
        unit=unit,
        integers=integers,
        gather_chunk=gather_chunk,
        count_groups=tuple(count_groups),
        count_limbs=_limbs(deltas),
        count_base=_limbs([base]),
        constant_fold=constant_fold,
    )


def _limbs(values: Sequence[int]) -> np.ndarray:
    """``(2, len(values))`` int64 ``(hi, lo)`` limbs of Python integers,
    ``value == hi * 2**32 + lo`` with ``0 <= lo < 2**32``."""
    return np.array(
        [[value >> _LIMB_BITS for value in values], [value & _LIMB_MASK for value in values]],
        dtype=np.int64,
    ).reshape(2, len(values))


def _integer_unit(energy_flat: np.ndarray, gate_count: int) -> Optional[float]:
    """The ulp of the smallest nonzero table entry, or ``None`` if the limbs
    could overflow.

    Every entry is an integer multiple of that power of two.  Integers
    below ``2**62`` keep any two entries' difference in an int64, and a
    sum over the gates below ``2**84`` keeps its high limb below
    ``2**52``, where it converts to float exactly.
    """
    magnitudes = np.abs(energy_flat)
    if not np.isfinite(magnitudes).all():
        return None
    nonzero = magnitudes[magnitudes > 0.0]
    if not nonzero.size:
        return 1.0
    unit = math.ldexp(1.0, max(math.frexp(float(nonzero.min()))[1] - 53, -1074))
    largest = float(magnitudes.max()) / unit
    if largest >= 2.0**62 or largest * max(gate_count, 1) >= 2.0**84:
        return None
    return unit


def _count_classes(values: Sequence[int], width: int):
    """``(base, [(events, value), ...])`` to count a template by, or ``None``.

    ``base`` is the integer value most events share; every other
    distinct value is counted by the events that give it.  A template
    is counted only when that takes no more indicators than it has
    event bits, built from at most two minterms per bit.
    """
    events_of: Dict[int, List[int]] = {}
    for event, value in enumerate(values):
        events_of.setdefault(value, []).append(event)
    base = max(events_of, key=lambda value: len(events_of[value]))
    classes = [
        (tuple(events), value) for value, events in events_of.items() if value != base
    ]
    if len(classes) > width or sum(len(events) for events, _ in classes) > 2 * width:
        return None
    return base, classes


def _masks(inverted) -> np.ndarray:
    """XOR masks (``~0`` where inverted, else 0) of a nested bool list."""
    return np.where(np.array(inverted, dtype=bool), _ALL_ONES, np.uint64(0))


class BitslicedCircuitEnergyModel:
    """The per-cycle energy model every circuit campaign runs through.

    Built from a :class:`~repro.kernel.compile.CompiledProgram`; produces
    the steady-state energies of the reference
    :class:`~repro.sabl.simulator.BatchedCircuitEnergyModel` bit for bit
    (each cycle the exactly rounded sum of its gates' energies) while
    evaluating 64 cycles per word, tile by tile, and replacing the
    per-unique-vector Python circuit walk with bit-plane counts and
    integer gathers -- throughput is therefore nearly independent of the
    primary-input width.  The model holds no charge state:
    :meth:`energies` is a pure function of its input, cycle by cycle.
    """

    def __init__(self, program) -> None:
        self.program = program
        self.circuit = program.circuit
        self.technology = program.technology
        self.gate_style = program.gate_style
        self._plan: BitslicePlan = program.plan()

    # ---------------------------------------------------------------- energies

    def energies(
        self, vectors: Union[np.ndarray, Sequence[Mapping[str, bool]]]
    ) -> np.ndarray:
        """Per-cycle total supply energy of a sequence of input vectors.

        ``vectors`` is a ``(cycles, inputs)`` boolean array with columns
        ordered like ``circuit.primary_inputs``, or a sequence of input
        mappings.  The cycles are evaluated :data:`_CYCLE_TILE` at a
        time, so the working set does not grow with the call.
        """
        matrix = self._as_matrix(vectors)
        cycles = matrix.shape[0]
        total = np.zeros(cycles, dtype=float)
        plan = self._plan
        obs = get_observer()
        tick = time.perf_counter() if obs.active else 0.0
        if plan.constant_fold is not None:
            # Constant-power circuit: every cycle draws the same (exact)
            # energy -- no logic evaluation needed.
            total[:] = plan.constant_fold
        elif plan.offsets.size:
            for start in range(0, cycles, _CYCLE_TILE):
                tile = matrix[start : start + _CYCLE_TILE]
                total[start : start + tile.shape[0]] = plan.cycle_energies(
                    plan.net_planes(tile), tile.shape[0]
                )
        if obs.active and cycles:
            elapsed = time.perf_counter() - tick
            obs.counter("kernel.cycles", cycles, simulator="bitslice")
            obs.counter(
                "kernel.path_cycles", cycles, simulator="bitslice", path=plan.path
            )
            if elapsed > 0:
                obs.histogram("kernel.traces_per_s", cycles / elapsed, simulator="bitslice")
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
            [
                [bool(vector[name]) for name in self.circuit.primary_inputs]
                for vector in vectors
            ],
            dtype=bool,
        ).reshape(len(vectors), len(self.circuit.primary_inputs))


def build_energy_table(program) -> np.ndarray:
    """Every input vector's energy, indexed by the vector's value.

    Entry ``v`` is the energy of the cycle whose primary input ``i`` is
    bit ``i`` of ``v`` (little-endian, as
    :func:`repro.power.trace.nibble_matrix`), computed by one
    :meth:`BitslicedCircuitEnergyModel.energies` call over all
    ``2**width`` vectors -- the same kernel on the same plan, so looking
    a cycle up equals evaluating it, bit for bit.  The table is
    read-only: one :class:`~repro.kernel.compile.CompiledProgram` shares
    it with every campaign it measures
    (:meth:`~repro.kernel.compile.CompiledProgram.energy_table`).
    """
    width = len(program.circuit.primary_inputs)
    values = np.arange(1 << width)
    matrix = ((values[:, None] >> np.arange(width)) & 1).astype(bool)
    table = BitslicedCircuitEnergyModel(program).energies(matrix)
    table.setflags(write=False)
    return table
