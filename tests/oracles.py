"""Reference trace campaigns for checking the bit-sliced kernel.

Every circuit campaign runs through
:class:`repro.kernel.BitslicedCircuitEnergyModel`, evaluated from the
circuit's steady state.  These helpers put the slow reference models of
:mod:`repro.sabl.simulator` into that state -- the batched model from
its gate tables' ``connected`` matrices, the per-trace simulator from
each gate's own charge model, neither from the kernel plan -- and
replay a campaign's block stream through them (restated here, not
imported), so a test can compare a campaign against an oracle trace for
trace.  :func:`oracle_map_expressions` is the per-gate technology
mapper that :func:`repro.sabl.circuit.map_expressions` replaced with
gate rows over shared templates.  :func:`oracle_gate_tables` restates the per-gate table build
that :func:`repro.sabl.simulator.build_gate_tables` shares between
gates of one network structure, and :func:`oracle_bitslice_plan` the
per-gate plan build that :func:`repro.kernel.bitslice.build_bitslice_plan`
does once per gate template.  :func:`oracle_place_circuit` and
:func:`oracle_route_circuit` are the original tuple-and-dict placer and
maze router that :mod:`repro.layout` replaced with flat-index loops.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from typing import Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from repro.boolexpr.ast import And, Const, Not, Or, Var
from repro.boolexpr.transforms import to_nnf
from repro.core.synthesis import synthesize_fc_dpdn
from repro.electrical.energy import EventEnergyModel
from repro.electrical.technology import generic_180nm
from repro.layout import (
    LayoutError,
    NetTerminals,
    Placement,
    RoutedNet,
    RoutingResult,
    net_terminals,
)
from repro.layout.place import Site, terminal_pin_sites
from repro.network.build import build_genuine_dpdn
from repro.power.trace import nibble_matrix
from repro.sabl.circuit import Connection, DifferentialCircuit, GateInstance
from repro.sabl.simulator import BatchedCircuitEnergyModel, CircuitPowerSimulator

#: Traces per campaign block: block ``i`` draws its plaintexts, then its
#: noise, from child ``i`` of ``SeedSequence(seed).spawn(n_blocks)``.
ORACLE_BLOCK = 256


def steady_state(model):
    """Put a reference model into the circuit's steady state, in place.

    Every internal node that some input event of its gate connects has
    discharged; nodes no event reaches keep their precharge.  For a
    :class:`BatchedCircuitEnergyModel` the reached nodes are a ``True``
    anywhere in a column of ``GateTable.connected``; for a
    :class:`CircuitPowerSimulator` they are the union of each gate's own
    ``EventEnergyModel.discharged_nodes`` over all ``2**k`` events, so
    the stepped oracle shares no table with the fast path.  Returns the
    model.
    """
    if isinstance(model, BatchedCircuitEnergyModel):
        for position, table in enumerate(model._tables):
            model._discharged[position] = table.connected.any(axis=0)
        return model
    for gate in model.circuit.gates:
        simulator = model._simulators[gate.name]
        variables = gate.dpdn.variables()
        reached = set()
        for values in itertools.product((False, True), repeat=len(variables)):
            reached |= simulator.model.discharged_nodes(dict(zip(variables, values)))
        for node in gate.dpdn.internal_nodes():
            simulator._charged[node] = node not in reached
    return model


class _OracleMapper:
    """The recursive bounded-fan-in mapper, one ``GateInstance`` per gate."""

    def __init__(self, circuit, max_fanin, network_style, prefix):
        if max_fanin < 2:
            raise ValueError("max_fanin must be at least 2")
        if network_style not in ("fc", "genuine"):
            raise ValueError("network_style must be 'fc' or 'genuine'")
        self.circuit = circuit
        self.max_fanin = max_fanin
        self.network_style = network_style
        self.prefix = prefix
        self._counter = 0
        # One synthesised network per (operator, fan-in); every gate
        # gets its own copy.
        self._templates = {}

    def _fresh(self, stem):
        self._counter += 1
        return f"{self.prefix}{stem}{self._counter}"

    def map_expression(self, expr):
        return self._map(to_nnf(expr))

    def _map(self, expr):
        if isinstance(expr, Const):
            raise ValueError("constant nets are not supported in differential circuits")
        if isinstance(expr, Var):
            return Connection(expr.name, False)
        if isinstance(expr, Not) and isinstance(expr.operand, Var):
            return Connection(expr.operand.name, True)
        if not isinstance(expr, (And, Or)):
            raise ValueError(f"unsupported expression node {type(expr).__name__}")

        connections = [self._map(arg) for arg in expr.args]
        operator = And if isinstance(expr, And) else Or
        while len(connections) > self.max_fanin:
            grouped = []
            for start in range(0, len(connections), self.max_fanin):
                chunk = connections[start : start + self.max_fanin]
                if len(chunk) == 1:
                    grouped.append(chunk[0])
                else:
                    grouped.append(self.emit_gate(operator, chunk))
            connections = grouped
        return self.emit_gate(operator, connections)

    def _template(self, operator, fanin):
        key = (operator, fanin)
        template = self._templates.get(key)
        if template is None:
            function = operator(*(Var(f"in{i}") for i in range(fanin)))
            build = synthesize_fc_dpdn if self.network_style == "fc" else build_genuine_dpdn
            template = self._templates[key] = build(function)
        return template

    def emit_gate(self, operator, connections):
        variables = [f"in{i}" for i in range(len(connections))]
        gate_name = self._fresh("g")
        output_net = self._fresh("n")
        gate = GateInstance(
            name=gate_name,
            dpdn=self._template(operator, len(connections)).copy(name=gate_name),
            connections=dict(zip(variables, connections)),
            output_net=output_net,
        )
        self.circuit.add_gate(gate)
        return Connection(output_net, False)


def oracle_map_expressions(
    expressions, primary_inputs=None, max_fanin=2, network_style="fc", name="circuit"
):
    """The per-gate technology mapper.

    Same arguments and circuit as :func:`repro.sabl.circuit.map_expressions`,
    built gate by gate: each gate is a ``GateInstance`` with its own copy
    of its ``(operator, fan-in)`` network, added with
    ``DifferentialCircuit.add_gate`` (so each is its own template).
    """
    if primary_inputs is None:
        names = set()
        for expr in expressions.values():
            names |= expr.variables()
        primary_inputs = sorted(names)
    circuit = DifferentialCircuit(primary_inputs, name=name)
    mapper = _OracleMapper(circuit, max_fanin, network_style, prefix=f"{name}_")
    for output_name, expr in expressions.items():
        connection = mapper.map_expression(expr)
        if connection.inverted:
            # A top-level complemented net is realised by a buffer gate.
            connection = mapper.emit_gate(Or, [connection, connection])
        circuit.set_output(output_name, connection.net)
    return circuit


def oracle_gate_tables(
    circuit, technology=None, gate_style="sabl", output_load=None, net_loads=None
):
    """Per-gate event tables, each gate's events walked on their own.

    One dict per gate, in gate order, with the fields of
    :class:`repro.sabl.simulator.GateTable` (``cap_dot`` is
    ``connected @ internal_caps``, ``extra`` is ``None`` without a wire
    load), built by one charge model per gate as the table build did
    before it shared walks between gates of one network structure.
    """
    technology = technology or generic_180nm()
    net_loads = net_loads or {}
    tables = []
    for gate in circuit.gates:
        model = EventEnergyModel(
            gate.dpdn,
            technology,
            style=gate_style,
            output_load=output_load,
            wire_load=net_loads.get(gate.output_net),
        )
        variables = tuple(gate.dpdn.variables())
        internal = gate.dpdn.internal_nodes()
        caps = np.array(
            [model.capacitances.capacitance(node) for node in internal], dtype=float
        )
        event_count = 1 << len(variables)
        connected = np.zeros((event_count, len(internal)), dtype=bool)
        baseline = np.empty(event_count, dtype=float)
        extra = np.empty(event_count, dtype=float) if model.wire_load is not None else None
        for index in range(event_count):
            assignment = {
                variable: bool((index >> bit) & 1)
                for bit, variable in enumerate(variables)
            }
            nodes = model.discharged_nodes(assignment)
            connected[index] = [node in nodes for node in internal]
            recharged_outputs = [
                node for node in (gate.dpdn.x, gate.dpdn.y) if node in nodes
            ]
            baseline[index] = (
                model.capacitances.total(recharged_outputs) + model.output_load
            )
            if extra is not None:
                value = bool(gate.dpdn.function.evaluate(assignment))
                extra[index] = model.swing_excess(value)
        tables.append(
            {
                "variables": variables,
                "internal_caps": caps,
                "connected": connected,
                "baseline": baseline,
                "cap_dot": connected @ caps,
                "extra": extra,
            }
        )
    return tables


class OraclePlan(NamedTuple):
    """The per-gate plan build's result (see :func:`oracle_bitslice_plan`)."""

    net_count: int
    net_index: Dict[str, int]
    levels: tuple
    event_positions: tuple  # (gate rows, source nets, xor masks) per position
    offsets: np.ndarray
    energy_flat: np.ndarray
    constant_fold: Optional[np.float64]


def oracle_bitslice_plan(program):
    """The bit-sliced plan built gate by gate.

    Walks ``program.circuit.gates`` (the per-gate objects) with the
    per-gate tables of :func:`oracle_gate_tables`, not the program's
    template tables: every gate gets its own function analysis, energy
    row and constancy test, as the plan build did before it worked per
    gate template over the circuit's arrays.  Returns an
    :class:`OraclePlan`: the fields of
    :class:`repro.kernel.bitslice.BitslicePlan` that do not depend on
    which gates the kernel counts, with the event positions of every
    gate (the kernel keeps those of its gathered gates only).
    """
    from repro.kernel.bitslice import (
        _ALL_ONES,
        _ExprStep,
        _OpGroup,
        _flat_connection_args,
    )
    from repro.kernel.compile import KernelError

    circuit = program.circuit
    technology = program.technology
    tables = oracle_gate_tables(
        circuit,
        technology=technology,
        gate_style=program.gate_style,
        output_load=program.output_load,
        net_loads=program.net_loads,
    )

    net_index = {net: i for i, net in enumerate(circuit.primary_inputs)}
    net_level = {net: 0 for net in circuit.primary_inputs}

    staged = {}
    group_accum = {}
    for gate in circuit.gates:
        if gate.dpdn.function is None:
            raise KernelError(
                f"gate {gate.name} has no function annotation; the bit-sliced "
                "kernel cannot evaluate it"
            )
        missing = [
            variable
            for variable in gate.dpdn.variables()
            if variable not in gate.connections
        ]
        if missing:
            raise KernelError(
                f"gate {gate.name} leaves DPDN variables {missing} unconnected"
            )
        sources = {
            variable: (net_index[connection.net], connection.inverted)
            for variable, connection in gate.connections.items()
        }
        level = 1 + max(
            (net_level[connection.net] for connection in gate.connections.values()),
            default=0,
        )
        output = len(net_index)
        net_index[gate.output_net] = output
        net_level[gate.output_net] = level

        flat = _flat_connection_args(gate.dpdn.function)
        if flat is not None:
            kind, literals = flat
            row_sources = [sources[name][0] for name, _ in literals]
            row_inverted = [sources[name][1] ^ negated for name, negated in literals]
            group_accum.setdefault((level, kind, len(literals)), []).append(
                (row_sources, row_inverted, output)
            )
        else:
            staged.setdefault(level, []).append(
                _ExprStep(
                    expr=gate.dpdn.function,
                    var_planes=tuple(
                        (name, index, inverted)
                        for name, (index, inverted) in sorted(sources.items())
                    ),
                    output=output,
                )
            )

    for (level, kind, fanin), rows in group_accum.items():
        staged.setdefault(level, []).append(
            _OpGroup(
                kind=kind,
                sources=np.array([row[0] for row in rows], dtype=np.intp),
                inverted=np.where(
                    np.array([row[1] for row in rows], dtype=bool),
                    _ALL_ONES,
                    np.uint64(0),
                ),
                outputs=np.array([row[2] for row in rows], dtype=np.intp),
            )
        )
    levels = tuple(tuple(staged[level]) for level in sorted(staged))

    max_fanin = max((len(table["variables"]) for table in tables), default=0)
    event_positions = []
    for position in range(max_fanin):
        rows, source_nets, masks = [], [], []
        for row, (gate, table) in enumerate(zip(circuit.gates, tables)):
            if position >= len(table["variables"]):
                continue
            connection = gate.connections[table["variables"][position]]
            rows.append(row)
            source_nets.append(net_index[connection.net])
            masks.append(_ALL_ONES if connection.inverted else np.uint64(0))
        event_positions.append(
            (
                np.array(rows, dtype=np.intp),
                np.array(source_nets, dtype=np.intp),
                np.array(masks, dtype=np.uint64),
            )
        )

    sizes = [table["baseline"].shape[0] for table in tables]
    offsets = np.zeros(len(tables), dtype=np.int32)
    if tables:
        offsets[1:] = np.cumsum(sizes[:-1])
    energy_flat = np.zeros(int(sum(sizes)), dtype=float)
    for row, table in enumerate(tables):
        start = int(offsets[row])
        total = table["baseline"] + table["cap_dot"]
        if table["extra"] is not None:
            total = total + table["extra"]
        energy_flat[start : start + sizes[row]] = technology.switching_energy(total)

    constant_fold = None
    if tables and all(
        np.ptp(energy_flat[int(offsets[row]) : int(offsets[row]) + sizes[row]]) == 0.0
        for row in range(len(tables))
    ):
        constant_fold = np.float64(
            math.fsum(float(energy_flat[int(offsets[row])]) for row in range(len(tables)))
        )

    return OraclePlan(
        net_count=len(net_index),
        net_index=net_index,
        levels=levels,
        event_positions=tuple(event_positions),
        offsets=offsets,
        energy_flat=energy_flat,
        constant_fold=constant_fold,
    )


def oracle_traces(
    circuit,
    trace_count,
    seed=2005,
    noise_std=0.0,
    stepped=True,
    batch_size=1024,
    **model_kwargs,
):
    """``(plaintexts, traces)`` of an oracle campaign over ``circuit``.

    ``stepped=True`` steps a steady-state :class:`CircuitPowerSimulator`
    one cycle at a time (the per-trace oracle); ``stepped=False`` feeds a
    steady-state :class:`BatchedCircuitEnergyModel` in ``batch_size``
    chunks.  ``model_kwargs`` (``technology``, ``gate_style``,
    ``net_loads``, ``tables``) go to the model's constructor.
    """
    width = len(circuit.primary_inputs)
    draw_dtype = {"dtype": np.uint64} if width >= 64 else {}
    if stepped:
        simulator = steady_state(CircuitPowerSimulator(circuit, **model_kwargs))

        def energies(plaintexts):
            return np.array(
                [
                    simulator.step(dict(zip(circuit.primary_inputs, row))).total_energy
                    for row in nibble_matrix(plaintexts, width)
                ]
            )

    else:
        model = steady_state(BatchedCircuitEnergyModel(circuit, **model_kwargs))

        def energies(plaintexts):
            return model.energies(nibble_matrix(plaintexts, width), batch_size=batch_size)

    blocks = -(-trace_count // ORACLE_BLOCK)
    plaintext_parts, energy_parts = [], []
    for index, child in enumerate(np.random.SeedSequence(seed).spawn(blocks)):
        count = min(ORACLE_BLOCK, trace_count - index * ORACLE_BLOCK)
        rng = np.random.default_rng(child)
        plaintexts = rng.integers(0, 1 << width, size=count, **draw_dtype)
        block = energies(plaintexts)
        if noise_std > 0.0:
            sigma = noise_std * float(np.mean(block))
            block = block + rng.normal(0.0, sigma, size=count)
        plaintext_parts.append(plaintexts)
        energy_parts.append(block)
    # TraceSet stores plaintexts as int64 (full-width draws wrap).
    return (
        np.concatenate(plaintext_parts).astype(np.int64),
        np.concatenate(energy_parts),
    )


def oracle_assessment_stream(flow):
    """``(energies, labels)`` of a flow's fixed-vs-random campaign.

    Replays the assessment block stream through a steady-state
    :class:`BatchedCircuitEnergyModel` of the flow's circuit: each block
    of ``2 * traces_per_class`` holds equal fixed and random halves;
    its generator shuffles the class order, draws the stimuli, then the
    campaign's relative Gaussian noise.
    """
    campaign = flow.config.campaign
    config = flow.config.assessment
    circuit = flow.circuit()
    program = flow._compiled_program()
    model = steady_state(
        BatchedCircuitEnergyModel(
            circuit,
            technology=program.technology,
            gate_style=program.gate_style,
            tables=program.gate_tables(),
        )
    )
    width = len(circuit.primary_inputs)
    total = 2 * config.traces_per_class
    blocks = -(-total // ORACLE_BLOCK)
    energy_parts, label_parts = [], []
    for index, child in enumerate(np.random.SeedSequence(config.seed).spawn(blocks)):
        count = min(ORACLE_BLOCK, total - index * ORACLE_BLOCK)
        rng = np.random.default_rng(child)
        labels = np.arange(count) < count // 2
        rng.shuffle(labels)
        stimuli = rng.integers(0, 1 << width, size=count)
        stimuli[labels] = config.fixed_plaintext
        energies = model.energies(nibble_matrix(stimuli, width))
        if campaign.noise_std > 0.0:
            sigma = campaign.noise_std * float(np.mean(np.abs(energies)))
            energies = energies + rng.normal(0.0, sigma, size=count)
        energy_parts.append(energies)
        label_parts.append(labels)
    return np.concatenate(energy_parts), np.concatenate(label_parts)


# --------------------------------------------------------------------------- attacks
#
# Per-guess reference attacks: each guess's hypothesis is built trace by
# trace, the way the attacks of Kocher et al. (DoM) and Brier et al.
# (CPA) read.  They follow the rules of :mod:`repro.power.dpa` that are
# not about speed: a campaign of identical traces scores 0 for every
# guess, a one-sided partition scores 0, and a CPA hypothesis is first
# brought to its tie-canonical form (shifted to 0 on the first trace,
# negated if its first non-zero entry is negative), so complementary
# hypotheses score bit-identically.


def _oracle_centred(measurements):
    """Mean-centred traces, all zero for a campaign of identical traces."""
    measurements = np.asarray(measurements, dtype=float)
    if measurements.size == 0 or measurements.min() == measurements.max():
        return np.zeros_like(measurements)
    return measurements - measurements.mean()


def _oracle_pearson(centred, hypothesis):
    denominator_m = float(np.sqrt(np.sum(centred**2)))
    if denominator_m == 0.0:
        return 0.0
    hypothesis = hypothesis - hypothesis.mean()
    denominator_h = float(np.sqrt(np.sum(hypothesis**2)))
    if denominator_h == 0.0:
        return 0.0
    return abs(float(np.sum(centred * hypothesis)) / (denominator_m * denominator_h))


def _oracle_canonical(hypothesis):
    shifted = hypothesis - hypothesis[:1]
    nonzero = np.flatnonzero(shifted)
    if nonzero.size and shifted[nonzero[0]] < 0:
        shifted = -shifted
    return shifted + 0.0


def _oracle_result(scores, key):
    from repro.power.dpa import AttackResult

    return AttackResult(scores=tuple(scores), best_guess=int(np.argmax(scores)), correct_key=key)


def oracle_dom(traces, sbox, target_bit=0, key_space=None):
    """Difference-of-means DPA, one selection vector per guess."""
    key_space = key_space or len(sbox)
    measurements = _oracle_centred(traces.traces)
    scores = []
    for guess in range(key_space):
        selection = np.array(
            [(sbox[int(p) ^ guess] >> target_bit) & 1 for p in traces.plaintexts],
            dtype=bool,
        )
        ones = measurements[selection]
        zeros = measurements[~selection]
        if ones.size == 0 or zeros.size == 0:
            scores.append(0.0)
            continue
        scores.append(abs(float(np.mean(ones)) - float(np.mean(zeros))))
    return _oracle_result(scores, traces.key)


def oracle_cpa(traces, sbox, key_space=None, model=None):
    """CPA, one per-trace hypothesis vector per guess."""
    from repro.power.crypto import hamming_weight

    key_space = key_space or len(sbox)
    leakage_model = model or (lambda value: float(hamming_weight(value)))
    centred = _oracle_centred(traces.traces)
    scores = []
    for guess in range(key_space):
        hypothesis = np.array(
            [leakage_model(sbox[int(p) ^ guess]) for p in traces.plaintexts], dtype=float
        )
        scores.append(_oracle_pearson(centred, _oracle_canonical(hypothesis)))
    return _oracle_result(scores, traces.key)


def oracle_profiled_cpa(traces, predictor, key_space=16):
    """Profiled CPA, one predictor call and one correlation per guess."""
    centred = _oracle_centred(traces.traces)
    scores = [
        _oracle_pearson(centred, predictor(traces.plaintexts, guess).astype(float))
        for guess in range(key_space)
    ]
    return _oracle_result(scores, traces.key)


def oracle_energy_statistics(values):
    """``(mean, std)`` of ``values`` as explicit left folds in list order."""
    values = [float(value) for value in values]
    count = len(values)
    mean = functools.reduce(operator.add, values) / count
    squares = [(value - mean) * (value - mean) for value in values]
    return mean, math.sqrt(functools.reduce(operator.add, squares) / count)


# ------------------------------------------------------- place and route


#: Constants of :mod:`repro.layout.place` / :mod:`repro.layout.route`,
#: restated so a change there shows as an oracle mismatch.
_TARGET_UTILIZATION = 0.65
_ANNEAL_T_START = 3.0
_ANNEAL_T_END = 0.05
_CONGESTION_WEIGHT = 0.5
_PAIRING_PENALTY = 4.0


def _edge_pads(names: Sequence[str], rows: int, column: int) -> Dict[str, Site]:
    """Pads for ``names`` evenly spaced along one grid column."""
    count = len(names)
    if count == 0:
        return {}
    return {
        name: (min(rows - 1, (index * rows + rows // 2) // count), column)
        for index, name in enumerate(names)
    }


def _net_pins(
    terminals: Mapping[str, NetTerminals],
    gates: Mapping[str, Site],
    input_pads: Mapping[str, Site],
    output_pads: Mapping[str, Site],
) -> Dict[str, List[Site]]:
    """Pin sites of every net under one gate assignment."""
    return {
        net: terminal_pin_sites(terminal, gates, input_pads, output_pads)
        for net, terminal in terminals.items()
    }


def _hpwl(pins: Sequence[Site]) -> float:
    rows = [site[0] for site in pins]
    cols = [site[1] for site in pins]
    return float(max(rows) - min(rows) + max(cols) - min(cols))


def oracle_place_circuit(
    circuit: DifferentialCircuit,
    grid: Optional[Tuple[int, int]] = None,
    seed: int = 2005,
    anneal_moves: int = 1500,
) -> Placement:
    """The original :func:`repro.layout.place_circuit`: Python ``min`` over
    the free sites, pin lists rebuilt per annealing move.

    ``grid`` fixes the ``(rows, columns)`` site array (it must hold every
    gate); ``None`` picks a square grid targeting ~65 % utilization.
    ``anneal_moves`` move/swap proposals refine the greedy placement
    (``0`` keeps the constructive result).  Deterministic for a fixed
    ``seed``.
    """
    gate_names = [gate.name for gate in circuit.gates]
    if not gate_names:
        raise LayoutError("cannot place a circuit without gates")
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

    terminals = net_terminals(circuit)
    input_pads = _edge_pads(circuit.primary_inputs, rows, column=0)
    output_pads = _edge_pads(sorted(circuit.outputs), rows, column=cols - 1)

    # -- greedy constructive pass ------------------------------------------
    gates: Dict[str, Site] = {}
    free: Set[Site] = {(r, c) for r in range(rows) for c in range(cols)}
    for gate in circuit.gates:
        anchors: List[Site] = []
        for connection in gate.connections.values():
            terminal = terminals[connection.net]
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
        site = min(
            free,
            key=lambda s: (abs(s[0] - target[0]) + abs(s[1] - target[1]), s),
        )
        gates[gate.name] = site
        free.remove(site)

    pins = _net_pins(terminals, gates, input_pads, output_pads)
    net_cost = {net: _hpwl(sites) for net, sites in pins.items()}
    initial_hpwl = sum(net_cost.values())

    # -- simulated-annealing refinement ------------------------------------
    gate_nets: Dict[str, List[str]] = {name: [] for name in gate_names}
    for net, terminal in terminals.items():
        if not terminal.is_input:
            gate_nets[terminal.driver].append(net)
        for sink in terminal.sinks:
            if net not in gate_nets[sink]:
                gate_nets[sink].append(net)

    site_gate: Dict[Site, str] = {site: name for name, site in gates.items()}
    rng = np.random.default_rng(seed)
    total = initial_hpwl
    if anneal_moves > 0:
        cooling = (_ANNEAL_T_END / _ANNEAL_T_START) ** (1.0 / anneal_moves)
        temperature = _ANNEAL_T_START
        for _ in range(anneal_moves):
            name = gate_names[int(rng.integers(0, len(gate_names)))]
            target = (int(rng.integers(0, rows)), int(rng.integers(0, cols)))
            source = gates[name]
            if target == source:
                temperature *= cooling
                continue
            partner = site_gate.get(target)
            moved = [name] if partner is None else [name, partner]
            touched = sorted({net for moved_name in moved for net in gate_nets[moved_name]})
            before = sum(net_cost[net] for net in touched)
            gates[name] = target
            if partner is not None:
                gates[partner] = source
            after = 0.0
            proposed_cost: Dict[str, float] = {}
            for net in touched:
                proposed_cost[net] = _hpwl(
                    terminal_pin_sites(terminals[net], gates, input_pads, output_pads)
                )
                after += proposed_cost[net]
            delta = after - before
            if delta <= 0.0 or rng.random() < math.exp(-delta / temperature):
                # accept: update caches
                site_gate.pop(source, None)
                site_gate[target] = name
                if partner is not None:
                    site_gate[source] = partner
                net_cost.update(proposed_cost)
            else:
                # reject: restore
                gates[name] = source
                if partner is not None:
                    gates[partner] = target
            temperature *= cooling
        total = sum(net_cost.values())

    return Placement(
        grid=(rows, cols),
        gates=dict(gates),
        input_pads=dict(input_pads),
        output_pads=dict(output_pads),
        hpwl=float(total),
        initial_hpwl=float(initial_hpwl),
        seed=seed,
    )


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


def _oracle_route_fat(circuit: DifferentialCircuit, placement: Placement) -> RoutingResult:
    """The paper's router: one fat wire per pair, split after routing."""
    maze = _GridMaze(placement.grid)
    nets: Dict[str, RoutedNet] = {}
    for terminal in list(net_terminals(circuit).values()):
        cells, length = maze.route_tree(placement.pin_sites(terminal), tracks=2)
        nets[terminal.net] = RoutedNet(
            net=terminal.net,
            true_length=length,
            false_length=length,
            true_cells=cells,
            false_cells=cells,
        )
    return RoutingResult(router="fat", grid=placement.grid, nets=nets)


def _oracle_route_diffpair(
    circuit: DifferentialCircuit, placement: Placement
) -> RoutingResult:
    """Separate rails with a pairing penalty pulling the false rail along."""
    maze = _GridMaze(placement.grid)
    nets: Dict[str, RoutedNet] = {}
    for terminal in list(net_terminals(circuit).values()):
        pins = placement.pin_sites(terminal)
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


def _oracle_route_unbalanced(
    circuit: DifferentialCircuit, placement: Placement
) -> RoutingResult:
    """Independent rails: all true rails first, false rails through the mess."""
    maze = _GridMaze(placement.grid)
    terminals = list(net_terminals(circuit).values())
    true_routes: Dict[str, Tuple[FrozenSet[Site], int]] = {}
    for terminal in terminals:
        true_routes[terminal.net] = maze.route_tree(
            placement.pin_sites(terminal), tracks=1
        )
    nets: Dict[str, RoutedNet] = {}
    for terminal in terminals:
        false_cells, false_length = maze.route_tree(
            placement.pin_sites(terminal), tracks=1
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


def oracle_route_circuit(circuit, placement, router="fat"):
    """The original :func:`repro.layout.route_circuit`: Dijkstra over
    ``(row, col)`` tuples with per-site dict lookups."""
    return {
        "fat": _oracle_route_fat,
        "diffpair": _oracle_route_diffpair,
        "unbalanced": _oracle_route_unbalanced,
    }[router](circuit, placement)
