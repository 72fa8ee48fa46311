"""Reference trace campaigns for checking the bit-sliced kernel.

Every circuit campaign runs through
:class:`repro.kernel.BitslicedCircuitEnergyModel`, evaluated from the
circuit's steady state.  These helpers put the slow reference models of
:mod:`repro.sabl.simulator` into that state -- the batched model from
its gate tables' ``connected`` matrices, the per-trace simulator from
each gate's own charge model, neither from the kernel plan -- and
replay a campaign's block stream through them (restated here, not
imported), so a test can compare a campaign against an oracle trace for
trace.  :func:`oracle_gate_tables` restates the per-gate table build
that :func:`repro.sabl.simulator.build_gate_tables` shares between
gates of one network structure.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from repro.electrical.energy import EventEnergyModel
from repro.electrical.technology import generic_180nm
from repro.power.trace import nibble_matrix
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
            tables=program.tables,
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
