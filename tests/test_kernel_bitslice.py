"""The compiled bit-sliced simulator (:mod:`repro.kernel`).

The kernel's contract is *bit-identity*: whatever circuit, gate style,
width or back-annotated parasitics, the packed-uint64 kernel must
return exactly the float64 energy stream of the event-table reference
model (:class:`~repro.sabl.simulator.BatchedCircuitEnergyModel`, kept
as the oracle) put into the circuit's steady state.  This suite pins
that contract -- deterministically on representative circuits and
scenarios, property-based on random circuits -- plus the kernel's
statelessness, its memory bound and, through golden digests, the exact
trace streams the flow produces.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from repro.flow import (
    AssessmentConfig,
    CampaignConfig,
    DesignFlow,
    ExecutionConfig,
    FlowConfig,
    LayoutConfig,
    ScenarioConfig,
)
from repro.flow.config import ConfigError
from repro.kernel import (
    BitslicedCircuitEnergyModel,
    CompiledProgram,
    KernelError,
    WORD_BITS,
    compile_circuit,
    pack_bitplanes,
    unpack_bitplanes,
    word_count,
)
from repro.kernel import bitslice
from repro.kernel.bitslice import _CYCLE_TILE, _TABLE_WIDTH, BitslicePlan
from repro.obs import BufferSink, Observer, use_observer
from repro.power import cpa_correlation, dpa_difference_of_means
from repro.power.trace import (
    acquire_circuit_traces,
    build_sbox_circuit,
    campaign_blocks,
    kernel_energy_source,
    measure_blocks,
    nibble_matrix,
)
from repro.boolexpr.parser import parse
from repro.core.synthesis import synthesize_fc_dpdn
from repro.kernel.bitslice import _ExprStep, _OpGroup, build_bitslice_plan
from repro.electrical.technology import generic_180nm
from repro.layout import layout_circuit
from repro.network.build import build_genuine_dpdn
from repro.sabl.circuit import (
    Connection,
    DifferentialCircuit,
    GateInstance,
    map_expressions,
)
from repro.sabl.simulator import BatchedCircuitEnergyModel, CircuitPowerSimulator

from oracles import (
    oracle_bitslice_plan,
    oracle_cpa,
    oracle_dom,
    oracle_traces,
    steady_state,
)
from strategies import HAVE_HYPOTHESIS, expression_strategy


def _random_matrix(rng, cycles, width):
    return rng.integers(0, 2, size=(cycles, width)).astype(bool)


def _event_model(program: CompiledProgram) -> BatchedCircuitEnergyModel:
    """The steady-state reference model over the program's gate tables."""
    return steady_state(
        BatchedCircuitEnergyModel(
            program.circuit,
            technology=program.technology,
            gate_style=program.gate_style,
            tables=program.gate_tables(),
        )
    )


def _fsum_oracle(program: CompiledProgram, matrix: np.ndarray) -> np.ndarray:
    """Per cycle, :func:`math.fsum` of every gate's steady-state energy.

    Walks ``circuit.gates`` one cycle at a time: each gate's event
    indexes its own table, and its energy is the reference model's
    scalar chain, ``(baseline + cap_dot) [+ extra] -> switching_energy``.
    """
    circuit = program.circuit
    tables = program.gate_tables()
    energies = []
    for vector in matrix.tolist():
        nets = circuit.evaluate_nets(dict(zip(circuit.primary_inputs, vector)))
        gate_energies = []
        for gate, table in zip(circuit.gates, tables):
            event = table.event_index(gate.input_event(nets))
            capacitance = table.baseline[event] + table.cap_dot[event]
            if table.extra is not None:
                capacitance = capacitance + table.extra[event]
            gate_energies.append(float(program.technology.switching_energy(capacitance)))
        energies.append(math.fsum(gate_energies))
    return np.array(energies)


def _network_circuit(expressions, network_style="genuine"):
    """One gate per expression, its DPDN built straight from the
    expression (so a function that is not a flat AND/OR of literals runs
    as an ``_ExprStep``).  Gate ``i`` reads the primary inputs, the odd
    ones through inverted rails, and variable ``Z`` -- when present --
    from the previous gate's output (the first gate: from input A)."""
    build = build_genuine_dpdn if network_style == "genuine" else synthesize_fc_dpdn
    inputs = sorted(
        {"A", "B", "C", "D"}.union(*(expr.variables() for expr in expressions)) - {"Z"}
    )
    circuit = DifferentialCircuit(inputs, name="networks")
    for index, expr in enumerate(expressions):
        connections = {
            name: Connection(name, inverted=bool(position % 2))
            for position, name in enumerate(sorted(expr.variables()))
            if name != "Z"
        }
        if "Z" in expr.variables():
            connections["Z"] = Connection(f"n{index - 1}" if index else inputs[0])
        circuit.add_gate(
            GateInstance(
                name=f"g{index}",
                dpdn=build(expr),
                connections=connections,
                output_net=f"n{index}",
            )
        )
    circuit.set_output("F", f"n{len(expressions) - 1}")
    return circuit


# ------------------------------------------------------------------ packing


class TestPacking:
    def test_word_count(self):
        assert word_count(1) == 1
        assert word_count(64) == 1
        assert word_count(65) == 2
        assert WORD_BITS == 64

    @pytest.mark.parametrize("cycles", [1, 7, 64, 65, 200])
    @pytest.mark.parametrize("nets", [1, 3, 11])
    def test_roundtrip(self, cycles, nets):
        rng = np.random.default_rng(cycles * 31 + nets)
        matrix = rng.integers(0, 2, size=(cycles, nets)).astype(bool)
        planes = pack_bitplanes(matrix)
        assert planes.dtype == np.uint64
        assert planes.shape == (nets, word_count(cycles))
        assert np.array_equal(unpack_bitplanes(planes, cycles), matrix.T)

    def test_padding_bits_are_zero(self):
        matrix = np.ones((5, 2), dtype=bool)
        planes = pack_bitplanes(matrix)
        # Bits 5..63 of the single word must be zero padding.
        assert planes[0, 0] == np.uint64(0b11111)


# ------------------------------------------------------------- compilation


class TestCompiledProgram:
    def test_evaluate_outputs_matches_interpreted_nets(self):
        circuit = build_sbox_circuit(0x7)
        program = compile_circuit(circuit)
        assert program.gate_count() == len(circuit.gates)
        rng = np.random.default_rng(11)
        matrix = _random_matrix(rng, 150, 4)
        outputs = program.evaluate_outputs(matrix)
        for row in range(matrix.shape[0]):
            inputs = dict(zip(circuit.primary_inputs, matrix[row]))
            nets = circuit.evaluate_nets(inputs)
            for name, net in circuit.outputs.items():
                assert outputs[name][row] == nets[net], (name, row)

    def test_evaluate_outputs_validates_width(self):
        program = compile_circuit(build_sbox_circuit(0x7))
        with pytest.raises(ValueError):
            program.evaluate_outputs(np.zeros((4, 3), dtype=bool))

    def test_plan_is_cached(self):
        program = compile_circuit(build_sbox_circuit(0x7))
        assert program.plan() is program.plan()

    def test_models_share_the_compiled_tables(self):
        program = compile_circuit(build_sbox_circuit(0xB))
        # Unrouted gates use their template's table, not a copy of it.
        first = program.tables[program.circuit.gate_template[0]]
        assert program.gate_tables()[0] is first
        assert _event_model(program)._tables[0] is first

    def test_gate_without_a_function_is_a_kernel_error(self):
        # Every DPDN builder annotates ``function``; only a hand-built
        # network lacks it, and the kernel must name the gate it cannot
        # compile instead of failing somewhere inside the plan.
        from repro.network.netlist import DifferentialPullDownNetwork, Literal
        from repro.sabl.circuit import Connection, DifferentialCircuit, GateInstance

        bare = DifferentialPullDownNetwork(name="bare")
        bare.add_transistor(Literal("A"), bare.x, bare.z)
        bare.add_transistor(Literal("A", False), bare.y, bare.z)
        assert bare.function is None
        circuit = DifferentialCircuit(["p0"], name="hand_built")
        circuit.add_gate(
            GateInstance(
                name="buf_unannotated",
                dpdn=bare,
                connections={"A": Connection("p0")},
                output_net="n0",
            )
        )
        circuit.set_output("F", "n0")
        with pytest.raises(KernelError, match="buf_unannotated"):
            acquire_circuit_traces(circuit, key=0, trace_count=10)


# ------------------------------------------------------------- bit-identity


def _assert_bit_identical(program, matrices, batch_size=4096):
    """Feed ``matrices`` in turn to a steady-state oracle (in batches of
    ``batch_size``) and a kernel: every call's energies must agree bit
    for bit.  Returns the kernel's energies."""
    event = _event_model(program)
    bitslice = BitslicedCircuitEnergyModel(program)
    results = []
    for matrix in matrices:
        expected = event.energies(matrix, batch_size=batch_size)
        actual = bitslice.energies(matrix)
        assert np.array_equal(expected, actual)
        results.append(actual)
    return results


class TestBitIdentity:
    @pytest.mark.parametrize("gate_style", ["sabl", "cvsl"])
    @pytest.mark.parametrize("network_style", ["fc", "genuine"])
    def test_sbox_circuit(self, gate_style, network_style):
        circuit = build_sbox_circuit(0xB, network_style=network_style)
        program = compile_circuit(circuit, gate_style=gate_style)
        rng = np.random.default_rng(7)
        short = _random_matrix(rng, 300, 4)
        # 5000 cycles in one 4096-cycle batch span several kernel tiles,
        # one of them a single repeated vector.
        long = _random_matrix(rng, 5000, 4)
        long[:1500] = long[0]
        for matrix, batch_size in ((short, 77), (long, 4096)):
            assert np.array_equal(
                _event_model(program).energies(matrix, batch_size=batch_size),
                BitslicedCircuitEnergyModel(program).energies(matrix),
            )

    @pytest.mark.parametrize("gate_style", ["sabl", "cvsl"])
    @pytest.mark.parametrize("network_style", ["fc", "genuine"])
    def test_wide_gates_and_expression_steps(self, gate_style, network_style):
        # A 6-input XOR network (93 internal nodes, more than a uint64
        # mask holds) and a chained non-flat gate, both run as _ExprStep
        # gates, plus a flat 10-input AND (int32 event indices once it is
        # gathered: routing its output net gives it a table of its own).
        names = "ABCDEFGHIJ"
        circuit = _network_circuit(
            [
                parse(" ^ ".join(names[:6])),
                parse(" & ".join(names)),
                parse("(Z & A) | (B & ~C)"),
            ],
            network_style=network_style,
        )
        assert max(len(g.dpdn.internal_nodes()) for g in circuit.gates) > 64
        rng = np.random.default_rng(17)
        pool = _random_matrix(rng, 300, 10)
        matrix = pool[rng.integers(0, 300, size=_CYCLE_TILE + 200)]
        for net_loads in (None, {"n1": (2e-15, 3e-15)}):
            program = compile_circuit(
                circuit, gate_style=gate_style, net_loads=net_loads
            )
            plan = program.plan()
            if net_loads:
                assert 1 in plan.gather_rows.tolist()
                assert plan.events_dtype == np.int32
            steps = [step for level in plan.levels for step in level]
            assert sum(isinstance(step, _ExprStep) for step in steps) == 2
            _assert_bit_identical(program, [matrix, matrix[:37]], batch_size=4096)

    def test_routed_net_loads(self):
        circuit = build_sbox_circuit(0xB)
        rng = np.random.default_rng(13)
        nets = [gate.output_net for gate in circuit.gates]
        loads = {
            net: (float(rng.uniform(1e-16, 5e-15)), float(rng.uniform(1e-16, 5e-15)))
            for net in nets[:: 2]
        }
        rng = np.random.default_rng(2005)
        _assert_bit_identical(
            compile_circuit(circuit, net_loads=loads),
            [_random_matrix(rng, 200, 4), _random_matrix(rng, 50, 4)],
            batch_size=33,
        )

    def test_calls_do_not_depend_on_earlier_calls(self):
        # The kernel holds no charge state: the same input gives the same
        # energies before and after other calls, alone or inside a batch.
        circuit = build_sbox_circuit(0x3, network_style="genuine")
        program = compile_circuit(circuit)
        model = BitslicedCircuitEnergyModel(program)
        state = dict(vars(model))
        rng = np.random.default_rng(5)
        matrix = _random_matrix(rng, 120, 4)
        other = _random_matrix(rng, 300, 4)
        first = model.energies(matrix)
        model.energies(other)
        assert np.array_equal(first, model.energies(matrix))
        assert np.array_equal(first, model.energies(np.vstack([other, matrix]))[300:])
        assert np.array_equal(first, BitslicedCircuitEnergyModel(program).energies(matrix))
        assert vars(model).keys() == state.keys()
        assert all(vars(model)[name] is value for name, value in state.items())

    def test_acquire_circuit_traces_matches_the_oracle(self):
        circuit = build_sbox_circuit(0xB)
        traces = acquire_circuit_traces(circuit, key=0xB, trace_count=400, noise_std=0.01)
        for stepped in (False, True):
            plaintexts, expected = oracle_traces(
                circuit, 400, noise_std=0.01, stepped=stepped
            )
            assert np.array_equal(traces.plaintexts, plaintexts)
            assert np.array_equal(traces.traces, expected)

    def test_foreign_program_is_rejected(self):
        circuit = build_sbox_circuit(0xB)
        other = compile_circuit(build_sbox_circuit(0x3))
        with pytest.raises(ValueError):
            acquire_circuit_traces(
                circuit, key=0xB, trace_count=10, program=other
            )


def _present_round_circuit(sboxes: int):
    return DesignFlow(
        None,
        FlowConfig(
            name="present_slice",
            campaign=CampaignConfig(key=0x6B, scenario="present_round"),
            scenario=ScenarioConfig(params={"sboxes": sboxes}),
        ),
    ).circuit()


def _kernel_cycles(model, matrix):
    """``kernel.cycles`` of one ``energies`` call."""
    buffer = []
    with use_observer(Observer((BufferSink(buffer),))):
        model.energies(matrix)
    (cycles,) = [e["value"] for e in buffer if e["name"] == "kernel.cycles"]
    return cycles


class TestRepeatedVectors:
    """The kernel evaluates every cycle, repeated input vectors too.
    These pin batches of repeats, across tile boundaries, single cycles
    and wide circuits, against the oracle."""

    @pytest.mark.parametrize("gate_style", ["sabl", "cvsl"])
    @pytest.mark.parametrize("network_style", ["fc", "genuine"])
    def test_fixed_plaintext_batch(self, gate_style, network_style):
        # The TVLA fixed class: one repeated vector over several tiles,
        # between random batches.
        program = compile_circuit(
            build_sbox_circuit(0xB, network_style=network_style),
            gate_style=gate_style,
        )
        fixed = np.tile(nibble_matrix(np.array([0x5]), 4), (2500, 1))
        warmup = _random_matrix(np.random.default_rng(1), 40, 4)
        _assert_bit_identical(program, [fixed, warmup, fixed])

    @pytest.mark.parametrize("gate_style", ["sabl", "cvsl"])
    def test_batch_crossing_a_tile_with_repeats(self, gate_style):
        program = compile_circuit(
            build_sbox_circuit(0x3, network_style="genuine"), gate_style=gate_style
        )
        rng = np.random.default_rng(23)
        pool = _random_matrix(rng, 5, 4)
        matrix = pool[rng.integers(0, 5, size=2 * _CYCLE_TILE + 300)]
        # The same vectors on both sides of the first tile boundary.
        matrix[_CYCLE_TILE - 3 : _CYCLE_TILE + 3] = pool[0]
        _assert_bit_identical(program, [matrix, matrix], batch_size=1000)

    @pytest.mark.parametrize(
        "gate_style, network_style", [("sabl", "genuine"), ("cvsl", "fc"), ("sabl", "fc")]
    )
    def test_one_cycle_batches(self, gate_style, network_style):
        program = compile_circuit(
            build_sbox_circuit(0x9, network_style=network_style), gate_style=gate_style
        )
        rng = np.random.default_rng(31)
        matrices = [_random_matrix(rng, 1, 4) for _ in range(60)]
        _assert_bit_identical(program, matrices, batch_size=1)

    def test_all_distinct_present_round_batch(self):
        program = compile_circuit(_present_round_circuit(4), gate_style="cvsl")
        rng = np.random.default_rng(41)
        stimuli = rng.permutation(1 << 16)[:700]
        matrix = nibble_matrix(stimuli, 16)
        model = BitslicedCircuitEnergyModel(program)
        assert _kernel_cycles(model, matrix) == 700
        _assert_bit_identical(program, [matrix, matrix[::-1].copy()])

    def test_64_input_slice(self):
        program = compile_circuit(_present_round_circuit(16))
        assert len(program.circuit.primary_inputs) == 64
        rng = np.random.default_rng(43)
        pool = _random_matrix(rng, 12, 64)
        matrix = pool[rng.integers(0, 12, size=40)]
        _assert_bit_identical(program, [matrix, matrix])

    def test_constant_fold_evaluates_no_vectors(self, monkeypatch):
        program = compile_circuit(build_sbox_circuit(0xB))
        plan = program.plan()
        assert plan.constant_fold is not None

        def refuse(self, matrix):
            raise AssertionError("the constant fold packs no cycle")

        monkeypatch.setattr(BitslicePlan, "net_planes", refuse)
        model = BitslicedCircuitEnergyModel(program)
        rng = np.random.default_rng(59)
        assert _kernel_cycles(model, _random_matrix(rng, 300, 4)) == 300
        assert np.array_equal(
            model.energies(_random_matrix(rng, 2 * _CYCLE_TILE, 4)),
            np.full(2 * _CYCLE_TILE, plan.constant_fold),
        )


class TestMemory:
    @pytest.mark.parametrize(
        "gate_style, network_style", [("cvsl", "fc"), ("sabl", "genuine")]
    )
    def test_peak_memory_does_not_grow_with_the_batch(self, gate_style, network_style):
        # One 4096-cycle batch must not cost the kernel more
        # memory than the reference model spends on the same input.
        program = compile_circuit(
            build_sbox_circuit(0xB, network_style=network_style),
            gate_style=gate_style,
        )
        rng = np.random.default_rng(3)
        matrix = _random_matrix(rng, 4096, 4)
        peaks = []
        for energies in (
            lambda: _event_model(program).energies(matrix, batch_size=4096),
            lambda: BitslicedCircuitEnergyModel(program).energies(matrix),
        ):
            tracemalloc.start()
            try:
                energies()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        oracle_peak, kernel_peak = peaks
        assert kernel_peak <= oracle_peak, (kernel_peak, oracle_peak)


def _varies(expr):
    """Whether ``expr`` is not a constant function (one a DPDN can build)."""
    variables = sorted(expr.variables())
    values = {
        expr.evaluate(dict(zip(variables, bits)))
        for bits in itertools.product([False, True], repeat=len(variables))
    }
    return len(values) == 2


def _circuit_strategy(st):
    """Random circuits of every shape the kernel compiles differently:
    mapped 4-input circuits (flat AND/OR groups), mapped 10-input ANDs at
    fan-in 10 (int32 event indices) and expression-step gates built
    straight from their networks, a 6-input XOR among them (93 internal
    nodes)."""
    mapped = st.tuples(
        st.lists(expression_strategy(max_leaves=6), min_size=1, max_size=3),
        st.sampled_from(["fc", "genuine"]),
        st.sampled_from([2, 3]),
    ).map(
        lambda args: map_expressions(
            {f"F{i}": expr for i, expr in enumerate(args[0])},
            primary_inputs=["A", "B", "C", "D"],
            network_style=args[1],
            max_fanin=args[2],
            name="prop",
        )
    )
    names = "ABCDEFGHIJ"
    wide = st.tuples(
        st.lists(st.booleans(), min_size=10, max_size=10),
        st.sampled_from(["fc", "genuine"]),
    ).map(
        lambda args: map_expressions(
            {
                "F": parse(
                    " & ".join(
                        f"~{name}" if negated else name
                        for name, negated in zip(names, args[0])
                    )
                )
            },
            primary_inputs=list(names),
            network_style=args[1],
            max_fanin=10,
            name="wide",
        )
    )
    networks = st.tuples(
        st.lists(
            expression_strategy(max_leaves=5, variables=("A", "B", "C", "D", "Z")).filter(
                _varies
            ),
            min_size=1,
            max_size=3,
        ),
        st.booleans(),
        st.sampled_from(["fc", "genuine"]),
    ).map(
        lambda args: _network_circuit(
            ([parse("A ^ B ^ C ^ D ^ E ^ F")] if args[1] else []) + args[0],
            network_style=args[2],
        )
    )
    return st.one_of(mapped, wide, networks)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestBitIdentityProperties:
    def test_random_mapped_circuits_are_bit_identical(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=40, deadline=None)
        @given(
            circuit=_circuit_strategy(st),
            gate_style=st.sampled_from(["sabl", "cvsl"]),
            load_seed=st.integers(0, 2**16),
            data=st.data(),
        )
        def check(circuit, gate_style, load_seed, data):
            rng = np.random.default_rng(load_seed)
            net_loads = None
            if data.draw(st.booleans()):
                net_loads = {
                    gate.output_net: (
                        float(rng.uniform(1e-16, 5e-15)),
                        float(rng.uniform(1e-16, 5e-15)),
                    )
                    for gate in circuit.gates
                    if rng.random() < 0.5
                }
            program = compile_circuit(
                circuit, gate_style=gate_style, net_loads=net_loads
            )
            bitslice = BitslicedCircuitEnergyModel(program)
            # Up to three 1024-cycle tiles, drawn from a small pool so
            # repeats meet the tile boundaries.
            cycles = data.draw(st.sampled_from([1, 150, 700, 2 * _CYCLE_TILE + 300]))
            batch_size = data.draw(st.sampled_from([1, 96, 4096]))
            width = len(circuit.primary_inputs)
            pool = _random_matrix(rng, data.draw(st.integers(1, 40)), width)
            matrix = pool[rng.integers(0, pool.shape[0], size=cycles)]
            energies = bitslice.energies(matrix)
            assert np.array_equal(
                _event_model(program).energies(matrix, batch_size=batch_size),
                energies,
            )
            assert np.array_equal(energies[:64], _fsum_oracle(program, matrix[:64]))
            # One call over every block equals one call per block.
            blocks = [matrix[start : start + 256] for start in range(0, cycles, 256)]
            assert np.array_equal(
                np.concatenate([bitslice.energies(block) for block in blocks]),
                energies,
            )

        check()


    @pytest.mark.parametrize("path", ["fold", "count", "gather", "fsum"])
    def test_every_path_is_the_exact_sum_of_the_gate_energies(self, path):
        # Random mapped circuits, configured onto one summation path:
        # ``fold`` (SABL, fc networks), ``count`` (unrouted), ``gather``
        # (some or all gates routed, the rest counted) and ``fsum`` (one
        # gate's wire load spreads its table over too many exponents for
        # the integer limbs).  Each cycle must be the math.fsum of its
        # gates' energies, bit for bit.
        from hypothesis import assume, given, settings, strategies as st

        @settings(max_examples=15, deadline=None)
        @given(
            expressions=st.lists(
                expression_strategy(max_leaves=6).filter(_varies), min_size=1, max_size=3
            ),
            network_style=st.sampled_from(["fc", "genuine"]),
            max_fanin=st.sampled_from([2, 3]),
            gate_style=st.sampled_from(["sabl", "cvsl"]),
            routed_share=st.sampled_from([0.5, 1.0]),
            seed=st.integers(0, 2**16),
        )
        def check(expressions, network_style, max_fanin, gate_style, routed_share, seed):
            if path == "fold":
                gate_style, network_style = "sabl", "fc"
            elif path == "count" and gate_style == "sabl":
                network_style = "genuine"
            circuit = map_expressions(
                {f"F{i}": expr for i, expr in enumerate(expressions)},
                primary_inputs=["A", "B", "C", "D"],
                network_style=network_style,
                max_fanin=max_fanin,
                name="paths",
            )
            assume(circuit.gate_count() > 0)
            rng = np.random.default_rng(seed)
            nets = [circuit.net_names[net] for net in circuit.gate_output.tolist()]
            net_loads = None
            if path in ("gather", "fsum"):
                net_loads = {
                    net: (
                        float(rng.uniform(1e-16, 5e-15)),
                        float(rng.uniform(1e-16, 5e-15)),
                    )
                    for net in nets
                    if rng.random() < routed_share
                }
                net_loads[nets[0]] = (2e-15, 3e-15)
            if path == "fsum":
                # One rail a million times the other: that gate's table
                # spans about 2**17, beyond what the limbs take.
                net_loads[nets[-1]] = (1e-9, 1e-15)
            program = compile_circuit(circuit, gate_style=gate_style, net_loads=net_loads)
            assert program.plan().path == path
            matrix = _random_matrix(rng, 48, 4)
            energies = BitslicedCircuitEnergyModel(program).energies(matrix)
            assert np.array_equal(energies, _fsum_oracle(program, matrix))
            if path == "fold":
                # The paper's claim: a protected circuit draws one exact
                # constant on every cycle.
                assert np.ptp(energies) == 0.0

        check()

    def test_random_circuits_match_the_stepped_simulator(self):
        # The kernel against the per-trace oracle -- each gate's own
        # charge model, stepped cycle by cycle from the steady state --
        # on small random circuits and batches of at most 64 cycles.
        # Mapped circuits agree at the exact equality the deterministic
        # tests use.  A network built straight from an expression sums
        # its many internal capacitances in another order than the
        # stepped simulator does (``connected @ internal_caps`` against
        # a per-node sum), which moves the last few bits: those agree to
        # within a few ulp.
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=30, deadline=None)
        @given(
            circuit=_circuit_strategy(st),
            gate_style=st.sampled_from(["sabl", "cvsl"]),
            routed=st.booleans(),
            cycles=st.integers(1, 64),
            seed=st.integers(0, 2**16),
        )
        def check(circuit, gate_style, routed, cycles, seed):
            rng = np.random.default_rng(seed)
            net_loads = None
            if routed:
                net_loads = {
                    gate.output_net: (
                        float(rng.uniform(1e-16, 5e-15)),
                        float(rng.uniform(1e-16, 5e-15)),
                    )
                    for gate in circuit.gates
                    if rng.random() < 0.5
                } or None
            program = compile_circuit(circuit, gate_style=gate_style, net_loads=net_loads)
            matrix = _random_matrix(rng, cycles, len(circuit.primary_inputs))
            simulator = steady_state(
                CircuitPowerSimulator(circuit, gate_style=gate_style, net_loads=net_loads)
            )
            stepped = np.array(
                [
                    simulator.step(dict(zip(circuit.primary_inputs, row))).total_energy
                    for row in matrix.tolist()
                ]
            )
            energies = BitslicedCircuitEnergyModel(program).energies(matrix)
            if circuit.name == "networks":
                np.testing.assert_allclose(energies, stepped, rtol=64 * np.finfo(float).eps)
            else:
                assert np.array_equal(energies, stepped)

        check()


class TestExactSums:
    """A cycle's energy is the exactly rounded sum of its gates' energies,
    whichever path computes it."""

    def test_a_16_sbox_slice_needs_the_second_limb(self):
        # 1984 gates: their largest integer energies sum past 2**63, so
        # one int64 would overflow where the two limbs do not.
        program = compile_circuit(_slice_circuit(16, "genuine"))
        plan = program.plan()
        assert program.gate_count() == 1984
        assert plan.path == "count"
        assert int(np.abs(plan.integers).max()) * program.gate_count() >= 2**63
        rng = np.random.default_rng(61)
        matrix = _random_matrix(rng, 24, 64)
        energies = BitslicedCircuitEnergyModel(program).energies(matrix)
        assert np.array_equal(energies, _fsum_oracle(program, matrix))

    def test_the_fsum_fallback_equals_the_oracles(self):
        circuit = build_sbox_circuit(0xB, network_style="genuine")
        nets = [gate.output_net for gate in circuit.gates]
        program = compile_circuit(circuit, net_loads={nets[3]: (1e-9, 1e-15)})
        assert program.plan().path == "fsum"
        assert program.plan().integers is None
        rng = np.random.default_rng(67)
        matrix = _random_matrix(rng, 300, 4)
        energies = _assert_bit_identical(program, [matrix], batch_size=77)[0]
        assert np.array_equal(energies[:40], _fsum_oracle(program, matrix[:40]))

    @pytest.mark.parametrize(
        "network_style, wire_load, path",
        [
            ("fc", None, "fold"),
            ("genuine", None, "count"),
            ("genuine", (2e-15, 3e-15), "gather"),
            ("genuine", (1e-9, 1e-15), "fsum"),
        ],
    )
    def test_the_kernel_counts_the_cycles_of_its_path(
        self, network_style, wire_load, path
    ):
        circuit = build_sbox_circuit(0xB, network_style=network_style)
        net_loads = {circuit.gates[2].output_net: wire_load} if wire_load else None
        model = BitslicedCircuitEnergyModel(compile_circuit(circuit, net_loads=net_loads))
        buffer = []
        with use_observer(Observer((BufferSink(buffer),))):
            model.energies(_random_matrix(np.random.default_rng(71), 1500, 4))
        paths = [
            (event["attrs"]["path"], event["value"])
            for event in buffer
            if event["name"] == "kernel.path_cycles"
        ]
        assert paths == [(path, 1500)]


def _assert_plans_equal(plan, reference):
    """``plan`` equals ``reference`` field by field, arrays bit for bit."""

    def same(actual, expected, what):
        assert actual.dtype == expected.dtype, what
        assert actual.shape == expected.shape, what
        assert actual.tobytes() == expected.tobytes(), what

    assert plan.net_count == reference.net_count
    assert list(plan.net_index.items()) == list(reference.net_index.items())
    assert [len(level) for level in plan.levels] == [
        len(level) for level in reference.levels
    ]
    for depth, (level, expected_level) in enumerate(zip(plan.levels, reference.levels)):
        for step, expected in zip(level, expected_level):
            assert type(step) is type(expected), depth
            if isinstance(step, _OpGroup):
                assert step.kind == expected.kind, depth
                for name in ("sources", "inverted", "outputs"):
                    same(getattr(step, name), getattr(expected, name), (depth, name))
            else:
                assert step == expected, depth
    # The plan extracts events only for the gates it gathers (rows index
    # ``gather_rows``) and counts the rest, template by template.
    gathered = plan.gather_rows
    counted = sum(group.sources.shape[1] for group in plan.count_groups)
    assert counted + gathered.size == plan.offsets.size
    compact = np.full(plan.offsets.size, -1, dtype=np.intp)
    compact[gathered] = np.arange(gathered.size)
    expected_positions = []
    for rows, sources, masks in reference.event_positions:
        keep = np.isin(rows, gathered)
        if keep.any():
            expected_positions.append((compact[rows[keep]], sources[keep], masks[keep]))
    assert len(plan.event_positions) == len(expected_positions)
    for position, (arrays, expected) in enumerate(
        zip(plan.event_positions, expected_positions)
    ):
        for name, actual, wanted in zip(("rows", "sources", "masks"), arrays, expected):
            same(actual, wanted, (position, name))
    assert plan.events_dtype == np.dtype(
        np.uint8 if len(expected_positions) <= 8 else np.int32
    )
    same(plan.offsets, reference.offsets, "offsets")
    same(plan.energy_flat, reference.energy_flat, "energy_flat")
    if reference.constant_fold is None:
        assert plan.constant_fold is None
    else:
        assert type(plan.constant_fold) is type(reference.constant_fold)
        assert plan.constant_fold.tobytes() == reference.constant_fold.tobytes()


def _slice_circuit(sboxes: int, network_style: str):
    return DesignFlow(
        None,
        FlowConfig(
            name="templated_plan",
            campaign=CampaignConfig(
                key=0x6B2A & ((1 << (4 * sboxes)) - 1),
                scenario="present_round",
                network_style=network_style,
            ),
            scenario=ScenarioConfig(params={"sboxes": sboxes}),
        ),
    ).circuit()


class TestTemplatedPlan:
    """The plan does the function analysis and the energy row once per
    gate template; it must equal the per-gate build of
    ``tests/oracles.py::oracle_bitslice_plan`` field by field."""

    @pytest.mark.parametrize("network_style", ["fc", "genuine"])
    @pytest.mark.parametrize("gate_style", ["sabl", "cvsl"])
    @pytest.mark.parametrize("sboxes", [0, 1, 2, 4])  # 0: the paper's S-box
    def test_equal_to_the_per_gate_build(self, sboxes, gate_style, network_style):
        if sboxes:
            circuit = _slice_circuit(sboxes, network_style)
            assert len(circuit.gates) == 124 * sboxes
        else:
            circuit = build_sbox_circuit(0xB, network_style=network_style)
        program = compile_circuit(circuit, gate_style=gate_style)
        plan = build_bitslice_plan(program)
        _assert_plans_equal(plan, oracle_bitslice_plan(program))
        # Only the paper's protected style folds to a constant.
        assert (plan.constant_fold is not None) == (
            (gate_style, network_style) == ("sabl", "fc")
        )

    @pytest.mark.parametrize("router", ["fat", "unbalanced"])
    @pytest.mark.parametrize("network_style", ["fc", "genuine"])
    @pytest.mark.parametrize("sboxes", [0, 2])  # 0: the paper's S-box
    def test_routed_gates(self, sboxes, network_style, router):
        # Every routed gate has its own baseline and extra, so its own row.
        if sboxes:
            circuit = _slice_circuit(sboxes, network_style)
        else:
            circuit = build_sbox_circuit(0xB, network_style=network_style)
        loads = layout_circuit(circuit, generic_180nm(), router=router, seed=7)
        program = compile_circuit(
            circuit, net_loads=loads.parasitics.rail_loads()
        )
        assert all(table.extra is not None for table in program.gate_tables())
        assert sorted(program.routed) == list(range(circuit.gate_count()))
        plan = build_bitslice_plan(program)
        _assert_plans_equal(plan, oracle_bitslice_plan(program))
        if router == "unbalanced" or network_style == "genuine":
            assert plan.constant_fold is None

    def test_partly_routed_mixed_arities(self):
        # Routed and unrouted gates of one template, flat gates of three
        # fan-ins and expression steps side by side.
        circuit = _network_circuit(
            [parse("A ^ B ^ C"), parse("A & B & ~C"), parse("(Z & A) | B"), parse("A | D")]
        )
        circuit.add_gate(
            GateInstance(
                name="g_and",
                dpdn=build_genuine_dpdn(parse("A & B & ~C")),
                connections={name: Connection(name) for name in "ABC"},
                output_net="n_and",
            )
        )
        program = compile_circuit(
            circuit, gate_style="cvsl", net_loads={"n1": (1e-15, 3e-15)}
        )
        plan = build_bitslice_plan(program)
        assert sum(isinstance(step, _ExprStep) for level in plan.levels for step in level) == 2
        _assert_plans_equal(plan, oracle_bitslice_plan(program))

    def test_kernel_errors_name_the_first_failing_gate(self):
        # Hand-built gates are their own templates, so clearing their
        # networks' functions is what the compile sees.
        mapped = build_sbox_circuit(0xB)
        circuit = DifferentialCircuit(mapped.primary_inputs, name=mapped.name)
        for gate in mapped.gates:
            circuit.add_gate(gate)
        for gate in circuit.gates[3:]:
            gate.dpdn.function = None
        program = compile_circuit(circuit)
        with pytest.raises(KernelError, match=f"gate {circuit.gates[3].name} "):
            build_bitslice_plan(program)
        with pytest.raises(KernelError, match=f"gate {circuit.gates[3].name} "):
            oracle_bitslice_plan(program)

    @pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
    def test_random_expression_step_circuits(self):
        from hypothesis import given, settings, strategies as st

        # A 3-input XOR gate (an expression step) and random networks,
        # each network twice so gates share templates, some routed.
        @settings(max_examples=30, deadline=None)
        @given(
            expressions=st.lists(
                expression_strategy(
                    max_leaves=5, variables=("A", "B", "C", "D", "Z")
                ).filter(_varies),
                min_size=1,
                max_size=3,
            ),
            network_style=st.sampled_from(["fc", "genuine"]),
            gate_style=st.sampled_from(["sabl", "cvsl"]),
            load_seed=st.integers(0, 2**16),
            routed_share=st.sampled_from([0.0, 0.5, 1.0]),
        )
        def check(expressions, network_style, gate_style, load_seed, routed_share):
            circuit = _network_circuit(
                [parse("A ^ B ^ C")] + expressions * 2, network_style=network_style
            )
            rng = np.random.default_rng(load_seed)
            net_loads = {
                gate.output_net: (
                    float(rng.uniform(1e-16, 5e-15)),
                    float(rng.uniform(1e-16, 5e-15)),
                )
                for gate in circuit.gates
                if rng.random() < routed_share
            }
            program = compile_circuit(
                circuit, gate_style=gate_style, net_loads=net_loads or None
            )
            plan = build_bitslice_plan(program)
            assert any(
                isinstance(step, _ExprStep) for level in plan.levels for step in level
            )
            _assert_plans_equal(plan, oracle_bitslice_plan(program))

        check()

# ------------------------------------------------------------ flow + engine


def _sbox_flow(execution=None, **campaign_overrides):
    campaign = dict(key=0xB, trace_count=400)
    campaign.update(campaign_overrides)
    config = FlowConfig(name="kernel_test", campaign=CampaignConfig(**campaign))
    if execution is not None:
        config = config.replace(execution=execution)
    return DesignFlow(None, config)


def _routed_sbox_flow() -> DesignFlow:
    """The default S-box campaign, ``fat``-routed, assessment enabled."""
    config = _sbox_flow().config.replace(
        layout=LayoutConfig(router="fat"),
        assessment=AssessmentConfig(enabled=True, traces_per_class=256),
    )
    return DesignFlow(None, config)


def _digest(*arrays) -> str:
    """First 16 hex digits of the sha256 over the arrays' bytes."""
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def _traces_digest(flow) -> str:
    traces = flow.traces()
    return _digest(traces.plaintexts, traces.traces)


class TestFlowIntegration:
    def test_trace_stage_reports_the_simulator(self):
        flow = _sbox_flow()
        assert flow.result("traces").details["simulator"] == "bitslice"

    def test_store_keys_ignore_the_simulator(self):
        # Store keys carry no simulator or execution field: this is the
        # key of the default campaign's block stream.
        from repro.engine import content_key, store_record

        assert content_key(store_record(_sbox_flow(), "traces")) == (
            "f36d8928ff53b110040ecd5c594a0187093b5f22946b22297f402af643296308"
        )

    def test_routed_store_keys_are_pinned(self):
        # The layout, traces and assessment keys of one routed,
        # assessment-enabled campaign.
        from repro.engine import content_key, store_record

        flow = _routed_sbox_flow()
        keys = {
            stage: content_key(store_record(flow, stage))
            for stage in ("layout", "traces", "assessment")
        }
        assert keys == {
            "layout": "ea31b76cccebc39e39d47da9df079ade24a1f9f27d6b12807dcc4ccf8c1fe533",
            "traces": "42629d5f05703c518c329640cab333c6052251556029ae2e1a7f2b2726f2902c",
            "assessment": (
                "bfda63d795139f2400cdf10a20efd4ce640ab7ae9c0e903a5d1e19112d017d2c"
            ),
        }


def _circuit_of_width(width: int, network_style: str) -> DifferentialCircuit:
    """A mapped circuit of ``width`` primary inputs: the paper's S-box
    (4), a 2-S-box PRESENT slice (8), or one output per input mixing
    four neighbouring inputs."""
    if width == 4:
        return build_sbox_circuit(0xB, network_style=network_style)
    if width == 8:
        return _slice_circuit(2, network_style)
    names = [f"x{i}" for i in range(width)]
    return map_expressions(
        {
            f"F{i}": parse(
                f"({names[i]} & ~{names[(i + 1) % width]}) | "
                f"({names[(i + 2) % width]} & {names[(i + 3) % width]})"
            )
            for i in range(width)
        },
        primary_inputs=names,
        network_style=network_style,
        name=f"width_{width}",
    )


def _table_cycles(buffer) -> float:
    """Cycles the buffered events count as served from an energy table."""
    return sum(
        event["value"]
        for event in buffer
        if event["name"] == "kernel.path_cycles" and event["attrs"]["path"] == "table"
    )


class TestEnergyTable:
    """A circuit of at most ten inputs is evaluated once over its whole
    input space; every campaign cycle is then a lookup in that table,
    which must equal the kernel's energy of the cycle bit for bit."""

    @pytest.mark.parametrize("gate_style", ["sabl", "cvsl"])
    @pytest.mark.parametrize("network_style", ["fc", "genuine"])
    @pytest.mark.parametrize("width", [4, 8, _TABLE_WIDTH, _TABLE_WIDTH + 1])
    def test_lookup_equals_the_kernel(self, width, gate_style, network_style):
        program = compile_circuit(
            _circuit_of_width(width, network_style), gate_style=gate_style
        )
        assert (program.energy_table() is None) == (width > 10)
        source_width, energies = kernel_energy_source(program)
        assert source_width == width
        rng = np.random.default_rng(width)
        stimuli = np.concatenate(
            [np.arange(1 << width), rng.integers(0, 1 << width, size=3000)]
        )
        buffer = []
        with use_observer(Observer((BufferSink(buffer),))):
            actual = energies(stimuli)
        expected = BitslicedCircuitEnergyModel(program).energies(
            nibble_matrix(stimuli, width)
        )
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected)
        assert _table_cycles(buffer) == (stimuli.size if width <= 10 else 0)

    @pytest.mark.parametrize(
        "network_style, wire_load, path",
        [
            ("fc", None, "fold"),
            ("genuine", (2e-15, 3e-15), "gather"),
            ("genuine", (1e-9, 1e-15), "fsum"),
        ],
    )
    def test_every_path_fills_the_table(self, network_style, wire_load, path):
        circuit = build_sbox_circuit(0x6, network_style=network_style)
        net_loads = {circuit.gates[2].output_net: wire_load} if wire_load else None
        program = compile_circuit(circuit, net_loads=net_loads)
        assert program.plan().path == path
        table = program.energy_table()
        assert not table.flags.writeable
        assert np.array_equal(table, _fsum_oracle(program, nibble_matrix(np.arange(16), 4)))
        stimuli = np.random.default_rng(73).integers(0, 16, size=2000)
        assert np.array_equal(
            kernel_energy_source(program)[1](stimuli),
            BitslicedCircuitEnergyModel(program).energies(nibble_matrix(stimuli, 4)),
        )

    def test_routed_circuit(self):
        circuit = _slice_circuit(2, "genuine")
        net_loads = layout_circuit(circuit, router="unbalanced").parasitics.rail_loads()
        program = compile_circuit(circuit, gate_style="cvsl", net_loads=net_loads)
        assert program.routed
        stimuli = np.random.default_rng(79).integers(0, 256, size=3000)
        assert np.array_equal(
            kernel_energy_source(program)[1](stimuli),
            BitslicedCircuitEnergyModel(program).energies(nibble_matrix(stimuli, 8)),
        )

    @pytest.mark.parametrize("gate_style", ["sabl", "cvsl"])
    def test_the_fixed_plaintext_assessment_stream(self, gate_style):
        program = compile_circuit(
            build_sbox_circuit(0xB, network_style="genuine"), gate_style=gate_style
        )
        model = BitslicedCircuitEnergyModel(program)
        streams = [
            list(
                measure_blocks(
                    campaign_blocks(5000, 9), 4, energies, lambda e, rng: e, fixed=0x5
                )
            )
            for energies in (
                kernel_energy_source(program)[1],
                lambda stimuli: model.energies(nibble_matrix(stimuli, 4)),
            )
        ]
        assert len(streams[0]) == len(streams[1]) == 20
        for (stimuli, labels, energies), (stimuli_, labels_, energies_) in zip(*streams):
            assert np.array_equal(stimuli, stimuli_)
            assert np.array_equal(labels, labels_)
            assert np.array_equal(energies, energies_)
            assert np.unique(energies[labels]).size == 1

    def test_one_build_per_program(self, monkeypatch):
        # The traces stage, the assessment stream and both in-process
        # shards of each share the flow's one compiled program.
        built = []
        build = bitslice.build_energy_table

        def counting(program):
            built.append(program)
            return build(program)

        monkeypatch.setattr(bitslice, "build_energy_table", counting)
        config = _sbox_flow(trace_count=512, network_style="genuine").config.replace(
            assessment=AssessmentConfig(enabled=True, traces_per_class=256),
            execution=ExecutionConfig(shard_size=256),
        )
        flow = DesignFlow(None, config)
        buffer = []
        with use_observer(Observer((BufferSink(buffer),))):
            flow.run()
        assert flow.result("traces").details["shards"] == 2
        assert flow.result("assessment").details["shards"] == 2
        assert built == [flow._compiled_program()]
        # The one build's own kernel counter: the S-box's 16 vectors.
        assert sum(e["value"] for e in buffer if e["name"] == "kernel.cycles") == 16
        # Every campaign cycle is served from the table, the fixed class
        # once per assessment shard.
        assert _table_cycles(buffer) == 512 + 256 + 2


class TestPhysicsFingerprint:
    """:data:`repro.engine.stored.PHYSICS_FINGERPRINT` roots every key."""

    @staticmethod
    def _golden_energies():
        # Every plaintext of the paper's S-box through both gate styles
        # and both network styles, unrouted and fat-routed, so the
        # energy models, the placer, the router and the extraction all
        # reach these bits.
        technology = generic_180nm()
        vectors = nibble_matrix(np.arange(16))
        for network_style in ("fc", "genuine"):
            circuit = build_sbox_circuit(0xB, network_style=network_style)
            layout = layout_circuit(circuit, technology, router="fat")
            for net_loads in (None, layout.parasitics.rail_loads()):
                for gate_style in ("sabl", "cvsl"):
                    program = compile_circuit(
                        circuit, technology, gate_style=gate_style, net_loads=net_loads
                    )
                    yield BitslicedCircuitEnergyModel(program).energies(vectors)

    def test_the_fingerprint_is_the_digest_of_the_golden_energies(self):
        from repro.engine.stored import PHYSICS_FINGERPRINT

        digest = _digest(*self._golden_energies())
        assert digest == PHYSICS_FINGERPRINT, (
            f"the golden energies moved: set PHYSICS_FINGERPRINT to {digest!r} "
            f"so that stored results of the old physics read as misses"
        )

    def test_every_store_key_is_rooted_at_the_fingerprint(self, monkeypatch):
        from repro.engine import content_key, store_record
        import repro.engine.stored as stored

        flow = _routed_sbox_flow()
        stages = ("layout", "traces", "assessment")
        before = [content_key(store_record(flow, stage)) for stage in stages]
        monkeypatch.setattr(stored, "PHYSICS_FINGERPRINT", "f" * 16)
        after = [content_key(store_record(flow, stage)) for stage in stages]
        assert all(old != new for old, new in zip(before, after))


def _golden_flow(campaign: str, execution=None) -> DesignFlow:
    """The flow of one golden campaign: ``"<gate>/<network>"`` S-box,
    ``"routed"`` or ``"sharded"`` PRESENT round slice, or ``"model"``
    (the leakage model of a PRESENT round slice, assessment enabled).
    ``execution`` replaces the ``"sharded"`` campaign's two-worker
    execution."""
    if campaign == "model":
        return DesignFlow(
            None,
            FlowConfig(
                name="golden_model",
                campaign=CampaignConfig(
                    key=0x6B,
                    scenario="present_round",
                    source="model",
                    trace_count=5000,
                    noise_std=0.5,
                    seed=13,
                ),
                scenario=ScenarioConfig(params={"sboxes": 2}),
                assessment=AssessmentConfig(
                    enabled=True,
                    traces_per_class=2500,
                    seed=9,
                    noise=({"name": "quantization", "bits": 6},),
                ),
            ),
        )
    if campaign == "routed":
        return DesignFlow(
            None,
            FlowConfig(
                name="golden_routed",
                campaign=CampaignConfig(
                    key=0x6B, scenario="present_round", trace_count=1500, seed=11
                ),
                scenario=ScenarioConfig(params={"sboxes": 2}),
                layout=LayoutConfig(router="unbalanced"),
            ),
        )
    if campaign == "sharded":
        return DesignFlow(
            None,
            FlowConfig(
                name="golden_sharded",
                campaign=CampaignConfig(
                    key=0x2B51,
                    scenario="present_round",
                    trace_count=1200,
                    seed=5,
                    gate_style="cvsl",
                    network_style="genuine",
                ),
                scenario=ScenarioConfig(params={"sboxes": 4}),
                execution=execution or ExecutionConfig(workers=2, shard_size=300),
            ),
        )
    gate_style, network_style = campaign.split("/")
    return _sbox_flow(
        trace_count=3000,
        seed=7,
        noise_std=0.01,
        gate_style=gate_style,
        network_style=network_style,
    )


class TestGoldenStreams:
    """Trace streams pinned by digest.

    Each digest is the first 16 hex digits of a sha256 over the
    plaintexts then the traces (or over the TVLA rows) of the campaign's
    block stream evaluated from the steady state; the S-box and routed
    digests were checked against the block-stream oracle when pinned.
    """

    # Keyed by style rather than passed as a parameter, so a re-pin
    # keeps the test ids.
    SBOX_DIGESTS = {
        ("sabl", "fc"): "82af5d569c504301",
        ("sabl", "genuine"): "3eaa2eb4b0bbaf87",
        ("cvsl", "fc"): "dec2a5b906576d61",
        ("cvsl", "genuine"): "a09ef477fe768948",
    }

    @pytest.mark.parametrize("gate_style, network_style", list(SBOX_DIGESTS))
    def test_sbox_campaign(self, gate_style, network_style):
        flow = _golden_flow(f"{gate_style}/{network_style}")
        assert _traces_digest(flow) == self.SBOX_DIGESTS[gate_style, network_style]

    def test_routed_present_round(self):
        assert _traces_digest(_golden_flow("routed")) == "a440bb9ba2d7af53"

    def test_sharded_present_round(self):
        # The two-worker, 300-trace-shard golden and its default
        # (in-process, one-shard) twin are one stream.
        for execution in (None, ExecutionConfig()):
            flow = _golden_flow("sharded", execution)
            assert _traces_digest(flow) == "8c78808190e6c88b"

    def test_model_campaign(self):
        # 20 noisy blocks: two energy-source calls of the leakage table.
        assert _traces_digest(_golden_flow("model")) == "44cb69d5e08a3b44"

    def test_model_assessment_stream(self):
        # The same table under the fixed-vs-random stream, campaign noise
        # then a 6-bit ADC.
        result = _golden_flow("model").assessment()["ttest"]
        rows = repr([(t.order, t.statistic, t.leaks) for t in result.tests])
        assert hashlib.sha256(rows.encode()).hexdigest()[:16] == "d1cc788b5f6c1d7e"

    def test_kernel_call_groups_match_the_block_oracle(self):
        # 20 blocks are two kernel calls (16 blocks, then 4); the oracle
        # walks the blocks one by one.
        circuit = build_sbox_circuit(0xB, network_style="genuine")
        program = compile_circuit(circuit)
        traces = acquire_circuit_traces(
            circuit, 0xB, 5000, noise_std=0.02, seed=3, program=program
        )
        plaintexts, expected = oracle_traces(
            circuit, 5000, seed=3, noise_std=0.02, stepped=False,
            tables=program.gate_tables(), gate_style="sabl",
        )
        assert np.array_equal(traces.plaintexts, plaintexts)
        assert np.array_equal(traces.traces, expected)

    @pytest.mark.parametrize("campaign", ["sabl/fc", "cvsl/genuine", "routed"])
    def test_streams_match_the_block_oracle(self, campaign):
        flow = _golden_flow(campaign)
        traces = flow.traces()
        plaintexts, expected = oracle_traces(
            flow.circuit(),
            flow.config.campaign.trace_count,
            seed=flow.config.campaign.seed,
            noise_std=flow.config.campaign.noise_std,
            stepped=False,
            tables=flow._compiled_program().gate_tables(),
            gate_style=flow.config.campaign.gate_style,
        )
        assert np.array_equal(traces.plaintexts, plaintexts)
        assert np.array_equal(traces.traces, expected)

    @pytest.mark.parametrize(
        "campaign",
        ["sabl/fc", "sabl/genuine", "cvsl/fc", "cvsl/genuine", "routed", "sharded"],
    )
    def test_attacks_match_the_oracle(self, campaign):
        # The flow's class-sum attacks rank every guess as the per-guess
        # oracles do, on the attack point each campaign's analysis reads.
        view, table, _ = _golden_flow(campaign)._attack_campaign()
        pairs = [
            (
                dpa_difference_of_means(view, table, target_bit=bit),
                oracle_dom(view, table, target_bit=bit),
            )
            for bit in range(4)
        ]
        pairs.append((cpa_correlation(view, table), oracle_cpa(view, table)))
        scale = float(np.max(np.abs(view.traces)))
        for fast, slow in pairs:
            np.testing.assert_allclose(fast.scores, slow.scores, rtol=1e-9, atol=1e-12 * scale)
            assert fast.best_guess == slow.best_guess
            assert fast.correct_key_rank == slow.correct_key_rank

    @pytest.mark.parametrize(
        "campaign, rankings",
        [
            ("sabl/fc", [(0, 15), (6, 1), (13, 5), (1, 6), (6, 5)]),
            ("sabl/genuine", [(4, 11), (3, 14), (9, 15), (3, 8), (5, 15)]),
            ("cvsl/fc", [(6, 7), (0, 5), (13, 4), (0, 8), (6, 14)]),
            ("cvsl/genuine", [(4, 15), (3, 14), (15, 8), (11, 0), (5, 10)]),
            ("routed", [(6, 15), (10, 9), (7, 6), (13, 1), (12, 7)]),
            ("sharded", [(0, 3), (4, 15), (8, 12), (3, 6), (0, 15)]),
        ],
    )
    def test_attack_rankings_are_pinned(self, campaign, rankings):
        # ``(best_guess, correct_key_rank)`` of DoM on bits 0..3, then
        # CPA: the same before and after cycles became exact sums.
        view, table, _ = _golden_flow(campaign)._attack_campaign()
        results = [dpa_difference_of_means(view, table, target_bit=bit) for bit in range(4)]
        results.append(cpa_correlation(view, table))
        assert [(r.best_guess, r.correct_key_rank) for r in results] == rankings

    def test_assessment_stream(self):
        flow = DesignFlow(
            None,
            FlowConfig(
                name="golden_tvla",
                campaign=CampaignConfig(
                    key=0x3, network_style="genuine", noise_std=0.002
                ),
                assessment=AssessmentConfig(enabled=True, seed=9),
            ),
        )
        result = flow.assessment()["ttest"]
        rows = repr([(t.order, t.statistic, t.leaks) for t in result.tests])
        assert hashlib.sha256(rows.encode()).hexdigest()[:16] == "a6a8fa362d8e86d5"
        assert [t.leaks for t in result.tests] == [True, True]


class TestConfigValidation:
    def test_simulator_key_is_a_config_error(self):
        from repro.engine.cli import main

        with pytest.raises(ConfigError, match="simulator"):
            CampaignConfig.from_dict({"simulator": "bitslice"})
        with pytest.raises(ConfigError, match="simulator"):
            FlowConfig.from_dict({"campaign": {"simulator": "event"}})
        assert main(["run", "--set", "simulator=bitslice"]) == 2

    def test_batch_size_none_is_a_config_error(self):
        # The block is the unit of kernel calls: a stale config that
        # still carries a batch size (or a warm-up) fails loudly.
        with pytest.raises(ConfigError, match="batch_size"):
            CampaignConfig.from_dict({"batch_size": None})
        with pytest.raises(ConfigError, match="batch_size"):
            CampaignConfig().replace(batch_size=0)
        with pytest.raises(ConfigError, match="warmup_cycles"):
            CampaignConfig.from_dict({"warmup_cycles": 4})

    def test_round_trips_through_dict(self):
        config = CampaignConfig(seed=256, noise_std=0.01)
        assert CampaignConfig.from_dict(config.to_dict()) == config
