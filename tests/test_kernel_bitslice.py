"""The compiled bit-sliced simulator (:mod:`repro.kernel`).

The kernel's contract is *bit-identity*: whatever circuit, gate style,
width or back-annotated parasitics, the packed-uint64 kernel must
return exactly the float64 energy stream of the event-table reference
model (:class:`~repro.sabl.simulator.BatchedCircuitEnergyModel`, kept
as the oracle).  This suite pins that contract -- deterministically on
representative circuits and scenarios, property-based on random mapped
circuits -- plus the kernel's memory bound and, through golden digests,
the exact trace streams the flow produces.
"""

from __future__ import annotations

import hashlib
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
from repro.kernel.bitslice import _CYCLE_TILE, _distinct_rows
from repro.obs import BufferSink, Observer, use_observer
from repro.power import cpa_correlation, dpa_difference_of_means
from repro.power.trace import acquire_circuit_traces, build_sbox_circuit, nibble_matrix
from repro.sabl.circuit import map_expressions
from repro.sabl.simulator import BatchedCircuitEnergyModel

from oracles import oracle_cpa, oracle_dom, oracle_traces
from strategies import HAVE_HYPOTHESIS, expression_strategy


def _random_matrix(rng, cycles, width):
    return rng.integers(0, 2, size=(cycles, width)).astype(bool)


def _event_model(program: CompiledProgram) -> BatchedCircuitEnergyModel:
    """The reference model over the program's shared gate tables."""
    return BatchedCircuitEnergyModel(
        program.circuit,
        technology=program.technology,
        gate_style=program.gate_style,
        tables=program.tables,
    )


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
        assert BitslicedCircuitEnergyModel(program)._tables[0] is program.tables[0]
        assert _event_model(program)._tables[0] is program.tables[0]

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
    """Feed ``matrices`` in turn to a fresh oracle and a fresh kernel:
    every call's energies must agree bit for bit, including the stateful
    memory effect carried across calls.  Returns the kernel's energies."""
    event = _event_model(program)
    bitslice = BitslicedCircuitEnergyModel(program)
    results = []
    for matrix in matrices:
        expected = event.energies(matrix, batch_size=batch_size)
        actual = bitslice.energies(matrix, batch_size=batch_size)
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
        # 5000 cycles in one 4096-cycle batch span several kernel tiles;
        # a constant opening longer than a tile defers the first
        # discharges of a genuine network past the first tile boundary.
        long = _random_matrix(rng, 5000, 4)
        long[:1500] = long[0]
        for matrix, batch_size in ((short, 77), (long, 4096)):
            assert np.array_equal(
                _event_model(program).energies(matrix, batch_size=batch_size),
                BitslicedCircuitEnergyModel(program).energies(
                    matrix, batch_size=batch_size
                ),
            )

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

    def test_reset_replays_the_memory_effect(self):
        circuit = build_sbox_circuit(0x3, network_style="genuine")
        program = compile_circuit(circuit)
        model = BitslicedCircuitEnergyModel(program)
        rng = np.random.default_rng(5)
        matrix = _random_matrix(rng, 120, 4)
        first = model.energies(matrix, batch_size=48)
        model.reset()
        assert np.array_equal(first, model.energies(matrix, batch_size=48))

    def test_acquire_circuit_traces_matches_the_oracle(self):
        circuit = build_sbox_circuit(0xB)
        traces = acquire_circuit_traces(circuit, key=0xB, trace_count=400, noise_std=0.01)
        plaintexts, expected = oracle_traces(
            circuit, 400, noise_std=0.01, stepped=False
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
            name="distinct_vectors",
            campaign=CampaignConfig(key=0x6B, scenario="present_round"),
            scenario=ScenarioConfig(params={"sboxes": sboxes}),
        ),
    ).circuit()


def _kernel_counters(model, matrix, batch_size=4096):
    """``(kernel.cycles, kernel.distinct_cycles)`` of one ``energies`` call."""
    buffer = []
    with use_observer(Observer((BufferSink(buffer),))):
        model.energies(matrix, batch_size=batch_size)
    counters = {e["name"]: e["value"] for e in buffer if e["kind"] == "counter"}
    return counters["kernel.cycles"], counters["kernel.distinct_cycles"]


class TestDistinctVectors:
    """The kernel evaluates each distinct input vector of a tile once and
    expands the result to every cycle.  These pin that expansion against
    the oracle where repeats meet tile boundaries, single cycles, wide
    circuits and the per-cycle memory effect."""

    @pytest.mark.parametrize("width", [1, 4, 16, 64, 65, 100])
    def test_distinct_rows_round_trip(self, width):
        rng = np.random.default_rng(width)
        pool = _random_matrix(rng, 7, width)
        matrix = pool[rng.integers(0, 7, size=300)]
        first, inverse = _distinct_rows(matrix)
        assert np.array_equal(matrix[first][inverse], matrix)
        assert len({row.tobytes() for row in matrix[first]}) == first.size
        assert first.size == len({row.tobytes() for row in matrix})

    @pytest.mark.parametrize("gate_style", ["sabl", "cvsl"])
    @pytest.mark.parametrize("network_style", ["fc", "genuine"])
    def test_fixed_plaintext_batch(self, gate_style, network_style):
        # The TVLA fixed class: one distinct vector per tile, first in the
        # warm-up tile of a fresh model, then in steady state.
        program = compile_circuit(
            build_sbox_circuit(0xB, network_style=network_style),
            gate_style=gate_style,
        )
        fixed = np.tile(nibble_matrix(np.array([0x5]), 4), (2500, 1))
        warmup = _random_matrix(np.random.default_rng(1), 40, 4)
        _assert_bit_identical(program, [fixed, warmup, fixed])

    @pytest.mark.parametrize("batch_size", [4096, 1000])
    @pytest.mark.parametrize("gate_style", ["sabl", "cvsl"])
    def test_batch_crossing_a_tile_with_repeats(self, gate_style, batch_size):
        program = compile_circuit(
            build_sbox_circuit(0x3, network_style="genuine"), gate_style=gate_style
        )
        rng = np.random.default_rng(23)
        pool = _random_matrix(rng, 5, 4)
        matrix = pool[rng.integers(0, 5, size=2 * _CYCLE_TILE + 300)]
        # The same vectors on both sides of the first tile boundary.
        matrix[_CYCLE_TILE - 3 : _CYCLE_TILE + 3] = pool[0]
        _assert_bit_identical(program, [matrix, matrix], batch_size=batch_size)

    @pytest.mark.parametrize(
        "gate_style, network_style", [("sabl", "genuine"), ("cvsl", "fc"), ("sabl", "fc")]
    )
    def test_one_cycle_batches(self, gate_style, network_style):
        program = compile_circuit(
            build_sbox_circuit(0x9, network_style=network_style), gate_style=gate_style
        )
        rng = np.random.default_rng(31)
        matrices = [_random_matrix(rng, 1, 4) for _ in range(60)]
        for batch_size in (1, 1024):
            _assert_bit_identical(program, matrices, batch_size=batch_size)

    def test_all_distinct_present_round_batch(self):
        program = compile_circuit(_present_round_circuit(4), gate_style="cvsl")
        rng = np.random.default_rng(41)
        stimuli = rng.permutation(1 << 16)[:700]
        matrix = nibble_matrix(stimuli, 16)
        model = BitslicedCircuitEnergyModel(program)
        assert _kernel_counters(model, matrix) == (700, 700)
        _assert_bit_identical(program, [matrix, matrix[::-1].copy()])

    def test_64_input_slice(self):
        program = compile_circuit(_present_round_circuit(16))
        assert len(program.circuit.primary_inputs) == 64
        rng = np.random.default_rng(43)
        pool = _random_matrix(rng, 12, 64)
        matrix = pool[rng.integers(0, 12, size=40)]
        _assert_bit_identical(program, [matrix, matrix])

    def test_warmup_repeat_pays_the_recharge(self):
        # A repeated vector in the warm-up tile shares its events with
        # the first occurrence, but only the first occurrence discharges
        # the internal nodes for free: energies must stay per cycle.
        program = compile_circuit(build_sbox_circuit(0xB, network_style="genuine"))
        vectors = nibble_matrix(np.array([0x6, 0x6, 0xA, 0x6, 0xA]), 4)
        (energies,) = _assert_bit_identical(program, [vectors])
        assert energies[0] < energies[1] == energies[3]

    def test_warmup_expansion_keeps_the_sequential_fold(self):
        # Regression: expanding the warm-up events with ``events[:, inverse]``
        # leaves them Fortran-ordered, which turns the column sum over the
        # gates pairwise and moves energies in the last ulp.
        program = compile_circuit(build_sbox_circuit(0xB, network_style="genuine"))
        assert len(program.circuit.gates) > 8
        rng = np.random.default_rng(47)
        pool = _random_matrix(rng, 6, 4)
        matrix = pool[rng.integers(0, 6, size=500)]
        _assert_bit_identical(program, [matrix])

    def test_distinct_cycles_counter(self):
        program = compile_circuit(build_sbox_circuit(0xB, network_style="genuine"))
        model = BitslicedCircuitEnergyModel(program)
        cycles = 2 * _CYCLE_TILE + 100
        fixed = np.tile(nibble_matrix(np.array([0xC]), 4), (cycles, 1))
        assert _kernel_counters(model, fixed) == (cycles, 3)
        assert _kernel_counters(model, fixed, batch_size=500) == (cycles, 5)
        rng = np.random.default_rng(53)
        random = _random_matrix(rng, cycles, 4)
        total, distinct = _kernel_counters(model, random)
        assert distinct <= total and distinct <= 3 * 16

    def test_constant_fold_evaluates_no_vectors(self):
        program = compile_circuit(build_sbox_circuit(0xB))
        assert program.plan().constant_fold is not None
        model = BitslicedCircuitEnergyModel(program)
        rng = np.random.default_rng(59)
        model.energies(_random_matrix(rng, 64, 4))
        assert _kernel_counters(model, _random_matrix(rng, 300, 4)) == (300, 0)


class TestMemory:
    @pytest.mark.parametrize(
        "gate_style, network_style", [("cvsl", "fc"), ("sabl", "genuine")]
    )
    def test_peak_memory_does_not_grow_with_the_batch(self, gate_style, network_style):
        # One 4096-cycle assessment chunk must not cost the kernel more
        # memory than the reference model spends on the same input.
        program = compile_circuit(
            build_sbox_circuit(0xB, network_style=network_style),
            gate_style=gate_style,
        )
        rng = np.random.default_rng(3)
        warmup = _random_matrix(rng, 4, 4)
        matrix = _random_matrix(rng, 4096, 4)
        peaks = []
        for model in (_event_model(program), BitslicedCircuitEnergyModel(program)):
            model.energies(warmup, batch_size=4096)
            tracemalloc.start()
            try:
                model.energies(matrix, batch_size=4096)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        oracle_peak, kernel_peak = peaks
        assert kernel_peak <= oracle_peak, (kernel_peak, oracle_peak)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestBitIdentityProperties:
    def test_random_mapped_circuits_are_bit_identical(self):
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=25, deadline=None)
        @given(
            expressions=st.lists(
                expression_strategy(max_leaves=6), min_size=1, max_size=3
            ),
            gate_style=st.sampled_from(["sabl", "cvsl"]),
            network_style=st.sampled_from(["fc", "genuine"]),
            load_seed=st.integers(0, 2**16),
            data=st.data(),
        )
        def check(expressions, gate_style, network_style, load_seed, data):
            circuit = map_expressions(
                {f"F{i}": expr for i, expr in enumerate(expressions)},
                primary_inputs=["A", "B", "C", "D"],
                network_style=network_style,
                name="prop",
            )
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
            event = _event_model(program)
            bitslice = BitslicedCircuitEnergyModel(program)
            cycles = data.draw(st.integers(1, 150))
            batch_size = data.draw(st.integers(1, 96))
            matrix = _random_matrix(rng, cycles, 4)
            assert np.array_equal(
                event.energies(matrix, batch_size=batch_size),
                bitslice.energies(matrix, batch_size=batch_size),
            )

        check()


# ------------------------------------------------------------ flow + engine


def _sbox_flow(execution=None, **campaign_overrides):
    campaign = dict(key=0xB, trace_count=400)
    campaign.update(campaign_overrides)
    config = FlowConfig(name="kernel_test", campaign=CampaignConfig(**campaign))
    if execution is not None:
        config = config.replace(execution=execution)
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
        # Store keys must not move with the simulator: this is the key
        # the event-table model's campaigns were stored under.
        from repro.engine.runner import trace_store_record
        from repro.engine.store import content_key

        assert content_key(trace_store_record(_sbox_flow())) == (
            "a61fb8636518437dc0dab14ea1b40edd3613aaa6a298ee9a1bed363126c74a93"
        )


def _golden_flow(campaign: str) -> DesignFlow:
    """The flow of one golden campaign: ``"<gate>/<network>"`` S-box,
    ``"routed"`` or ``"sharded"`` PRESENT round slice."""
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
                execution=ExecutionConfig(workers=2, shard_size=300),
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
    """Trace streams pinned by digest, as computed by the reference model.

    Each digest is the first 16 hex digits of a sha256 over the
    plaintexts then the traces (or over the TVLA rows), recorded when
    the event-table model still produced every campaign.
    """

    @pytest.mark.parametrize(
        "gate_style, network_style, digest",
        [
            ("sabl", "fc", "984a62d55fef6354"),
            ("sabl", "genuine", "b33f80b980764695"),
            ("cvsl", "fc", "980fa24c0754571a"),
            ("cvsl", "genuine", "4e5a63714364e2b4"),
        ],
    )
    def test_sbox_campaign(self, gate_style, network_style, digest):
        flow = _golden_flow(f"{gate_style}/{network_style}")
        assert _traces_digest(flow) == digest

    def test_routed_present_round(self):
        assert _traces_digest(_golden_flow("routed")) == "f3903f45d585fd80"

    def test_sharded_present_round(self):
        assert _traces_digest(_golden_flow("sharded")) == "523011b1aaff8875"

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
        assert hashlib.sha256(rows.encode()).hexdigest()[:16] == "aa902c681977e237"


class TestConfigValidation:
    def test_simulator_key_is_a_config_error(self):
        from repro.engine.cli import main

        with pytest.raises(ConfigError, match="simulator"):
            CampaignConfig.from_dict({"simulator": "bitslice"})
        with pytest.raises(ConfigError, match="simulator"):
            FlowConfig.from_dict({"campaign": {"simulator": "event"}})
        assert main(["run", "--set", "simulator=bitslice"]) == 2

    def test_batch_size_none_is_a_config_error(self):
        # The per-trace loop that a null batch size used to select is gone.
        with pytest.raises(ConfigError, match="batch_size"):
            CampaignConfig.from_dict({"batch_size": None})
        with pytest.raises(ConfigError, match="batch_size"):
            CampaignConfig(batch_size=0)

    def test_round_trips_through_dict(self):
        config = CampaignConfig(batch_size=256)
        assert CampaignConfig.from_dict(config.to_dict()).batch_size == 256
