"""Golden-vector conformance of every built-in scenario.

Each scenario ships three views of the same keyed datapath -- Boolean
expressions, a synthesized gate-level circuit and a pure-Python
``encrypt()`` golden reference -- and this suite pins that they agree:
exhaustively at narrow widths, on sampled vectors at wide widths
(marked ``slow``), and against the published PRESENT-80 test vectors
for the full 16-S-box round primitives.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sabl.circuit import map_expressions
from repro.scenarios import (
    SCENARIOS,
    PresentRoundScenario,
    ScenarioError,
    make_scenario,
    present80_encrypt,
)
from repro.power.crypto import PRESENT_SBOX

#: Narrow (exhaustively checked) parameters for every scenario.  The
#: completeness test fails when a scenario is added to ``SCENARIOS``
#: without a conformance entry here.
NARROW_CASES = {
    "sbox": ({}, 0xB),
    "present_round": ({"sboxes": 1}, 0x6),
    "present_rounds": ({"sboxes": 1, "rounds": 3}, 0x9),
}

#: Wide (sampled) parameters, checked at the expression/circuit level
#: on random vectors.
WIDE_CASES = {
    "present_round": ({"sboxes": 4}, 0x2B51),
    "present_rounds": ({"sboxes": 2, "rounds": 2}, 0x5C),
}


def _expression_value(expressions, scenario, plaintext):
    assignment = {
        f"p{i}": bool((plaintext >> i) & 1) for i in range(scenario.input_width)
    }
    return sum(
        int(expressions[f"y{bit}"].evaluate(assignment)) << bit
        for bit in range(scenario.output_width)
    )


def _circuit_value(circuit, scenario, plaintext):
    inputs = {
        f"p{i}": bool((plaintext >> i) & 1) for i in range(scenario.input_width)
    }
    nets = circuit.evaluate_nets(inputs)
    return sum(
        int(nets[circuit.outputs[f"y{bit}"]]) << bit
        for bit in range(scenario.output_width)
    )


def _build_circuit(scenario, network_style="fc"):
    return map_expressions(
        scenario.expressions(),
        primary_inputs=[f"p{i}" for i in range(scenario.input_width)],
        network_style=network_style,
        name=f"{scenario.name}_golden",
    )


def test_every_registered_scenario_has_a_conformance_case():
    assert set(SCENARIOS) == set(NARROW_CASES), (
        "every scenario in SCENARIOS needs a NARROW_CASES entry in the "
        "golden conformance suite"
    )


@pytest.mark.parametrize("name", sorted(NARROW_CASES))
def test_narrow_expressions_match_golden_reference(name):
    params, key = NARROW_CASES[name]
    scenario = make_scenario(name, key=key, params=params)
    expressions = scenario.expressions()
    assert sorted(expressions) == [
        f"y{bit}" for bit in sorted(range(scenario.output_width))
    ]
    for plaintext in range(1 << scenario.input_width):
        assert _expression_value(expressions, scenario, plaintext) == scenario.encrypt(
            plaintext
        )


@pytest.mark.parametrize("name", sorted(NARROW_CASES))
@pytest.mark.parametrize("network_style", ["fc", "genuine"])
def test_narrow_circuit_matches_golden_reference(name, network_style):
    params, key = NARROW_CASES[name]
    scenario = make_scenario(name, key=key, params=params)
    circuit = _build_circuit(scenario, network_style)
    for plaintext in range(1 << scenario.input_width):
        assert _circuit_value(circuit, scenario, plaintext) == scenario.encrypt(
            plaintext
        )


def test_two_sbox_round_circuit_exhaustive():
    scenario = make_scenario("present_round", key=0x6B, params={"sboxes": 2})
    circuit = _build_circuit(scenario)
    for plaintext in range(1 << 8):
        assert _circuit_value(circuit, scenario, plaintext) == scenario.encrypt(
            plaintext
        )


def _bitsliced_values(circuit, scenario, plaintexts):
    """Evaluate ``circuit`` on all ``plaintexts`` through the compiled
    bit-sliced kernel (64 vectors per uint64 word), returning the packed
    output words."""
    from repro.kernel import compile_circuit
    from repro.power.trace import nibble_matrix

    program = compile_circuit(circuit)
    matrix = nibble_matrix(
        np.asarray(plaintexts, dtype=np.uint64), scenario.input_width
    )
    outputs = program.evaluate_outputs(matrix)
    values = np.zeros(len(plaintexts), dtype=np.uint64)
    for bit in range(scenario.output_width):
        values |= outputs[f"y{bit}"].astype(np.uint64) << np.uint64(bit)
    return values


@pytest.mark.parametrize("name", sorted(WIDE_CASES))
def test_wide_circuit_matches_golden_reference_bitsliced(name):
    # The fast (per-push) counterpart of the slow sampled test below:
    # the compiled kernel evaluates hundreds of vectors in bulk, so wide
    # slices get full conformance coverage on every CI run.
    params, key = WIDE_CASES[name]
    scenario = make_scenario(name, key=key, params=params)
    circuit = _build_circuit(scenario)
    rng = np.random.default_rng(20050307)
    samples = rng.integers(0, 1 << scenario.input_width, size=256)
    golden = np.array(
        [scenario.encrypt(int(p)) for p in samples], dtype=np.uint64
    )
    assert np.array_equal(_bitsliced_values(circuit, scenario, samples), golden)


def test_full_width_round_circuit_matches_golden_reference_bitsliced():
    # The full 16-S-box (64-bit) PRESENT round, mapped to gates and
    # checked against the published round function on 512 samples --
    # cheap enough for every push thanks to the bit-sliced evaluator.
    scenario = make_scenario(
        "present_round", key=0x0123_4567_89AB_CDEF, params={"sboxes": 16}
    )
    circuit = _build_circuit(scenario)
    rng = np.random.default_rng(7)
    samples = rng.integers(0, 1 << 62, size=512).astype(np.uint64)
    golden = np.array(
        [scenario.encrypt(int(p)) for p in samples], dtype=np.uint64
    )
    assert np.array_equal(_bitsliced_values(circuit, scenario, samples), golden)


def test_wide_and_multi_round_campaigns_run_bitsliced():
    # Per-push campaign coverage of the widths the reference model makes
    # slow: a full-width round and a multi-round datapath, traced
    # through the compiled kernel and pinned to the reference model
    # trace-for-trace.
    from repro.flow import CampaignConfig, DesignFlow, FlowConfig, ScenarioConfig

    from oracles import oracle_traces

    cases = [
        ("present_round", {"sboxes": 16}, 0x0123_4567_89AB_CDEF),
        ("present_rounds", {"sboxes": 2, "rounds": 3}, 0x5C),
    ]
    for name, params, key in cases:
        flow = DesignFlow(
            None,
            FlowConfig(
                name=f"{name}_bitslice_ci",
                campaign=CampaignConfig(key=key, scenario=name, trace_count=96),
                scenario=ScenarioConfig(params=params),
            ),
        )
        traces = flow.traces()
        plaintexts, expected = oracle_traces(
            flow.circuit(),
            96,
            seed=flow.config.campaign.seed,
            stepped=False,
            tables=flow._compiled_program().tables,
        )
        assert np.array_equal(
            traces.traces, expected
        ), f"{name} campaign must be bit-identical to the reference model"
        assert np.array_equal(traces.plaintexts, plaintexts)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(WIDE_CASES))
def test_wide_circuit_matches_golden_reference_on_samples(name):
    params, key = WIDE_CASES[name]
    scenario = make_scenario(name, key=key, params=params)
    circuit = _build_circuit(scenario)
    rng = np.random.default_rng(20050307)
    samples = rng.integers(0, 1 << scenario.input_width, size=48)
    for plaintext in map(int, samples):
        assert _circuit_value(circuit, scenario, plaintext) == scenario.encrypt(
            plaintext
        )


@pytest.mark.slow
def test_full_width_round_expressions_match_on_samples():
    # The 16-S-box (64-bit) PRESENT round stays synthesizable because
    # every output bit's cone of influence is one nibble.
    scenario = make_scenario(
        "present_round", key=0x0123_4567_89AB_CDEF, params={"sboxes": 16}
    )
    expressions = scenario.expressions()
    assert len(expressions) == 64
    assert all(len(expr.variables()) <= 4 for expr in expressions.values())
    rng = np.random.default_rng(7)
    samples = rng.integers(0, 1 << 62, size=24)  # int64-safe sampling
    for plaintext in map(int, samples):
        assert _expression_value(expressions, scenario, plaintext) == scenario.encrypt(
            plaintext
        )


class TestPublishedPresentVectors:
    """The CHES 2007 PRESENT-80 test vectors, via the scenario primitives."""

    VECTORS = [
        (0x0000000000000000, 0x00000000000000000000, 0x5579C1387B228445),
        (0x0000000000000000, 0xFFFFFFFFFFFFFFFFFFFF, 0xE72C46C0F5945049),
        (0xFFFFFFFFFFFFFFFF, 0x00000000000000000000, 0xA112FFC72F68417B),
        (0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFFFFFF, 0x3333DCD3213210D2),
    ]

    @pytest.mark.parametrize("plaintext,key,ciphertext", VECTORS)
    def test_present80_matches_published_vectors(self, plaintext, key, ciphertext):
        assert present80_encrypt(plaintext, key) == ciphertext

    def test_round_function_is_the_published_round(self):
        # One round with a known key equals the by-hand composition of
        # the published layers on the full 64-bit state.
        scenario = PresentRoundScenario(0, PRESENT_SBOX, sboxes=16)
        state = 0x0123_4567_89AB_CDEF
        sboxed = 0
        for nibble in range(16):
            sboxed |= PRESENT_SBOX[(state >> (4 * nibble)) & 0xF] << (4 * nibble)
        permuted = 0
        for bit in range(64):
            destination = 63 if bit == 63 else (16 * bit) % 63
            permuted |= ((sboxed >> bit) & 1) << destination
        assert scenario.encrypt(state) == permuted

    def test_present80_rejects_oversized_inputs(self):
        with pytest.raises(ScenarioError):
            present80_encrypt(1 << 64, 0)
        with pytest.raises(ScenarioError):
            present80_encrypt(0, 1 << 80)


class TestScenarioValidation:
    def test_unknown_scenario_lists_available(self):
        with pytest.raises(KeyError, match="available.*present_round.*sbox"):
            make_scenario("grain", key=0)

    def test_unknown_parameter_names_the_scenario(self):
        with pytest.raises(ScenarioError, match="present_round.*rounds"):
            make_scenario("present_round", key=0, params={"rounds": 2})

    def test_key_must_fit_the_slice(self):
        with pytest.raises(ScenarioError, match="does not fit"):
            make_scenario("present_round", key=1 << 8, params={"sboxes": 2})

    def test_unsupported_sbox_count_rejected(self):
        with pytest.raises(ScenarioError, match="sboxes must be one of"):
            make_scenario("present_round", key=0, params={"sboxes": 3})

    def test_round_scenarios_need_a_4bit_sbox(self):
        with pytest.raises(ScenarioError, match="16-entry"):
            make_scenario("present_round", key=0, sbox="aes")

    def test_expressions_reject_intractable_support(self):
        scenario = make_scenario(
            "present_rounds", key=0, params={"sboxes": 8, "rounds": 3}
        )
        with pytest.raises(ScenarioError, match="reduce rounds or sboxes"):
            scenario.expressions()
