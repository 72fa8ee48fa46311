"""The array netlist: gate rows over shared templates, pinned to the per-gate build.

:func:`~repro.sabl.circuit.map_expressions` writes a circuit as gate
templates plus per-gate template ids, input net ids, inversion flags and
output net ids; :mod:`repro.kernel` compiles and plans it from those
arrays.  The per-gate mapper it replaced is kept as
``tests/oracles.py::oracle_map_expressions``.  These tests pin the
materialized gates to the oracle's, the program's tables, plan and
traces to the per-gate oracle path, and check that an unrouted campaign
builds no per-gate object at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.boolexpr.ast import Not, Var
from repro.boolexpr.parser import parse
from repro.flow import CampaignConfig, DesignFlow, FlowConfig, LayoutConfig, ScenarioConfig
from repro.kernel import compile_circuit
from repro.kernel.bitslice import build_bitslice_plan
from repro.network.netlist import DifferentialPullDownNetwork
from repro.power.crypto import keyed_sbox_expressions
from repro.power.trace import acquire_circuit_traces
from repro.sabl import circuit as circuit_module
from repro.sabl.circuit import map_expressions
from repro.sabl.simulator import GateTable

from oracles import (
    oracle_bitslice_plan,
    oracle_gate_tables,
    oracle_map_expressions,
    oracle_traces,
)
from strategies import HAVE_HYPOTHESIS, expression_strategy
from test_kernel_bitslice import _assert_plans_equal
from test_sabl_gate_templates import ARRAYS


def _assert_same_circuit(circuit, reference):
    """Materialized gates, nets and outputs equal the oracle's."""
    assert circuit.name == reference.name
    assert circuit.primary_inputs == reference.primary_inputs
    assert circuit.outputs == reference.outputs
    assert circuit.nets() == reference.nets()
    assert circuit.gate_count() == reference.gate_count()
    assert circuit.device_count() == reference.device_count()
    for gate, expected in zip(circuit.gates, reference.gates):
        assert gate.name == expected.name
        assert gate.output_net == expected.output_net
        assert list(gate.connections.items()) == list(expected.connections.items())
        assert gate.dpdn.name == expected.dpdn.name
        assert gate.dpdn.transistors == expected.dpdn.transistors
        assert gate.dpdn.function == expected.dpdn.function
        assert gate.dpdn.external_nodes == expected.dpdn.external_nodes
    assert circuit.describe() == reference.describe()


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
def test_random_expression_sets_map_like_the_oracle():
    from hypothesis import given, settings, strategies as st

    outputs = st.one_of(
        expression_strategy(max_leaves=8, variables=("A", "B", "C", "D", "E")),
        # Top-level complemented literals map to buffer gates.
        st.sampled_from("ABCDE").map(lambda name: Not(Var(name))),
    )

    @settings(max_examples=60, deadline=None)
    @given(
        expressions=st.lists(outputs, min_size=1, max_size=4),
        max_fanin=st.integers(2, 4),
        network_style=st.sampled_from(["fc", "genuine"]),
    )
    def check(expressions, max_fanin, network_style):
        named = {f"F{i}": expr for i, expr in enumerate(expressions)}
        kwargs = dict(max_fanin=max_fanin, network_style=network_style, name="rand")
        try:
            reference = oracle_map_expressions(named, **kwargs)
        except ValueError as error:
            # Whatever the oracle refuses, the mapper refuses alike.
            with pytest.raises(ValueError) as refused:
                map_expressions(named, **kwargs)
            assert str(refused.value) == str(error)
            return
        circuit = map_expressions(named, **kwargs)
        _assert_same_circuit(circuit, reference)
        if circuit.gate_count():
            _assert_plans_equal(
                build_bitslice_plan(compile_circuit(circuit)),
                oracle_bitslice_plan(compile_circuit(reference)),
            )

    check()


@pytest.mark.parametrize("max_fanin", [2, 3, 4])
def test_wide_fan_in_and_inverted_outputs(max_fanin):
    # "E | D" puts an OR gate ahead of the level's AND gates: op groups
    # are staged in the order of their first gate.
    expressions = {
        "L": parse("E | D"),
        "F": parse("(A & B & C & D & E & ~A) | ~D | (B & C)"),
        "G": parse("~B"),
        "H": parse("A"),
        "K": parse("~(A | B | C | D | E)"),
    }
    kwargs = dict(primary_inputs=list("EDCBA"), max_fanin=max_fanin, name="wide")
    circuit = map_expressions(expressions, **kwargs)
    reference = oracle_map_expressions(expressions, **kwargs)
    _assert_same_circuit(circuit, reference)
    _assert_plans_equal(
        build_bitslice_plan(compile_circuit(circuit)),
        oracle_bitslice_plan(compile_circuit(reference)),
    )


def test_repeated_maps_name_their_rows_alike_and_own_their_lists():
    # The gate and net names of a mapping are shared between maps of the
    # same size and name; each circuit still gets lists of its own.
    expressions = {"F": parse("(A & B) | (C & ~A)"), "G": parse("A | C")}
    first = map_expressions(expressions, name="names")
    reference = oracle_map_expressions(expressions, name="names")
    first.gate_names.append("extra")
    first.net_names.append("extra")
    second = map_expressions(expressions, name="names")
    _assert_same_circuit(second, reference)
    assert second.gate_names == [gate.name for gate in reference.gates]


def test_undriven_inputs_fail_like_the_oracle():
    for expressions in (
        {"F": parse("A & Q")},
        {"F": parse("A & B"), "G": parse("~(Q | B)")},
        {"F": parse("Q")},
    ):
        with pytest.raises(ValueError) as expected:
            oracle_map_expressions(expressions, primary_inputs=["A", "B"])
        with pytest.raises(ValueError) as actual:
            map_expressions(expressions, primary_inputs=["A", "B"])
        assert str(actual.value) == str(expected.value)


def _expressions(source):
    """``(expressions, primary_inputs)`` of the S-box (0) or an n-S-box slice."""
    if not source:
        return keyed_sbox_expressions(0xB), [f"p{i}" for i in range(4)]
    flow = DesignFlow(
        None,
        FlowConfig(
            name="netlist",
            campaign=CampaignConfig(
                key=0x6B2A & ((1 << (4 * source)) - 1), scenario="present_round"
            ),
            scenario=ScenarioConfig(params={"sboxes": source}),
        ),
    )
    return flow.expressions(), [f"p{i}" for i in range(4 * source)]


@pytest.mark.parametrize("routed", [False, True])
@pytest.mark.parametrize("gate_style", ["sabl", "cvsl"])
@pytest.mark.parametrize("network_style", ["fc", "genuine"])
@pytest.mark.parametrize("source", [0, 1, 2, 4])  # 0: the paper's S-box
def test_program_plan_and_traces_equal_the_per_gate_path(
    source, network_style, gate_style, routed
):
    expressions, inputs = _expressions(source)
    kwargs = dict(primary_inputs=inputs, network_style=network_style, name="slice")
    circuit = map_expressions(expressions, **kwargs)
    reference = oracle_map_expressions(expressions, **kwargs)
    net_loads = None
    if routed:
        # Half the gates routed, every load different: routed and
        # unrouted gates of one template side by side.
        rng = np.random.default_rng(source)
        net_loads = {
            net: (float(rng.uniform(1e-16, 5e-15)), float(rng.uniform(1e-16, 5e-15)))
            for net in circuit.net_names[len(inputs) :: 2]
        }
    program = compile_circuit(circuit, gate_style=gate_style, net_loads=net_loads)
    assert len(program.tables) == 2
    assert sorted(program.routed) == (
        list(range(0, circuit.gate_count(), 2)) if routed else []
    )
    options = dict(gate_style=gate_style, net_loads=net_loads)
    expected_tables = oracle_gate_tables(reference, **options)
    assert len(program.gate_tables()) == len(expected_tables)
    for table, expected in zip(program.gate_tables(), expected_tables):
        assert table.variables == expected["variables"]
        for name in ARRAYS:
            if expected[name] is None:
                assert getattr(table, name) is None, name
            else:
                assert np.array_equal(getattr(table, name), expected[name]), name
    _assert_plans_equal(
        build_bitslice_plan(program),
        oracle_bitslice_plan(compile_circuit(reference, **options)),
    )
    traces = acquire_circuit_traces(circuit, key=0, trace_count=300, program=program)
    plaintexts, energies = oracle_traces(
        reference,
        300,
        stepped=False,
        gate_style=gate_style,
        tables=[GateTable(**table) for table in expected_tables],
    )
    assert np.array_equal(traces.plaintexts, plaintexts)
    assert np.array_equal(traces.traces, energies)


def _count_per_gate_builds(monkeypatch):
    """``(copies, instances)``: lists that grow by one per network copy and
    per :class:`GateInstance` built from here on."""
    copies, instances = [], []
    network_copy = DifferentialPullDownNetwork.copy
    gate_init = circuit_module.GateInstance.__init__

    def counting_copy(self, *args, **kwargs):
        copies.append(self.name)
        return network_copy(self, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        instances.append(args or kwargs)
        gate_init(self, *args, **kwargs)

    monkeypatch.setattr(DifferentialPullDownNetwork, "copy", counting_copy)
    monkeypatch.setattr(circuit_module.GateInstance, "__init__", counting_init)
    return copies, instances


def test_an_unrouted_campaign_builds_no_per_gate_object(monkeypatch):
    copies, instances = _count_per_gate_builds(monkeypatch)
    flow = DesignFlow(
        None,
        FlowConfig(
            name="no_gates",
            campaign=CampaignConfig(
                key=0x6B2A, scenario="present_round", network_style="genuine", trace_count=700
            ),
            scenario=ScenarioConfig(params={"sboxes": 4}),
        ),
    )
    flow.traces()
    assert flow.circuit().gate_count() == 4 * 124
    assert copies == [] and instances == []
    # The per-gate view is still there for whoever asks for it.
    assert len(flow.circuit().gates) == 4 * 124
    assert len(copies) == len(instances) == 4 * 124


@pytest.mark.parametrize("router", ["fat", "unbalanced"])
def test_a_routed_campaign_builds_no_per_gate_object(monkeypatch, router):
    # Place-and-route reads the array netlist only.
    copies, instances = _count_per_gate_builds(monkeypatch)
    flow = DesignFlow(
        None,
        FlowConfig(
            name="no_gates",
            campaign=CampaignConfig(
                key=0x6B, scenario="present_round", network_style="genuine", trace_count=300
            ),
            scenario=ScenarioConfig(params={"sboxes": 2}),
            layout=LayoutConfig(router=router),
        ),
    )
    flow.traces()
    assert flow.layout() is not None
    assert copies == [] and instances == []
