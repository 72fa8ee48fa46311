"""Gate templates: one synthesis and one event walk per distinct gate network.

:func:`~repro.sabl.circuit.map_expressions` synthesises each
``(operator, fan-in)`` network once per call and gives every gate its
own copy; :func:`~repro.sabl.simulator.build_gate_tables` walks the
input events of each distinct network structure once and shares the
arrays, read-only, between its gates.  These tests pin both against
the per-gate builds they replace: the per-gate table loop restated in
``tests/oracles.py`` and a fresh synthesis for every gate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolexpr.ast import Var
from repro.boolexpr.parser import parse
from repro.core.synthesis import synthesize_fc_dpdn
from repro.electrical.energy import EventEnergyModel
from repro.electrical.technology import generic_180nm
from repro.flow import CampaignConfig, DesignFlow, FlowConfig, ScenarioConfig
from repro.kernel import compile_circuit
from repro.layout import layout_circuit
from repro.network.build import build_genuine_dpdn
from repro.network.netlist import Literal
from repro.obs import BufferSink, Observer, use_observer
from repro.power.trace import build_sbox_circuit
from repro.sabl.circuit import DifferentialCircuit, GateInstance, map_expressions
from repro.sabl import simulator
from repro.sabl.simulator import build_gate_tables, build_template_tables

from oracles import oracle_gate_tables

ARRAYS = ("internal_caps", "connected", "baseline", "cap_dot", "extra")

#: Outputs that map to 2-, 3- and 4-input gates of both operators at
#: ``max_fanin`` 2-4, plus a complemented literal output (a buffer gate).
MIXED = {
    "F": parse("(A & B & C) | ~D"),
    "G": parse("~B"),
    "H": parse("A | B | C | D | E"),
    "K": parse("(A | ~C) & (B | D | ~E) & C"),
}


def _assert_tables_equal(tables, reference):
    assert len(tables) == len(reference)
    for table, expected in zip(tables, reference):
        assert table.variables == expected["variables"]
        for name in ARRAYS:
            actual, wanted = getattr(table, name), expected[name]
            if wanted is None:
                assert actual is None, name
                continue
            assert actual.dtype == wanted.dtype, name
            assert np.array_equal(actual, wanted), name


@pytest.fixture(scope="module")
def routed_loads():
    """``rail_loads()`` of each (network style, fan-in, router) S-box layout."""
    cache = {}

    def loads(network_style, max_fanin, router):
        key = (network_style, max_fanin, router)
        if key not in cache:
            circuit = build_sbox_circuit(0xB, network_style=network_style, max_fanin=max_fanin)
            layout = layout_circuit(circuit, generic_180nm(), router=router, seed=7)
            cache[key] = layout.parasitics.rail_loads()
        return cache[key]

    return loads


class TestGateTables:
    @pytest.mark.parametrize("router", [None, "fat", "unbalanced"])
    @pytest.mark.parametrize("max_fanin", [2, 3, 4])
    @pytest.mark.parametrize("network_style", ["fc", "genuine"])
    @pytest.mark.parametrize("gate_style", ["sabl", "cvsl"])
    def test_equal_to_the_per_gate_build(
        self, routed_loads, gate_style, network_style, max_fanin, router
    ):
        circuit = build_sbox_circuit(0xB, network_style=network_style, max_fanin=max_fanin)
        net_loads = None
        if router is not None:
            net_loads = routed_loads(network_style, max_fanin, router)
            # Every gate is routed, and the wire loads differ from net to net.
            assert set(net_loads) == {gate.output_net for gate in circuit.gates}
            assert len(set(net_loads.values())) > 1
        if max_fanin > 2:
            assert len({len(gate.connections) for gate in circuit.gates}) > 1
        kwargs = dict(gate_style=gate_style, net_loads=net_loads)
        _assert_tables_equal(
            build_gate_tables(circuit, **kwargs), oracle_gate_tables(circuit, **kwargs)
        )

    @pytest.mark.parametrize("max_fanin", [2, 3, 4])
    def test_mixed_arities_and_output_load(self, max_fanin):
        circuit = map_expressions(MIXED, max_fanin=max_fanin, network_style="genuine")
        kwargs = dict(gate_style="cvsl", output_load=3e-15)
        _assert_tables_equal(
            build_gate_tables(circuit, **kwargs), oracle_gate_tables(circuit, **kwargs)
        )

    def test_one_walk_per_network_structure(self):
        circuit = build_sbox_circuit(0xB)
        loads = {gate.output_net: (1e-15, 2e-15 + index * 1e-18)
                 for index, gate in enumerate(circuit.gates[::2])}
        tables = build_gate_tables(circuit, net_loads=loads)
        # A 2-input AND and a 2-input OR: two walks for 124 gates.
        assert len({id(table.connected) for table in tables}) == 2
        for gate, table in zip(circuit.gates, tables):
            routed = gate.output_net in loads
            assert (table.extra is not None) == routed
        routed = [table for table in tables if table.extra is not None]
        assert len({id(table.baseline) for table in routed}) == len(routed)

    def test_arrays_are_read_only(self):
        circuit = build_sbox_circuit(0xB, network_style="genuine")
        loads = {gate.output_net: (1e-15, 2e-15) for gate in circuit.gates}
        tables = build_gate_tables(circuit, net_loads=loads)
        for table in tables:
            for name in ARRAYS:
                assert not getattr(table, name).flags.writeable, name
        first = tables[0]
        sibling = next(t for t in tables[1:] if t.connected is first.connected)
        before = sibling.connected.copy()
        for name in ARRAYS:
            array = getattr(first, name)
            index = (0,) * array.ndim
            with pytest.raises(ValueError, match="read-only"):
                array[index] = not array[index]
        assert np.array_equal(sibling.connected, before)

    def test_a_mutated_gate_gets_its_own_walk(self):
        # Hand-built gates are their own templates: changing one's
        # network is what the table build sees.
        mapped = build_sbox_circuit(0xB, network_style="genuine")
        circuit = DifferentialCircuit(mapped.primary_inputs, name=mapped.name)
        for gate in mapped.gates:
            circuit.add_gate(gate)
        moved, grown, untouched = circuit.gates[:3]
        device = moved.dpdn.transistors[0]
        moved.dpdn.move_terminal(device.name, device.source, "spare")
        grown.dpdn.add_transistor(Literal("in0"), grown.dpdn.x, "spare")
        assert len(moved.dpdn) == len(untouched.dpdn)
        tables = build_gate_tables(circuit)
        _assert_tables_equal(tables, oracle_gate_tables(circuit))
        assert len({id(table.connected) for table in tables[:3]}) == 3


#: A rail capacitance [farad]: zero up to well past any routed pair.
_CAPACITANCE = st.floats(min_value=0.0, max_value=1e-13)

#: One gate's wire load: unrouted (``None``), a random pair, a matched
#: pair, or a pair with a zero (signed zeros included) on either rail.
_WIRE_LOADS = st.one_of(
    st.none(),
    st.tuples(_CAPACITANCE, _CAPACITANCE),
    _CAPACITANCE.map(lambda c: (c, c)),
    _CAPACITANCE.map(lambda c: (0.0, c)),
    _CAPACITANCE.map(lambda c: (c, -0.0)),
    st.sampled_from([(0.0, 0.0), (-0.0, 0.0)]),
)

_MIXED_CIRCUITS = {
    style: map_expressions(MIXED, max_fanin=3, network_style=style)
    for style in ("fc", "genuine")
}


class TestRoutedTables:
    """The routed gates' tables, built per template on arrays, are the
    per-gate charge models' byte for byte."""

    @pytest.mark.parametrize("network_style", ["fc", "genuine"])
    @pytest.mark.parametrize("gate_style", ["sabl", "cvsl"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_equal_to_the_per_gate_models(self, gate_style, network_style, data):
        circuit = _MIXED_CIRCUITS[network_style]
        gates = circuit.gates
        pairs = data.draw(st.lists(_WIRE_LOADS, min_size=len(gates), max_size=len(gates)))
        swapped = [None if pair is None else pair[::-1] for pair in pairs]
        technology = generic_180nm()
        for loads in (pairs, swapped):
            net_loads = {
                gate.output_net: pair for gate, pair in zip(gates, loads) if pair is not None
            }
            tables = build_gate_tables(circuit, gate_style=gate_style, net_loads=net_loads)
            reference = oracle_gate_tables(
                circuit, gate_style=gate_style, net_loads=net_loads
            )
            _assert_tables_equal(tables, reference)
            for gate, table, expected in zip(gates, tables, reference):
                pair = net_loads.get(gate.output_net)
                if pair is None:
                    assert table.extra is None
                    continue
                # Byte for byte: array_equal would let -0.0 match 0.0.
                assert table.baseline.tobytes() == expected["baseline"].tobytes()
                model = EventEnergyModel(
                    gate.dpdn, technology, style=gate_style, wire_load=pair
                )
                excess = [
                    model.swing_excess(
                        bool(gate.dpdn.function.evaluate(dict(zip(table.variables, bits))))
                    )
                    for bits in _event_bits(len(table.variables))
                ]
                assert table.extra.tobytes() == np.array(excess).tobytes()

    def test_held_as_arrays_per_template(self):
        circuit = _MIXED_CIRCUITS["genuine"]
        gates = circuit.gates
        rows = list(range(1, len(gates), 2))
        net_loads = {gates[row].output_net: (1e-15 * row, 2e-15) for row in rows}
        tables, routed = build_template_tables(circuit, net_loads=net_loads)
        assert len(routed) == len(rows)
        assert list(routed) == rows
        assert 0 not in routed and rows[0] in routed
        with pytest.raises(KeyError):
            routed[0]
        templates = circuit.gate_template
        assert [group.template for group in routed.groups] == sorted(
            set(templates[rows].tolist())
        )
        expected = build_gate_tables(circuit, net_loads=net_loads)
        for group in routed.groups:
            assert (templates[group.rows] == group.template).all()
            assert not group.baseline.flags.writeable
            for position, row in enumerate(group.rows.tolist()):
                table = routed[row]
                assert table.connected is tables[group.template].connected
                assert table.baseline.tobytes() == group.baseline[position].tobytes()
                assert table.extra.tobytes() == expected[row].extra.tobytes()

    def test_compiling_builds_no_per_gate_table(self, routed_loads, monkeypatch):
        # The kernel reads the routed groups' arrays; a per-gate table is
        # built only when a reference model looks one up.
        circuit = build_sbox_circuit(0xB)
        loads = routed_loads("fc", 2, "unbalanced")
        reference = compile_circuit(circuit, net_loads=loads).energy_table()

        def refuse(*args, **kwargs):
            raise AssertionError("a per-gate table was built")

        monkeypatch.setattr(simulator, "_share", refuse)
        program = compile_circuit(circuit, net_loads=loads)
        assert len(program.routed) == len(circuit.gates)
        assert program.energy_table().tobytes() == reference.tobytes()

    @pytest.mark.parametrize(
        "load, message",
        [
            ((-1e-15, 1e-15), "must be non-negative"),
            ((1e-15, float("nan")), "must be non-negative"),
        ],
    )
    def test_a_bad_wire_load_is_refused(self, load, message):
        circuit = _MIXED_CIRCUITS["fc"]
        with pytest.raises(ValueError, match=message):
            build_gate_tables(circuit, net_loads={circuit.gates[1].output_net: load})


def _event_bits(width):
    """Every event's variable values, little-endian by event index."""
    return [[bool((index >> bit) & 1) for bit in range(width)] for index in range(1 << width)]


def _per_gate_circuit(circuit, network_style):
    """``circuit`` with a freshly synthesised network for every gate."""
    build = synthesize_fc_dpdn if network_style == "fc" else build_genuine_dpdn
    reference = DifferentialCircuit(circuit.primary_inputs, name=circuit.name)
    for gate in circuit.gates:
        operator = type(gate.dpdn.function)
        function = operator(*(Var(f"in{i}") for i in range(len(gate.connections))))
        reference.add_gate(
            GateInstance(
                name=gate.name,
                dpdn=build(function, name=gate.name),
                connections=dict(gate.connections),
                output_net=gate.output_net,
            )
        )
    for name, net in circuit.outputs.items():
        reference.set_output(name, net)
    return reference


class TestMapping:
    @pytest.mark.parametrize("max_fanin", [2, 3, 4])
    @pytest.mark.parametrize("network_style", ["fc", "genuine"])
    @pytest.mark.parametrize("source", ["sbox", "mixed"])
    def test_equal_to_per_gate_synthesis(self, source, network_style, max_fanin):
        if source == "sbox":
            circuit = build_sbox_circuit(0xB, network_style=network_style, max_fanin=max_fanin)
        else:
            circuit = map_expressions(MIXED, max_fanin=max_fanin, network_style=network_style)
        reference = _per_gate_circuit(circuit, network_style)
        assert circuit.describe() == reference.describe()
        for gate, expected in zip(circuit.gates, reference.gates):
            assert gate.dpdn.name == gate.name
            assert gate.dpdn.transistors == expected.dpdn.transistors
            assert gate.dpdn.function == expected.dpdn.function
            assert gate.dpdn.external_nodes == expected.dpdn.external_nodes
            assert gate.dpdn.internal_nodes() == expected.dpdn.internal_nodes()
            assert gate.dpdn.describe() == expected.dpdn.describe()
        assert len({id(gate.dpdn) for gate in circuit.gates}) == len(circuit.gates)

    def test_mutating_a_gate_leaves_its_siblings_unchanged(self):
        circuit = build_sbox_circuit(0xB)
        first = circuit.gates[0]
        siblings = [
            gate for gate in circuit.gates[1:]
            if gate.dpdn.transistors == first.dpdn.transistors
        ]
        assert siblings
        snapshot = [gate.dpdn.describe() for gate in siblings]
        device = first.dpdn.transistors[0]
        first.dpdn.remove_transistor(device.name)
        first.dpdn.add_transistor(device.gate, device.drain, "spare", name=device.name)
        assert first.dpdn.transistors != siblings[0].dpdn.transistors
        assert [gate.dpdn.describe() for gate in siblings] == snapshot
        # A later mapping does not see the mutation either.
        again = build_sbox_circuit(0xB)
        assert again.gates[0].dpdn.transistors == siblings[0].dpdn.transistors


def _present_round_circuit(sboxes, network_style):
    return DesignFlow(
        None,
        FlowConfig(
            name="gate_templates",
            campaign=CampaignConfig(
                key=0x6B, scenario="present_round", network_style=network_style
            ),
            scenario=ScenarioConfig(params={"sboxes": sboxes}),
        ),
    ).circuit()


@pytest.mark.parametrize("network_style", ["fc", "genuine"])
@pytest.mark.parametrize("gate_style", ["sabl", "cvsl"])
def test_gate_templates_counter(gate_style, network_style):
    circuit = _present_round_circuit(4, network_style)
    assert len(circuit.gates) == 4 * 124
    buffer = []
    with use_observer(Observer((BufferSink(buffer),))):
        compile_circuit(circuit, gate_style=gate_style)
    counters = {e["name"]: e["value"] for e in buffer if e["kind"] == "counter"}
    assert counters["kernel.gate_templates"] == 2


def test_compile_reports_its_routed_gates(routed_loads):
    circuit = build_sbox_circuit(0xB)
    loads = routed_loads("fc", 2, "fat")
    routed = dict(list(loads.items())[:50])
    for net_loads, count in ((None, 0), (loads, len(circuit.gates)), (routed, 50)):
        buffer = []
        with use_observer(Observer((BufferSink(buffer),))):
            compile_circuit(circuit, net_loads=net_loads)
        (event,) = [e for e in buffer if e["name"] == "kernel.compile_s"]
        assert event["attrs"]["routed"] == count
        assert event["attrs"]["gates"] == len(circuit.gates)
