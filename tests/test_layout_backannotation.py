"""Back-annotated parasitics in the energy models: identity and leakage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.boolexpr import parse
from repro.core.synthesis import synthesize_fc_dpdn
from repro.electrical.capacitance import extract_capacitances
from repro.electrical.energy import CycleEnergySimulator, EventEnergyModel
from repro.electrical.technology import Technology, generic_180nm
from repro.flow import TechnologyConfig
from repro.layout import layout_circuit
from repro.power.trace import acquire_circuit_traces, build_sbox_circuit
from repro.sabl.simulator import BatchedCircuitEnergyModel, CircuitPowerSimulator

from oracles import oracle_traces


@pytest.fixture(scope="module")
def circuit():
    return build_sbox_circuit(0xB)


def uniform_loads(circuit, value):
    return {gate.output_net: (value, value) for gate in circuit.gates}


class TestTechnologyCard:
    """Satellite: the new per-um constants are first-class card fields."""

    def test_describe_includes_the_wire_constants(self):
        text = generic_180nm().describe()
        assert "c_wire_per_um" in text
        assert "route_pitch" in text

    def test_scaled_round_trips_the_new_fields(self):
        scaled = generic_180nm().scaled(c_wire_per_um=0.5e-15, route_pitch_um=3.5)
        assert scaled.c_wire_per_um == 0.5e-15
        assert scaled.route_pitch_um == 3.5
        # every other field survives the override untouched
        base = generic_180nm()
        assert scaled.scaled(
            c_wire_per_um=base.c_wire_per_um, route_pitch_um=base.route_pitch_um
        ) == base

    def test_every_field_survives_a_scaled_identity_pass(self):
        from dataclasses import fields

        base = generic_180nm()
        values = {f.name: getattr(base, f.name) for f in fields(Technology)}
        assert base.scaled(**values) == base

    def test_technology_config_accepts_the_new_overrides(self):
        config = TechnologyConfig(overrides={"c_wire_per_um": 0.3e-15})
        assert config.overrides["c_wire_per_um"] == 0.3e-15


class TestExtractionOverrides:
    def test_wire_overrides_replace_the_class_constant(self):
        dpdn = synthesize_fc_dpdn(parse("A & B"))
        tech = generic_180nm()
        base = extract_capacitances(dpdn, tech)
        routed = extract_capacitances(
            dpdn, tech, wire_overrides={dpdn.x: 5e-15, dpdn.y: 1e-15}
        )
        delta_x = routed.capacitance(dpdn.x) - base.capacitance(dpdn.x)
        delta_y = routed.capacitance(dpdn.y) - base.capacitance(dpdn.y)
        assert delta_x == pytest.approx(5e-15 - tech.c_wire_output)
        assert delta_y == pytest.approx(1e-15 - tech.c_wire_output)

    def test_uniform_override_is_bit_identical(self):
        dpdn = synthesize_fc_dpdn(parse("(A | B) & C"))
        tech = generic_180nm()
        base = extract_capacitances(dpdn, tech)
        uniform = extract_capacitances(
            dpdn,
            tech,
            wire_overrides={dpdn.x: tech.c_wire_output, dpdn.y: tech.c_wire_output},
        )
        assert dict(base.node_capacitance) == dict(uniform.node_capacitance)

    def test_unknown_override_node_is_rejected(self):
        dpdn = synthesize_fc_dpdn(parse("A & B"))
        with pytest.raises(ValueError, match="unknown nodes"):
            extract_capacitances(dpdn, generic_180nm(), wire_overrides={"nope": 1e-15})


class TestSwingExcess:
    def test_matched_pair_has_zero_excess(self):
        dpdn = synthesize_fc_dpdn(parse("A & B"))
        model = EventEnergyModel(dpdn, wire_load=(2e-15, 2e-15))
        assert model.swing_excess(True) == 0.0
        assert model.swing_excess(False) == 0.0

    def test_heavier_rail_pays_its_excess(self):
        dpdn = synthesize_fc_dpdn(parse("A & B"))
        model = EventEnergyModel(dpdn, wire_load=(3e-15, 2e-15))
        assert model.swing_excess(True) == pytest.approx(1e-15)
        assert model.swing_excess(False) == 0.0

    def test_mismatch_makes_the_event_energy_value_dependent(self):
        dpdn = synthesize_fc_dpdn(parse("A & B"))
        matched = EventEnergyModel(dpdn, wire_load=(2e-15, 2e-15))
        skewed = EventEnergyModel(dpdn, wire_load=(4e-15, 2e-15))
        high = {"A": True, "B": True}   # output 1: true rail swings
        low = {"A": False, "B": False}  # output 0: false rail swings
        assert matched.event_energy(high) == pytest.approx(matched.event_energy(low))
        assert skewed.event_energy(high) > skewed.event_energy(low)

    def test_wire_load_requires_a_function_annotation(self):
        from repro.network.netlist import DifferentialPullDownNetwork, Literal

        dpdn = DifferentialPullDownNetwork(name="bare")
        dpdn.add_transistor(Literal("A"), dpdn.x, dpdn.z)
        dpdn.add_transistor(Literal("A", False), dpdn.y, dpdn.z)
        with pytest.raises(ValueError, match="function annotation"):
            EventEnergyModel(dpdn, wire_load=(1e-15, 2e-15))


class TestStreamIdentity:
    """The acceptance pins: uniform annotation == legacy, bit for bit."""

    @pytest.mark.parametrize("gate_style", ["sabl", "cvsl"])
    def test_uniform_c_wire_output_reproduces_legacy_streams(self, circuit, gate_style):
        tech = generic_180nm()
        legacy = acquire_circuit_traces(circuit, 0xB, 160, gate_style=gate_style)
        annotated = acquire_circuit_traces(
            circuit,
            0xB,
            160,
            gate_style=gate_style,
            net_loads=uniform_loads(circuit, tech.c_wire_output),
        )
        assert np.array_equal(legacy.plaintexts, annotated.plaintexts)
        assert np.array_equal(legacy.traces, annotated.traces)

    def test_batched_and_sequential_agree_with_mismatched_loads(self, circuit):
        layout = layout_circuit(circuit, generic_180nm(), router="unbalanced", seed=7)
        loads = layout.parasitics.rail_loads()
        batched = acquire_circuit_traces(circuit, 0xB, 120, net_loads=loads)
        _, sequential = oracle_traces(circuit, 120, net_loads=loads)
        assert np.array_equal(batched.traces, sequential)

    def test_simulators_see_per_gate_loads(self, circuit):
        loads = uniform_loads(circuit, 2e-15)
        loads.pop(circuit.gates[0].output_net)  # absent nets keep the constant
        for simulator_cls in (CircuitPowerSimulator, BatchedCircuitEnergyModel):
            simulator_cls(circuit, net_loads=loads)  # construction validates

    def test_fat_routing_keeps_the_circuit_constant_power(self, circuit):
        layout = layout_circuit(circuit, generic_180nm(), router="fat", seed=7)
        traces = acquire_circuit_traces(
            circuit, 0xB, 200, net_loads=layout.parasitics.rail_loads()
        )
        spread = np.ptp(traces.traces) / np.mean(traces.traces)
        assert spread < 1e-12  # constant up to float round-off

    def test_unbalanced_routing_breaks_constant_power(self, circuit):
        layout = layout_circuit(circuit, generic_180nm(), router="unbalanced", seed=7)
        traces = acquire_circuit_traces(
            circuit, 0xB, 200, net_loads=layout.parasitics.rail_loads()
        )
        spread = np.ptp(traces.traces) / np.mean(traces.traces)
        assert spread > 1e-6

    @pytest.mark.parametrize("style", ["sabl", "cvsl"])
    def test_cycle_simulator_charges_the_excess_exactly_once(self, style):
        # The imbalance excess must be charged once per selecting cycle
        # for *every* style: SABL discharges both outputs (the matched
        # baseline cancels), CVSL only the conducting one -- the matched
        # baseline keeps that accounting data-independent too.
        dpdn = synthesize_fc_dpdn(parse("A & B"))
        tech = generic_180nm()
        matched = CycleEnergySimulator(dpdn, tech, style=style, wire_load=(2e-15, 2e-15))
        skewed = CycleEnergySimulator(dpdn, tech, style=style, wire_load=(3e-15, 2e-15))
        high = {"A": True, "B": True}   # output 1: true (heavier) rail swings
        low = {"A": False, "B": False}  # output 0: false rail swings
        matched_records = matched.run([high, low])
        skewed_records = skewed.run([high, low])
        # output-1 cycles pay exactly the 1 fF excess over the matched pair...
        assert skewed_records[0].energy - matched_records[0].energy == pytest.approx(
            tech.switching_energy(1e-15)
        )
        # ...and output-0 cycles pay nothing extra
        assert skewed_records[1].energy == pytest.approx(matched_records[1].energy)

    def test_sabl_matched_pair_stays_constant_power(self):
        dpdn = synthesize_fc_dpdn(parse("A & B"))
        matched = CycleEnergySimulator(dpdn, generic_180nm(), wire_load=(2e-15, 2e-15))
        high = {"A": True, "B": True}
        low = {"A": False, "B": False}
        records = matched.run([high, low])
        assert records[0].energy == pytest.approx(records[1].energy)

    def test_explicit_capacitances_conflict_with_wire_load(self):
        dpdn = synthesize_fc_dpdn(parse("A & B"))
        tech = generic_180nm()
        with pytest.raises(ValueError, match="not both"):
            EventEnergyModel(
                dpdn,
                tech,
                capacitances=extract_capacitances(dpdn, tech),
                wire_load=(1e-15, 2e-15),
            )
