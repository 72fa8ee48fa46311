"""Placement and differential routing: legality, determinism, matching,
and bit-for-bit agreement with the original placer and maze router."""

from __future__ import annotations

import pytest

from repro.boolexpr import parse
from repro.electrical.technology import generic_130nm, generic_180nm
from repro.flow import CampaignConfig, DesignFlow, FlowConfig, ScenarioConfig
from repro.layout import (
    LayoutError,
    RoutingResult,
    extract_net_parasitics,
    known_routers,
    layout_circuit,
    net_terminals,
    place_circuit,
    route_circuit,
)
from repro.power.trace import build_sbox_circuit
from repro.sabl.circuit import map_expressions

from hypothesis import given, settings, strategies as st

from oracles import _hpwl, oracle_place_circuit, oracle_route_circuit

ROUTERS = ("fat", "diffpair", "unbalanced")


def small_circuit():
    """A handful of gates with shared fan-in and real outputs."""
    return map_expressions(
        {
            "F": parse("(A & B) | (C & ~A)"),
            "G": parse("(A | C) & (B | ~C)"),
        },
        primary_inputs=["A", "B", "C"],
        name="small",
    )


@pytest.fixture(scope="module")
def sbox_circuit():
    return build_sbox_circuit(0xB)


def present_round_circuit(sboxes, gate_style, network_style):
    """A PRESENT round slice of ``sboxes`` S-boxes, mapped for one style."""
    return DesignFlow(
        None,
        FlowConfig(
            name="layout_oracle",
            campaign=CampaignConfig(
                key=0xB if sboxes == 1 else 0x6B,
                scenario="present_round",
                gate_style=gate_style,
                network_style=network_style,
            ),
            scenario=ScenarioConfig(params={"sboxes": sboxes}),
        ),
    ).circuit()


#: Non-square grids catch a swapped ``rows``/``cols`` in a flat index.
GRIDS = st.sampled_from([None, (4, 6), (6, 4), (7, 3), (3, 7), (5, 5)])


class TestNetTerminals:
    def test_every_net_has_a_driver_and_known_sinks(self):
        circuit = small_circuit()
        terminals = net_terminals(circuit)
        assert set(terminals) == set(circuit.nets())
        gate_names = {gate.name for gate in circuit.gates}
        for terminal in terminals.values():
            if terminal.is_input:
                assert terminal.driver in circuit.primary_inputs
            else:
                assert terminal.driver in gate_names
            assert set(terminal.sinks) <= gate_names

    def test_outputs_are_exposed_on_their_nets(self):
        circuit = small_circuit()
        terminals = net_terminals(circuit)
        for name, net in circuit.outputs.items():
            assert name in terminals[net].output_names


class TestPlacement:
    def test_placement_is_legal(self):
        circuit = small_circuit()
        placement = place_circuit(circuit, seed=3)
        rows, cols = placement.grid
        sites = list(placement.gates.values())
        assert len(sites) == circuit.gate_count()
        assert len(set(sites)) == len(sites)  # one gate per site
        assert all(0 <= r < rows and 0 <= c < cols for r, c in sites)
        # pads hug the west/east edges
        assert all(c == 0 for _, c in placement.input_pads.values())
        assert all(c == cols - 1 for _, c in placement.output_pads.values())

    def test_deterministic_for_a_fixed_seed(self, sbox_circuit):
        first = place_circuit(sbox_circuit, seed=11, anneal_moves=300)
        second = place_circuit(sbox_circuit, seed=11, anneal_moves=300)
        assert first.gates == second.gates
        assert first.hpwl == second.hpwl

    def test_annealing_does_not_worsen_the_greedy_placement(self, sbox_circuit):
        placement = place_circuit(sbox_circuit, seed=11, anneal_moves=600)
        assert placement.hpwl <= placement.initial_hpwl

    def test_explicit_grid_is_honoured_and_validated(self):
        circuit = small_circuit()
        placement = place_circuit(circuit, grid=(4, 6), seed=0)
        assert placement.grid == (4, 6)
        with pytest.raises(LayoutError):
            place_circuit(circuit, grid=(1, 2), seed=0)  # too few sites

    def test_negative_anneal_moves_are_rejected(self):
        with pytest.raises(LayoutError, match="anneal_moves must be non-negative, got -1"):
            place_circuit(small_circuit(), anneal_moves=-1)

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        anneal_moves=st.integers(min_value=0, max_value=300),
        grid=GRIDS,
    )
    def test_hpwl_is_the_pin_site_rule(self, seed, anneal_moves, grid):
        # The annealer's per-net bounds and the router's pin sites are one
        # geometry rule: the reported HPWL is the sum over pin_sites.
        circuit = small_circuit()
        placement = place_circuit(
            circuit, grid=grid, seed=seed, anneal_moves=anneal_moves
        )
        terminals = net_terminals(circuit).values()
        assert placement.hpwl == sum(_hpwl(placement.pin_sites(t)) for t in terminals)

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_any_seed_yields_a_legal_placement(self, seed):
        circuit = small_circuit()
        placement = place_circuit(circuit, seed=seed, anneal_moves=120)
        sites = list(placement.gates.values())
        assert len(set(sites)) == len(sites)
        rows, cols = placement.grid
        assert all(0 <= r < rows and 0 <= c < cols for r, c in sites)


def _tree_is_connected(cells, pins):
    cells = set(cells)
    assert set(pins) <= cells, "a pin site is missing from the routed tree"
    seen = {next(iter(cells))}
    frontier = [next(iter(seen))]
    while frontier:
        row, col = frontier.pop()
        for neighbour in ((row - 1, col), (row + 1, col), (row, col - 1), (row, col + 1)):
            if neighbour in cells and neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen == cells


class TestRouting:
    def test_builtin_modes_are_registered(self):
        assert {"fat", "diffpair", "unbalanced"} <= set(known_routers())

    @pytest.mark.parametrize("router", ["fat", "diffpair", "unbalanced"])
    def test_every_net_is_routed_and_connected(self, router):
        circuit = small_circuit()
        placement = place_circuit(circuit, seed=5)
        routing = route_circuit(circuit, placement, router=router)
        assert isinstance(routing, RoutingResult)
        terminals = net_terminals(circuit)
        assert set(routing.nets) == set(circuit.nets())
        for net, routed in routing.nets.items():
            terminal = terminals[net]
            pins = [
                placement.input_pads[terminal.driver]
                if terminal.is_input
                else placement.gates[terminal.driver]
            ]
            pins.extend(placement.gates[sink] for sink in terminal.sinks)
            pins.extend(placement.output_pads[o] for o in terminal.output_names)
            assert _tree_is_connected(routed.true_cells, pins)
            assert _tree_is_connected(routed.false_cells, pins)

    def test_fat_pairs_have_exactly_equal_rails(self, sbox_circuit):
        placement = place_circuit(sbox_circuit, seed=7, anneal_moves=300)
        routing = route_circuit(sbox_circuit, placement, router="fat")
        for routed in routing.nets.values():
            assert routed.true_length == routed.false_length
            assert routed.true_cells == routed.false_cells
        assert routing.max_mismatch == 0

    def test_unbalanced_sbox_routing_has_nonzero_mismatch(self, sbox_circuit):
        # The acceptance pin: independent rails through real congestion
        # cannot stay matched on the paper's S-box circuit.
        layout = layout_circuit(sbox_circuit, generic_180nm(), router="unbalanced", seed=7)
        assert layout.routing.max_mismatch > 0
        loads = layout.parasitics.rail_loads()
        assert any(abs(ct - cf) > 0 for ct, cf in loads.values())

    def test_routing_is_deterministic(self, sbox_circuit):
        placement = place_circuit(sbox_circuit, seed=9, anneal_moves=200)
        first = route_circuit(sbox_circuit, placement, router="unbalanced")
        second = route_circuit(sbox_circuit, placement, router="unbalanced")
        assert {n: (r.true_length, r.false_length) for n, r in first.nets.items()} == {
            n: (r.true_length, r.false_length) for n, r in second.nets.items()
        }

    @pytest.mark.parametrize("router", ROUTERS)
    def test_layout_builds_the_pin_structure_once(self, monkeypatch, router):
        # layout_circuit hands one net_terminals result to the placer and
        # the router; the layout equals the one built from two calls.
        import repro.layout as layout_package
        import repro.layout.place as place_module
        import repro.layout.route as route_module

        circuit = small_circuit()
        expected_placement = place_circuit(circuit, seed=3, anneal_moves=200)
        expected_routing = route_circuit(circuit, expected_placement, router=router)
        calls = []

        def counting(circuit):
            calls.append(circuit)
            return net_terminals(circuit)

        for module in (layout_package, place_module, route_module):
            monkeypatch.setattr(module, "net_terminals", counting)
        layout = layout_circuit(circuit, router=router, seed=3, anneal_moves=200)
        assert len(calls) == 1
        assert layout.placement == expected_placement
        assert layout.routing == expected_routing

    def test_unknown_router_lists_available(self):
        circuit = small_circuit()
        placement = place_circuit(circuit, seed=0)
        with pytest.raises(KeyError, match="unknown router"):
            route_circuit(circuit, placement, router="steiner")

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_fat_matching_holds_for_every_placement_seed(self, seed):
        circuit = small_circuit()
        layout = layout_circuit(
            circuit, generic_180nm(), router="fat", seed=seed, anneal_moves=120
        )
        assert layout.routing.max_mismatch == 0
        assert layout.parasitics.max_mismatch() == 0.0


class TestOracleEquivalence:
    """The flat-index placer and router reproduce the originals exactly."""

    @pytest.mark.parametrize(
        "sboxes, gate_style, network_style",
        [
            (sboxes, gate_style, network_style)
            for sboxes in (1, 2, 4)
            for gate_style, network_style in (("sabl", "fc"), ("cvsl", "genuine"))
        ],
    )
    def test_present_round_slices(self, sboxes, gate_style, network_style):
        circuit = present_round_circuit(sboxes, gate_style, network_style)
        placement = place_circuit(circuit)
        assert placement == oracle_place_circuit(circuit)
        for router in ROUTERS:
            routing = route_circuit(circuit, placement, router=router)
            assert routing == oracle_route_circuit(circuit, placement, router)

    @pytest.mark.parametrize("router", ROUTERS)
    def test_sbox_circuit(self, sbox_circuit, router):
        placement = place_circuit(sbox_circuit, seed=7)
        assert placement == oracle_place_circuit(sbox_circuit, seed=7)
        routing = route_circuit(sbox_circuit, placement, router=router)
        assert routing == oracle_route_circuit(sbox_circuit, placement, router)

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        anneal_moves=st.integers(min_value=0, max_value=300),
        grid=GRIDS,
    )
    def test_small_circuit_on_any_grid(self, seed, anneal_moves, grid):
        circuit = small_circuit()
        placement = place_circuit(
            circuit, grid=grid, seed=seed, anneal_moves=anneal_moves
        )
        assert placement == oracle_place_circuit(
            circuit, grid=grid, seed=seed, anneal_moves=anneal_moves
        )
        for router in ROUTERS:
            routing = route_circuit(circuit, placement, router=router)
            assert routing == oracle_route_circuit(circuit, placement, router)


class TestParasitics:
    def test_lengths_scale_with_the_technology_constants(self, sbox_circuit):
        placement = place_circuit(sbox_circuit, seed=7, anneal_moves=200)
        routing = route_circuit(sbox_circuit, placement, router="fat")
        table_180 = extract_net_parasitics(routing, generic_180nm())
        table_130 = extract_net_parasitics(routing, generic_130nm())
        for net, routed in routing.nets.items():
            tech = generic_180nm()
            expected = routed.true_length * tech.route_pitch_um * tech.c_wire_per_um
            assert table_180.pair_capacitance[net][0] == pytest.approx(expected)
        # same geometry, different constants: strictly smaller caps at 130nm
        assert table_130.total_wirelength_um() < table_180.total_wirelength_um()

    def test_annotatable_excludes_pad_driven_inputs(self, sbox_circuit):
        layout = layout_circuit(sbox_circuit, generic_180nm(), router="fat", seed=7)
        loads = layout.parasitics.rail_loads()
        assert set(loads) == {gate.output_net for gate in sbox_circuit.gates}
        for primary in sbox_circuit.primary_inputs:
            assert primary not in loads
            assert primary in layout.parasitics.pair_capacitance

    def test_to_dict_round_trips_to_json(self, sbox_circuit):
        import json

        layout = layout_circuit(sbox_circuit, generic_180nm(), router="diffpair", seed=7)
        record = json.loads(json.dumps(layout.parasitics.to_dict()))
        assert record["router"] == "diffpair"
        assert record["pairs"] == len(sbox_circuit.nets())
        assert record["total_wirelength_um"] > 0
