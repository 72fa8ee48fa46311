"""Unit tests for connectivity / floating-node / depth analysis."""

import pytest

from repro.boolexpr import parse
from repro.core import synthesize_fc_dpdn
from repro.network import (
    branch_conducts,
    complementary_assignments,
    conducting_components,
    conducting_paths,
    conduction_table,
    discharged_nodes,
    evaluation_depth,
    evaluation_depths,
    floating_internal_nodes,
    full_connectivity_report,
    is_fully_connected,
    build_genuine_dpdn,
    nodes_connected_to,
    path_variables,
    structural_paths,
)
from strategies import HAVE_HYPOTHESIS, expression_strategy


class TestComplementaryAssignments:
    def test_count(self):
        assert len(list(complementary_assignments(["A", "B", "C"]))) == 8

    def test_single_variable(self):
        assert list(complementary_assignments(["A"])) == [{"A": False}, {"A": True}]


class TestFloatingNodes:
    def test_genuine_and2_floats_node_w_for_00(self, and2_genuine):
        # The paper's Fig. 2 discussion: with A=B=0 the internal node W is
        # disconnected from both X and Z and keeps its charge.
        floating = floating_internal_nodes(and2_genuine, {"A": False, "B": False})
        assert len(floating) == 1

    def test_genuine_and2_discharges_node_w_for_11(self, and2_genuine):
        assert floating_internal_nodes(and2_genuine, {"A": True, "B": True}) == set()

    def test_fc_and2_never_floats(self, and2_fc):
        for assignment in complementary_assignments(["A", "B"]):
            assert floating_internal_nodes(and2_fc, assignment) == set()

    def test_discharged_nodes_always_contain_externals(self, and2_genuine):
        for assignment in complementary_assignments(["A", "B"]):
            discharged = discharged_nodes(and2_genuine, assignment)
            assert {"X", "Y", "Z"} <= discharged


class TestFullConnectivity:
    def test_genuine_is_not_fully_connected(self, and2_genuine):
        assert not is_fully_connected(and2_genuine)

    def test_fc_is_fully_connected(self, and2_fc):
        assert is_fully_connected(and2_fc)

    def test_network_without_internal_nodes_is_trivially_fc(self):
        dpdn = build_genuine_dpdn(parse("A"))
        assert is_fully_connected(dpdn)

    def test_report_covers_every_event(self, and2_genuine):
        report = full_connectivity_report(and2_genuine)
        assert len(report) == 4
        floating_events = [record for record in report if record.floating]
        assert len(floating_events) == 1
        assert not floating_events[0].is_fully_connected


class TestBranchConduction:
    def test_exactly_one_branch_conducts(self, and2_fc):
        for assignment in complementary_assignments(["A", "B"]):
            x_on = branch_conducts(and2_fc, assignment, and2_fc.x)
            y_on = branch_conducts(and2_fc, assignment, and2_fc.y)
            assert x_on != y_on

    def test_components_partition_nodes(self, and2_genuine):
        components = conducting_components(and2_genuine, {"A": True, "B": False})
        all_nodes = sorted(node for component in components for node in component)
        assert all_nodes == sorted(and2_genuine.nodes())


class TestPathsAndDepth:
    def test_conducting_path_of_and2_11(self, and2_fc):
        paths = conducting_paths(and2_fc, {"A": True, "B": True}, "X", "Z")
        assert any(path_variables(path) == {"A", "B"} for path in paths)

    def test_structural_paths_superset_of_conducting(self, and2_fc):
        structural = structural_paths(and2_fc, "X", "Z")
        conducting = conducting_paths(and2_fc, {"A": True, "B": True}, "X", "Z")
        assert len(structural) >= len(conducting)

    def test_evaluation_depth_of_genuine_and2_varies(self, and2_genuine):
        depths = set(evaluation_depths(and2_genuine).values())
        assert depths == {1, 2}

    def test_evaluation_depth_of_fc_and2(self, and2_fc):
        depths = evaluation_depths(and2_fc)
        assert depths[(("A", False), ("B", False))] == 1
        assert depths[(("A", True), ("B", True))] == 2

    def test_depth_none_for_non_conducting_network(self):
        # A deliberately broken single-branch network: Y never conducts.
        from repro.network import DifferentialPullDownNetwork, Literal

        dpdn = DifferentialPullDownNetwork("broken")
        dpdn.add_transistor(Literal("A", True), "X", "n1")
        assert evaluation_depth(dpdn, {"A": False}) is None

    def test_fc_synthesis_of_three_input_gate_depths(self):
        dpdn = synthesize_fc_dpdn(parse("A & B & C"))
        depths = [depth for depth in evaluation_depths(dpdn).values()]
        assert all(depth is not None for depth in depths)
        assert max(depth for depth in depths) == 3



def _check_conduction_table(dpdn):
    events = conduction_table(dpdn)
    assignments = list(complementary_assignments(dpdn.variables()))
    assert [event.assignment for event in events] == assignments
    for event in events:
        expected = nodes_connected_to(dpdn, event.assignment, (dpdn.x, dpdn.y, dpdn.z))
        assert event.discharged == expected | {dpdn.x, dpdn.y, dpdn.z}
        assert event.x_conducts == branch_conducts(dpdn, event.assignment, dpdn.x)
        assert event.y_conducts == branch_conducts(dpdn, event.assignment, dpdn.y)


if HAVE_HYPOTHESIS:
    from hypothesis import assume, given, settings

    from repro.boolexpr import is_contradiction, is_tautology

    class TestConductionTable:
        """One walk per event agrees with the per-question helpers."""

        @settings(max_examples=40, deadline=None)
        @given(expression_strategy(max_leaves=6))
        def test_matches_component_walks(self, expression):
            assume(not (is_tautology(expression) or is_contradiction(expression)))
            _check_conduction_table(build_genuine_dpdn(expression))
            _check_conduction_table(synthesize_fc_dpdn(expression))
