"""Unit tests for the verification layer."""

import json
from pathlib import Path

import pytest

from repro.boolexpr import parse
from repro.core import (
    VerificationError,
    assert_valid_fc_gate,
    check_constant_evaluation_depth,
    check_device_count_preserved,
    check_differential_function,
    check_fully_connected,
    check_memory_effect_free,
    check_no_early_propagation,
    enhance_fc_dpdn,
    synthesize_fc_dpdn,
    verify_gate,
)
from repro.network import DifferentialPullDownNetwork, Literal, build_dpdn_from_branches, build_genuine_dpdn
from repro.power import keyed_sbox_expressions

#: ``GateReport.describe()`` of failing networks, recorded with the
#: per-(node, event) verifier this module's checks replaced.
GOLDEN_REPORTS = json.loads((Path(__file__).parent / "data" / "gate_reports.json").read_text())


class TestDifferentialFunction:
    def test_correct_gate_passes(self, and2, and2_fc):
        assert check_differential_function(and2_fc, and2).passed

    def test_wrong_function_detected(self, and2_fc):
        result = check_differential_function(and2_fc, parse("A | B"))
        assert not result.passed
        assert result.counterexamples

    def test_non_differential_network_detected(self):
        broken = build_dpdn_from_branches(parse("A & B"), parse("~A & ~B"))
        result = check_differential_function(broken)
        assert not result.passed
        assert "neither branch conducts" in " ".join(result.counterexamples)

    def test_both_branches_conducting_detected(self):
        dpdn = DifferentialPullDownNetwork("short", function=parse("A"))
        dpdn.add_transistor(Literal("A", True), "X", "Z")
        dpdn.add_transistor(Literal("A", True), "Y", "Z")
        result = check_differential_function(dpdn)
        assert not result.passed

    def test_without_expected_function_only_consistency_is_checked(self, and2_fc):
        unannotated = and2_fc.copy()
        unannotated.function = None
        assert check_differential_function(unannotated).passed


class TestStructuralChecks:
    def test_fully_connected_pass_and_fail(self, and2_fc, and2_genuine):
        assert check_fully_connected(and2_fc).passed
        failure = check_fully_connected(and2_genuine)
        assert not failure.passed
        assert "floating" in failure.details or failure.counterexamples

    def test_memory_effect_mirrors_full_connectivity(self, and2_fc, and2_genuine):
        assert check_memory_effect_free(and2_fc).passed
        assert not check_memory_effect_free(and2_genuine).passed

    def test_constant_depth(self, and2_fc):
        assert not check_constant_evaluation_depth(and2_fc).passed
        assert check_constant_evaluation_depth(enhance_fc_dpdn(and2_fc)).passed

    def test_early_propagation(self, and2_fc):
        assert not check_no_early_propagation(and2_fc).passed
        assert check_no_early_propagation(enhance_fc_dpdn(and2_fc)).passed

    def test_device_count_check(self, and2_fc, and2_genuine):
        assert check_device_count_preserved(and2_genuine, and2_fc).passed
        bigger = enhance_fc_dpdn(and2_fc)
        assert not check_device_count_preserved(and2_genuine, bigger).passed


class TestAggregateReport:
    def test_report_structure(self, and2, and2_fc):
        report = verify_gate(and2_fc, and2)
        assert report.passed
        assert {check.name for check in report.checks} == {
            "differential_function",
            "fully_connected",
            "memory_effect_free",
        }
        assert report.check("fully_connected").passed
        with pytest.raises(KeyError):
            report.check("nonexistent")

    def test_report_describe_contains_status(self, and2, and2_genuine):
        report = verify_gate(and2_genuine, and2)
        text = report.describe()
        assert "PASS" in text and "FAIL" in text

    def test_optional_checks_are_included_on_request(self, and2, and2_fc):
        report = verify_gate(
            and2_fc, and2, require_constant_depth=True, require_no_early_propagation=True
        )
        names = {check.name for check in report.checks}
        assert "constant_evaluation_depth" in names
        assert "no_early_propagation" in names

    def test_assert_valid_fc_gate(self, and2_fc, and2_genuine):
        assert_valid_fc_gate(and2_fc)
        with pytest.raises(VerificationError):
            assert_valid_fc_gate(and2_genuine)


def _golden_report(name):
    if name.startswith("sbox_"):
        output = name.split("_")[1]
        dpdn = build_genuine_dpdn(keyed_sbox_expressions(0xB)[output], name=f"{output}_genuine")
        return verify_gate(dpdn, require_constant_depth=True, require_no_early_propagation=True)
    if name == "neither":
        return verify_gate(build_dpdn_from_branches(parse("A & B"), parse("~A & ~B")))
    if name == "wrong":
        return verify_gate(synthesize_fc_dpdn(parse("A & B"), name="AND2_fc"), parse("A | B"))
    short = DifferentialPullDownNetwork("short", function=parse("A"))
    short.add_transistor(Literal("A", True), "X", "Z")
    short.add_transistor(Literal("A", True), "Y", "Z")
    return verify_gate(short)


class TestReportText:
    """Failure reports read byte for byte as before, counterexample order included."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
    def test_describe_is_unchanged(self, name):
        assert _golden_report(name).describe() == GOLDEN_REPORTS[name]

    def test_genuine_sbox_output_fails_connectivity(self):
        report = _golden_report("sbox_y0_genuine")
        assert not report.check("fully_connected").passed
        assert not report.check("memory_effect_free").passed
        assert report.check("differential_function").passed
