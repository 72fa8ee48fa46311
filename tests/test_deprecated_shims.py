"""The top-level stage re-exports: faithful delegation to the subpackages."""

from __future__ import annotations

import pytest

import repro
import repro.core
import repro.electrical
import repro.flow
import repro.network
import repro.power
import repro.sabl


class TestReExportShims:
    """The top-level stage functions are plain delegating re-exports."""

    @pytest.mark.parametrize(
        "name, module",
        [
            ("parse", "repro.boolexpr"),
            ("truth_table", "repro.boolexpr"),
            ("equivalent", "repro.boolexpr"),
            ("build_genuine_dpdn", "repro.network"),
            ("is_fully_connected", "repro.network"),
            ("to_spice_subckt", "repro.network"),
            ("synthesize_fc_dpdn", "repro.core"),
            ("transform_to_fc", "repro.core"),
            ("enhance_fc_dpdn", "repro.core"),
            ("verify_gate", "repro.core"),
            ("build_cell", "repro.core"),
            ("build_library", "repro.core"),
            ("generic_180nm", "repro.electrical"),
            ("map_expressions", "repro.sabl"),
            ("build_sbox_circuit", "repro.power"),
            ("dpa_difference_of_means", "repro.power"),
            ("cpa_correlation", "repro.power"),
            ("energy_statistics", "repro.power"),
        ],
    )
    def test_top_level_name_is_the_subpackage_object(self, name, module):
        import importlib

        assert getattr(repro, name) is getattr(importlib.import_module(module), name)

    def test_synthesis_shim_produces_identical_networks(self):
        expression = repro.parse("(A | B) & C")
        via_shim = repro.synthesize_fc_dpdn(expression, name="G")
        via_core = repro.core.synthesize_fc_dpdn(expression, name="G")
        assert repro.to_spice_subckt(via_shim) == repro.to_spice_subckt(via_core)
        assert repro.verify_gate(via_shim, expression).passed

    def test_flow_api_is_canonical(self):
        assert repro.DesignFlow is repro.flow.DesignFlow
        assert repro.FlowConfig is repro.flow.FlowConfig
        assert repro.AssessmentConfig is repro.flow.AssessmentConfig
