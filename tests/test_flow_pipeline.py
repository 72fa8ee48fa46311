"""End-to-end tests of the DesignFlow pipeline, configs and batching."""

import json

import numpy as np
import pytest

from repro.flow import (
    AnalysisConfig,
    CampaignConfig,
    CellConfig,
    ConfigError,
    DesignFlow,
    FlowConfig,
    FlowError,
    ObservabilityConfig,
    ScenarioConfig,
    SynthesisConfig,
    TechnologyConfig,
)
from repro.power import PRESENT_SBOX, acquire_circuit_traces, build_sbox_circuit

from oracles import oracle_traces


# ----------------------------------------------------------------------- config


class TestConfigs:
    def test_flow_config_round_trips_through_dict(self):
        config = FlowConfig(
            name="roundtrip",
            synthesis=SynthesisConfig(method="transform", decomposition="balanced"),
            technology=TechnologyConfig(name="generic_130nm", overrides={"vdd": 1.1}),
            cells=CellConfig(names=("AND2", "OR2")),
            scenario=ScenarioConfig(params={"sboxes": 2}),
            campaign=CampaignConfig(
                key=0x5, trace_count=64, noise_std=0.01, scenario="present_round"
            ),
            analysis=AnalysisConfig(attacks=("cpa",), target_bit=2, target_sbox=1),
        )
        rebuilt = FlowConfig.from_dict(config.to_dict())
        assert rebuilt == config

    def test_to_dict_is_json_serialisable(self):
        config = FlowConfig(cells=CellConfig(names=("AND2",)))
        json.dumps(config.to_dict())

    def test_unknown_keys_rejected(self):
        cases = [
            (FlowConfig, {"name": "x", "turbo": True}),
            # The live-channel knobs are gone: a stale config fails loudly.
            (ObservabilityConfig, {"live": True}),
            (ObservabilityConfig, {"heartbeat_s": 1.0}),
            (ObservabilityConfig, {"live_interval_s": 0}),
        ]
        for cls, data in cases:
            field = next(key for key in data if key != "name")
            with pytest.raises(ConfigError, match=rf"unknown keys \['{field}'\]"):
                cls.from_dict(data)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "magic"},
            {"decomposition": "spiral"},
        ],
    )
    def test_synthesis_validation(self, kwargs):
        with pytest.raises(ConfigError):
            SynthesisConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"key": -1},
            {"trace_count": 0},
            {"network_style": "open"},
            {"max_fanin": 1},
            {"noise_std": -0.1},
            {"gate_style": ""},
            {"source": "oscilloscope"},
            {"model_leakage": "cubic"},
        ],
    )
    def test_campaign_validation(self, kwargs):
        with pytest.raises(ConfigError):
            CampaignConfig(**kwargs)

    def test_technology_override_names_validated(self):
        with pytest.raises(ConfigError, match="unknown technology overrides"):
            TechnologyConfig(overrides={"not_a_field": 1.0})

    def test_analysis_validation(self):
        with pytest.raises(ConfigError):
            AnalysisConfig(attacks=())
        with pytest.raises(ConfigError):
            AnalysisConfig(target_bit=9)

    def test_replace_revalidates(self):
        config = CampaignConfig()
        with pytest.raises(ConfigError):
            config.replace(trace_count=-5)


# --------------------------------------------------------------------- pipeline


@pytest.fixture(scope="module")
def fc_flow():
    flow = DesignFlow.sbox(
        key=0xB, trace_count=600, noise_std=0.002, max_fanin=3, seed=7,
        config=FlowConfig(
            name="fc_flow",
            cells=CellConfig(names=("AND2", "OR2", "XOR2")),
            analysis=AnalysisConfig(attacks=("dom", "cpa"), target_bit=2),
        ),
    )
    flow.run()
    return flow


class TestDesignFlow:
    def test_full_run_covers_all_stages(self, fc_flow):
        # A scenario run verifies the gate templates it simulates; the
        # whole-output synthesis stage is left to expression flows.
        assert fc_flow.computed_stages() == (
            "expressions", "library", "circuit", "verification",
            "layout", "traces", "analysis",
        )

    def test_stage_results_are_cached(self, fc_flow):
        assert fc_flow.result("traces") is fc_flow.result("traces")
        assert fc_flow.result("circuit").value is fc_flow.circuit()

    def test_invalidate_drops_downstream_only(self, fc_flow):
        circuit_result = fc_flow.result("circuit")
        synthesis_result = fc_flow.result("synthesis")
        fc_flow.invalidate("circuit")
        assert "traces" not in fc_flow.computed_stages()
        assert "analysis" not in fc_flow.computed_stages()
        assert "verification" not in fc_flow.computed_stages()
        assert fc_flow.result("synthesis") is synthesis_result
        # Recompute: a fresh circuit result replaces the dropped one.
        assert fc_flow.result("circuit") is not circuit_result
        fc_flow.run()

    def test_synthesized_networks_verify(self, fc_flow):
        assert set(fc_flow.networks()) == set(fc_flow.expressions())
        assert fc_flow.result("synthesis").details["passed"]

    def test_fc_templates_pass(self, fc_flow):
        # One report per (operator, fan-in) template the circuit stamps.
        reports = fc_flow.verification()
        assert sorted(reports) == ["and2", "and3", "or2", "or3"]
        assert len(reports) == len(fc_flow.circuit().templates)
        assert all(report.passed for report in reports.values())
        templates = fc_flow.result("verification").details["templates"]
        assert all(all(checks.values()) for checks in templates.values())

    def test_library_stage_builds_selected_cells(self, fc_flow):
        assert set(fc_flow.library()) == {"AND2", "OR2", "XOR2"}

    def test_protected_circuit_resists_dom_where_model_leaks(self, fc_flow):
        # The paper's claim through the new API: single-bit DPA recovers
        # the key from the unprotected leakage model but not from the
        # fully connected circuit.
        protected = fc_flow.analysis()["dom"]
        assert not protected.succeeded

        unprotected = DesignFlow.sbox(
            key=0xB, source="model", model_leakage="bit", trace_count=600,
            noise_std=0.25, seed=7,
            config=FlowConfig(
                name="model_flow",
                analysis=AnalysisConfig(attacks=("dom",), target_bit=2),
            ),
        )
        unprotected.run(["traces", "analysis"])
        assert unprotected.analysis()["dom"].succeeded

    def test_fc_traces_nearly_constant(self, fc_flow):
        details = fc_flow.result("traces").details
        assert details["nsd"] < 0.01

    def test_report_exports(self, fc_flow):
        report = fc_flow.report()
        payload = json.loads(report.to_json())
        assert payload["flow"] == "fc_flow"
        assert [entry["stage"] for entry in payload["stages"]] == list(
            fc_flow.computed_stages()
        )
        summary = report.format_summary()
        assert "traces" in summary and "analysis" in summary
        records = report.to_experiment_results()
        assert len(records) == 2
        assert all(record.matches_shape for record in records)

    def test_custom_expression_flow_stops_at_traces(self):
        flow = DesignFlow(
            {"F": "(A | B) & C"},
            FlowConfig(name="custom", campaign=CampaignConfig(trace_count=32)),
        )
        report = flow.run()
        assert "analysis" not in report.stages()
        assert len(flow.traces()) == 32
        with pytest.raises(FlowError, match="S-box"):
            flow.analysis()

    def test_expressions_accept_parsed_objects(self):
        from repro import parse

        flow = DesignFlow({"F": parse("A & B")})
        assert flow.expressions()["F"] is not None

    def test_bad_expression_raises_flow_error(self):
        flow = DesignFlow({"F": "A &&& B"})
        with pytest.raises(FlowError, match="cannot parse"):
            flow.expressions()

    def test_unknown_cells_listed(self):
        flow = DesignFlow.sbox(config=FlowConfig(cells=CellConfig(names=("NAND9",))))
        with pytest.raises(FlowError, match="NAND9"):
            flow.library()

    def test_transform_method_flow(self):
        flow = DesignFlow(
            {"F": "(A | B) & C"},
            FlowConfig(name="transform", synthesis=SynthesisConfig(method="transform")),
        )
        assert flow.result("synthesis").details["passed"]

    def test_enhanced_flow_checks_constant_depth(self):
        flow = DesignFlow(
            {"F": "(A & B) | C"},
            FlowConfig(name="enhanced", synthesis=SynthesisConfig(enhance=True)),
        )
        details = flow.result("synthesis").details
        assert details["passed"]
        assert {"constant_evaluation_depth", "no_early_propagation"} <= set(
            details["checks"]
        )

    def test_failed_synthesis_check_names_the_output(self, monkeypatch):
        import repro.flow.pipeline as pipeline
        from repro.network.build import build_genuine_dpdn

        # A genuine network in place of the FC-DPDN fails full connectivity.
        monkeypatch.setattr(
            pipeline,
            "synthesize_fc_dpdn",
            lambda function, name, style: build_genuine_dpdn(function, name=name),
        )
        flow = DesignFlow({"F": "(A | B) & C"})
        with pytest.raises(FlowError, match=r"outputs \['F'\]"):
            flow.networks()

    def test_default_runs_by_workload(self):
        custom = DesignFlow(
            {"F": "(A | B) & C"}, FlowConfig(campaign=CampaignConfig(trace_count=16))
        )
        assert custom.run().stages() == [
            "expressions", "synthesis", "circuit", "verification", "traces",
        ]
        scenario = DesignFlow.sbox(key=0x2, trace_count=16, seed=1)
        assert scenario.run().stages() == [
            "expressions", "circuit", "verification", "traces", "analysis",
        ]
        assert "synthesis" not in scenario.computed_stages()

    def test_genuine_style_flow_runs(self):
        flow = DesignFlow.sbox(
            key=0x3, network_style="genuine", trace_count=64, max_fanin=3, seed=3
        )
        details = flow.result("traces").details
        assert details["count"] == 64

    def test_genuine_templates_report_the_predicted_leak(self):
        # A genuine gate computes its function but leaves internal nodes
        # floating: reported per template, not raised.
        flow = DesignFlow.sbox(key=0xB, network_style="genuine", trace_count=64)
        report = json.loads(flow.run().to_json())
        stage = next(s for s in report["stages"] if s["stage"] == "verification")
        templates = stage["details"]["templates"]
        assert sorted(templates) == ["and2", "or2"]
        for checks in templates.values():
            assert checks == {
                "differential_function": True,
                "fully_connected": False,
                "memory_effect_free": False,
            }

    @pytest.mark.parametrize(
        "network_style, replacement, failing",
        [
            # A leaky network stamped into a protected circuit.
            ("fc", "genuine", "fully_connected"),
            # A network of the wrong function in a genuine circuit.
            ("genuine", "or", "differential_function"),
        ],
    )
    def test_broken_template_names_the_template(
        self, network_style, replacement, failing
    ):
        from repro.boolexpr.ast import And, Or, Var
        from repro.network.build import build_genuine_dpdn
        from repro.sabl.circuit import GateTemplate

        flow = DesignFlow.sbox(key=0xB, network_style=network_style, trace_count=16)
        circuit = flow.circuit()
        index, template = next(
            (index, template)
            for index, template in enumerate(circuit.templates)
            if isinstance(template.network.function, And)
        )
        ports = [Var(port) for port in template.ports]
        network = build_genuine_dpdn(
            (And if replacement == "genuine" else Or)(*ports), name="broken"
        )
        # Keep the template's claimed function so only the network is wrong.
        network.function = template.network.function
        circuit.templates[index] = GateTemplate(network, template.ports)
        with pytest.raises(FlowError, match=rf"(?s)templates \['and2'\].*{failing}"):
            flow.verification()

    def test_unknown_stage_rejected(self, fc_flow):
        with pytest.raises(FlowError, match="unknown stage"):
            fc_flow.result("deploy")

    def test_target_bit_outside_sbox_width_rejected(self):
        flow = DesignFlow.sbox(
            key=0x3, trace_count=16,
            config=FlowConfig(analysis=AnalysisConfig(attacks=("dom",), target_bit=6)),
        )
        with pytest.raises(FlowError, match="target_bit 6"):
            flow.analysis()

    def test_bit_model_traces_reject_out_of_range_target_bit(self):
        flow = DesignFlow.sbox(
            key=0x3, source="model", model_leakage="bit", trace_count=16,
            config=FlowConfig(analysis=AnalysisConfig(attacks=("dom",), target_bit=5)),
        )
        with pytest.raises(FlowError, match="target_bit 5"):
            flow.traces()

    def test_default_run_skips_library_without_configured_cells(self):
        flow = DesignFlow.sbox(key=0x2, trace_count=16, seed=1)
        report = flow.run()
        assert "library" not in report.stages()
        assert "analysis" in report.stages()

    def test_unknown_backend_in_config_raises_flow_error(self):
        flow = DesignFlow.sbox(key=0x2, gate_style="wddl", trace_count=16)
        with pytest.raises(FlowError, match="wddl.*available.*sabl"):
            flow.traces()

    def test_key_bounds_follow_selected_sbox(self):
        # A byte key is valid config but must not fit the 4-bit box...
        flow = DesignFlow.sbox(key=0x3A, trace_count=16)
        with pytest.raises(FlowError, match="does not fit"):
            flow.expressions()
        # ... while the 256-entry AES box accepts it for model campaigns.
        wide = DesignFlow.sbox(
            key=0x3A, source="model", sbox="aes", trace_count=16, seed=2
        )
        assert len(wide.traces()) == 16


class TestSynthesisConfigScope:
    """``SynthesisConfig`` shapes the whole-output synthesis stage only:
    the campaign simulates the mapper's gate templates, so no synthesis
    knob moves a trace (README's majority example)."""

    MAJORITY = {"carry": "(A & B) | (B & C) | (A & C)"}

    @pytest.mark.parametrize("network_style", ["fc", "genuine"])
    def test_synthesis_config_leaves_traces_unchanged(self, network_style):
        def flow(synthesis):
            return DesignFlow(
                self.MAJORITY,
                FlowConfig(
                    name="majority",
                    synthesis=synthesis,
                    campaign=CampaignConfig(
                        trace_count=512, network_style=network_style
                    ),
                ),
            )

        default = flow(SynthesisConfig()).traces()
        for synthesis in (
            SynthesisConfig(method="transform"),
            SynthesisConfig(decomposition="balanced"),
            SynthesisConfig(enhance=True),
        ):
            other = flow(synthesis).traces()
            assert np.array_equal(other.plaintexts, default.plaintexts), synthesis
            assert np.array_equal(other.traces, default.traces), synthesis
        # ... while the synthesis stage does follow the config.
        devices = [
            flow(SynthesisConfig(enhance=enhance)).result("synthesis").details["devices"]
            for enhance in (False, True)
        ]
        assert devices[1] > devices[0]


# --------------------------------------------------------------------- batching


class TestBatchedAcquisition:
    @pytest.mark.parametrize("network_style", ["fc", "genuine"])
    def test_batched_equals_sequential(self, network_style):
        circuit = build_sbox_circuit(0xB, network_style, max_fanin=3)
        plaintexts, sequential = oracle_traces(circuit, 200, seed=3, noise_std=0.01)
        batched = acquire_circuit_traces(circuit, 0xB, 200, noise_std=0.01, seed=3)
        assert np.array_equal(plaintexts, batched.plaintexts)
        assert np.allclose(sequential, batched.traces, rtol=1e-12, atol=0.0)

    def test_batch_size_does_not_change_result(self):
        # How cycles are split over kernel calls changes no energy: the
        # kernel's tiles only bound its working set.
        from repro.kernel import BitslicedCircuitEnergyModel, compile_circuit

        circuit = build_sbox_circuit(0x5, "genuine", max_fanin=2)
        model = BitslicedCircuitEnergyModel(compile_circuit(circuit))
        matrix = np.random.default_rng(9).integers(0, 2, size=(1500, 4)).astype(bool)
        parts = [model.energies(matrix[start : start + 7]) for start in range(0, 1500, 7)]
        assert np.array_equal(np.concatenate(parts), model.energies(matrix))

    def test_block_ranges_concatenate_to_the_campaign(self):
        circuit = build_sbox_circuit(0x5, "genuine", max_fanin=2)
        whole = acquire_circuit_traces(circuit, 0x5, 700, seed=9, noise_std=0.05)
        parts = [
            acquire_circuit_traces(
                circuit, 0x5, 700, seed=9, noise_std=0.05, block_range=block_range
            )
            for block_range in ((0, 1), (1, 3))
        ]
        assert np.array_equal(
            np.concatenate([part.traces for part in parts]), whole.traces
        )
        assert np.array_equal(
            np.concatenate([part.plaintexts for part in parts]), whole.plaintexts
        )

    def test_empty_campaign_returns_empty_energies(self):
        from repro.sabl import BatchedCircuitEnergyModel

        circuit = build_sbox_circuit(0x1, "fc", max_fanin=3)
        model = BatchedCircuitEnergyModel(circuit)
        energies = model.energies(np.zeros((0, 4), dtype=bool))
        assert energies.shape == (0,)


# ------------------------------------------------------------------- scenarios


class TestScenarioFlows:
    def _round_flow(self, **overrides):
        campaign = dict(key=0x6B, scenario="present_round", trace_count=32)
        campaign.update(overrides)
        return DesignFlow(
            None,
            FlowConfig(
                name="round_flow",
                campaign=CampaignConfig(**campaign),
                scenario=ScenarioConfig(params={"sboxes": 2}),
            ),
        )

    def test_default_scenario_matches_legacy_sbox_campaign(self):
        # The "sbox" backend *is* the pre-scenario behaviour: same
        # expressions, same circuit, bit-identical traces.
        flow = DesignFlow.sbox(key=0xB, trace_count=40, seed=11)
        circuit = build_sbox_circuit(0xB, "fc", max_fanin=2)
        direct = acquire_circuit_traces(circuit, 0xB, 40, seed=11)
        assert np.array_equal(flow.traces().traces, direct.traces)
        assert flow.result("traces").details["scenario"] == "sbox"

    def test_round_flow_runs_end_to_end(self):
        flow = self._round_flow()
        report = flow.run()
        assert report["expressions"].details["scenario"] == "present_round"
        assert report["expressions"].details["width"] == 8
        assert len(flow.circuit().primary_inputs) == 8
        assert "analysis" in report.stages()

    def test_scenario_params_change_the_width(self):
        narrow = DesignFlow(
            None,
            FlowConfig(
                campaign=CampaignConfig(key=0x6, scenario="present_round", trace_count=8),
                scenario=ScenarioConfig(params={"sboxes": 1}),
            ),
        )
        assert len(narrow.circuit().primary_inputs) == 4

    def test_analysis_projects_onto_the_target_sbox(self):
        flow = self._round_flow()
        flow.config = flow.config.replace(
            analysis=AnalysisConfig(attacks=("dom",), target_sbox=1)
        )
        flow.result("analysis")
        details = flow.result("analysis").details
        assert details["attack_point"] == "r1_sbox1/bit0"

    def test_target_sbox_outside_slice_rejected(self):
        flow = self._round_flow()
        flow.config = flow.config.replace(
            analysis=AnalysisConfig(attacks=("dom",), target_sbox=5)
        )
        with pytest.raises(FlowError, match="target_sbox 5"):
            flow.analysis()

    def test_key_bound_follows_the_scenario(self):
        wide_key = DesignFlow(
            None,
            FlowConfig(
                campaign=CampaignConfig(
                    key=0x100, scenario="present_round", trace_count=8
                ),
                scenario=ScenarioConfig(params={"sboxes": 1}),
            ),
        )
        with pytest.raises(FlowError, match="does not fit"):
            wide_key.expressions()

    def test_distance_model_requires_valid_round(self):
        flow = self._round_flow(source="model", model_leakage="distance")
        flow.config = flow.config.replace(
            analysis=AnalysisConfig(attacks=("dom",), target_round=3)
        )
        with pytest.raises(FlowError, match="target round 3"):
            flow.traces()

    def test_unknown_scenario_is_a_flow_error(self):
        flow = DesignFlow(
            None,
            FlowConfig(campaign=CampaignConfig(scenario="grain", trace_count=8)),
        )
        with pytest.raises(FlowError, match="unknown scenario"):
            flow.expressions()

    def test_scenario_config_validates_param_names(self):
        with pytest.raises(ConfigError, match="non-empty strings"):
            ScenarioConfig(params={"": 1})
