"""The flow pipeline's streaming assessment stage, end to end."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from repro.flow import (
    ASSESSMENTS,
    AssessmentConfig,
    CampaignConfig,
    ConfigError,
    DesignFlow,
    ExecutionConfig,
    FlowConfig,
    FlowError,
    ScenarioConfig,
)
from repro.flow.registry import get_assessment


def _assessed_flow(gate_style, network_style, traces_per_class=400, **overrides):
    config = FlowConfig(
        name=f"{gate_style}_{network_style}",
        campaign=CampaignConfig(
            key=0xB, gate_style=gate_style, network_style=network_style,
            trace_count=64,
        ),
        assessment=AssessmentConfig(
            enabled=True, methods=("ttest", "stats"),
            traces_per_class=traces_per_class, **overrides,
        ),
    )
    return DesignFlow.sbox(config=config)


class TestAssessmentConfig:
    def test_defaults_validate(self):
        config = AssessmentConfig()
        assert not config.enabled
        assert config.threshold == 4.5

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            AssessmentConfig(methods=())
        with pytest.raises(ConfigError):
            AssessmentConfig(methods="ttest")  # a bare string, not a tuple
        with pytest.raises(ConfigError):
            AssessmentConfig(traces_per_class=1)
        with pytest.raises(ConfigError, match="chunk_size"):
            AssessmentConfig.from_dict({"chunk_size": 4096})
        with pytest.raises(ConfigError):
            AssessmentConfig(orders=(3,))
        with pytest.raises(ConfigError):
            AssessmentConfig(orders=())
        with pytest.raises(ConfigError):
            AssessmentConfig(threshold=0.0)
        with pytest.raises(ConfigError):
            AssessmentConfig(fixed_plaintext=-1)
        with pytest.raises(ConfigError):
            AssessmentConfig(noise=({"std": 0.1},))  # missing the name
        with pytest.raises(ConfigError):
            AssessmentConfig(noise=(42,))

    def test_noise_specs_normalised(self):
        config = AssessmentConfig(noise=("gaussian", {"name": "jitter"}))
        assert config.noise == ({"name": "gaussian"}, {"name": "jitter"})

    def test_single_noise_spec_accepted_unwrapped(self):
        # A bare mapping (or name) is one spec, not a sequence of keys.
        config = AssessmentConfig(noise={"name": "gaussian", "std": 0.02})
        assert config.noise == ({"name": "gaussian", "std": 0.02},)
        assert AssessmentConfig(noise="jitter").noise == ({"name": "jitter"},)

    def test_round_trips_through_json(self):
        config = FlowConfig(
            assessment=AssessmentConfig(
                enabled=True,
                methods=("ttest",),
                orders=(1,),
                noise=({"name": "quantization", "bits": 8},),
            )
        )
        rebuilt = FlowConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config


class TestEndToEnd:
    def test_tvla_separates_protected_from_unprotected(self):
        """The acceptance benchmark: at the same trace count, TVLA flags
        the unprotected CVSL reference and passes the SABL FC-DPDN."""
        unprotected = _assessed_flow("cvsl", "genuine")
        protected = _assessed_flow("sabl", "fc")

        leaky = unprotected.assessment()["ttest"]
        clean = protected.assessment()["ttest"]

        assert leaky.max_abs_t > 4.5
        assert leaky.leaks
        assert clean.max_abs_t < 4.5
        assert not clean.leaks

    def test_assessment_in_report_table_and_json(self):
        flow = _assessed_flow("cvsl", "genuine")
        report = flow.run(["assessment"])

        table = report.format_summary()
        assert "assessment" in table
        assert "leaks=True" in table

        assessment_table = report.format_assessment()
        assert "order-1 |t|" in assessment_table
        assert "LEAKS" in assessment_table

        record = json.loads(report.to_json())
        stage = next(
            stage for stage in record["stages"] if stage["stage"] == "assessment"
        )
        assert stage["details"]["leaks"] is True
        assert stage["details"]["traces"] == 800
        verdicts = record["assessment"]["ttest"]
        assert verdicts["leaks"] is True
        assert len(verdicts["tests"]) == 2

    def test_experiment_records_match_protection_claim(self):
        protected = _assessed_flow("sabl", "fc")
        report = protected.run(["assessment"])
        records = {
            record.experiment_id: record
            for record in report.to_experiment_results()
        }
        record = records["sabl_fc/assess/ttest"]
        assert record.matches_shape
        assert record.paper_value == "no leakage detected"
        # The descriptive stats method carries no verdict: no record.
        assert "sabl_fc/assess/stats" not in records

    def test_model_source_assessment(self):
        config = FlowConfig(
            campaign=CampaignConfig(source="model", trace_count=64),
            assessment=AssessmentConfig(
                enabled=True, traces_per_class=300,
                noise=({"name": "gaussian", "std": 0.5},),
            ),
        )
        flow = DesignFlow.sbox(0xB, config=config)
        result = flow.assessment()["ttest"]
        assert result.leaks  # the unprotected model leaks through the noise
        assert "circuit" not in flow.computed_stages()

    def test_full_width_present_round_reaches_a_verdict(self):
        # A 16-S-box slice draws 64-bit stimuli (as uint64); the fixed
        # stimulus sets the top bit.  In process and on a pool alike.
        def assessed(execution):
            return DesignFlow(
                None,
                FlowConfig(
                    name="present16",
                    campaign=CampaignConfig(
                        key=0x2B51, scenario="present_round", network_style="genuine"
                    ),
                    scenario=ScenarioConfig(params={"sboxes": 16}),
                    assessment=AssessmentConfig(
                        enabled=True, traces_per_class=300,
                        fixed_plaintext=0xFEDCBA9876543210,
                    ),
                    execution=execution,
                ),
            ).assessment()["ttest"]

        serial = assessed(ExecutionConfig())
        pooled = assessed(ExecutionConfig(workers=2))
        assert serial.test(1).count_fixed == serial.test(1).count_random == 300
        assert serial.max_abs_t > 0.0
        assert [t.statistic for t in pooled.tests] == [t.statistic for t in serial.tests]
        assert pooled.leaks == serial.leaks

    def test_run_includes_assessment_only_when_enabled(self):
        disabled = DesignFlow.sbox(
            0xB,
            config=FlowConfig(campaign=CampaignConfig(trace_count=16)),
        )
        report = disabled.run()
        assert "assessment" not in report.stages()

        enabled = _assessed_flow("sabl", "fc", traces_per_class=50)
        report = enabled.run()
        assert "assessment" in report.stages()

    def test_assessment_cached_and_invalidated_with_circuit(self):
        flow = _assessed_flow("cvsl", "genuine", traces_per_class=50)
        first = flow.result("assessment")
        assert flow.result("assessment") is first
        flow.invalidate("circuit")
        assert "assessment" not in flow.computed_stages()

    def test_fixed_plaintext_bounds_checked(self):
        flow = _assessed_flow("sabl", "fc", fixed_plaintext=16)
        with pytest.raises(FlowError, match="fixed_plaintext"):
            flow.assessment()

    def test_unknown_method_lists_available(self):
        flow = _assessed_flow("sabl", "fc")
        flow.config = flow.config.replace(
            assessment=flow.config.assessment.replace(methods=("nope",))
        )
        with pytest.raises(FlowError, match="unknown assessment"):
            flow.assessment()

    def test_blocks_keep_exact_class_budgets(self):
        # Every block holds equal halves, a partial last block included.
        for traces_per_class in (2, 128, 150, 300):
            flow = _assessed_flow("sabl", "fc", traces_per_class=traces_per_class)
            result = flow.assessment()["ttest"].test(1)
            assert result.count_fixed == traces_per_class
            assert result.count_random == traces_per_class

    def test_peak_memory_does_not_grow_with_the_campaign(self):
        # The in-process stream walks 16 blocks per kernel call into
        # running accumulators: an 8x longer campaign peaks no higher.
        def peak(traces_per_class):
            flow = _assessed_flow("sabl", "genuine", traces_per_class=traces_per_class)
            flow.circuit()  # synthesis stays outside the measurement
            tracemalloc.start()
            try:
                flow.assessment()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(128)  # first-use allocations stay outside the comparison
        short, long = peak(4096), peak(32768)
        assert long < 1.25 * short

    def test_campaign_noise_std_applies_to_assessment(self):
        quiet = _assessed_flow("cvsl", "genuine", traces_per_class=200)
        noisy = _assessed_flow("cvsl", "genuine", traces_per_class=200)
        noisy.config = noisy.config.replace(
            campaign=noisy.config.campaign.replace(noise_std=0.2)
        )
        t_quiet = abs(quiet.assessment()["ttest"].test(1).statistic)
        t_noisy = abs(noisy.assessment()["ttest"].test(1).statistic)
        assert t_noisy < t_quiet
        details = noisy.result("assessment").details
        assert "gaussian" in details["noise"]

    def test_noise_hides_weak_leakage(self):
        quiet = _assessed_flow("cvsl", "genuine", traces_per_class=200)
        noisy = _assessed_flow(
            "cvsl", "genuine", traces_per_class=200,
            noise=(
                {"name": "gaussian", "std": 0.05},
                {"name": "quantization", "bits": 8},
                {"name": "jitter", "probability": 0.05},
            ),
        )
        t_quiet = quiet.assessment()["ttest"].test(1).statistic
        t_noisy = noisy.assessment()["ttest"].test(1).statistic
        assert abs(t_noisy) < abs(t_quiet)


class TestAssessmentRegistry:
    def test_builtins_registered(self):
        assert "ttest" in ASSESSMENTS
        assert "stats" in ASSESSMENTS

    def test_custom_method_flows_through(self, monkeypatch):
        class CountingMethod:
            def __init__(self):
                self.seen = 0

            def update(self, chunk):
                self.seen += len(chunk)

            def merge(self, other):
                self.seen += other.seen

            def finalize(self):
                return self

            @property
            def leaks(self):
                return None

            def to_dict(self):
                return {"method": "counter", "seen": self.seen}

            def summary_rows(self):
                return [["counter", "traces seen", str(self.seen), ""]]

        monkeypatch.setitem(ASSESSMENTS, "counter", lambda config: CountingMethod())
        flow = _assessed_flow("sabl", "fc", traces_per_class=60)
        flow.config = flow.config.replace(
            assessment=flow.config.assessment.replace(methods=("counter",))
        )
        outcome = flow.assessment()["counter"]
        assert outcome.seen == 120

    def test_get_assessment_unknown(self):
        from repro.flow import UnknownBackendError

        with pytest.raises(UnknownBackendError):
            get_assessment("definitely_not_registered")
