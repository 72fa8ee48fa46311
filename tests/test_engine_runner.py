"""The sharded runner: parallel == serial, merge reduce, RNG plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flow import (
    AssessmentConfig,
    CampaignConfig,
    DesignFlow,
    ExecutionConfig,
    FlowConfig,
    FlowError,
    register_assessment,
)
from repro.flow.config import ConfigError
from repro.flow.registry import ASSESSMENTS
from repro.power import acquire_circuit_traces, acquire_model_traces, build_sbox_circuit

TRACES = 48
SHARD = 16


def _sbox_flow(execution, **campaign):
    campaign.setdefault("trace_count", TRACES)
    config = FlowConfig(
        name="sbox_dpa",
        campaign=CampaignConfig(**campaign),
        execution=execution,
    )
    return DesignFlow.sbox(0xB, config=config)


class TestTraceEquivalence:
    def test_process_pool_is_bit_identical_to_serial(self):
        serial = _sbox_flow(ExecutionConfig(shard_size=SHARD), noise_std=0.01)
        parallel = _sbox_flow(
            ExecutionConfig(workers=2, shard_size=SHARD), noise_std=0.01
        )
        st, pt = serial.traces(), parallel.traces()
        assert np.array_equal(st.plaintexts, pt.plaintexts)
        assert np.array_equal(st.traces, pt.traces)
        assert serial.result("traces").details["shards"] == 3
        assert parallel.result("traces").details["executor"] == "process"

    def test_worker_count_does_not_change_the_result(self):
        two = _sbox_flow(ExecutionConfig(workers=2, shard_size=SHARD))
        four = _sbox_flow(ExecutionConfig(workers=4, shard_size=SHARD))
        assert np.array_equal(two.traces().traces, four.traces().traces)

    def test_model_source_shards_identically(self):
        serial = _sbox_flow(
            ExecutionConfig(shard_size=SHARD), source="model", noise_std=0.3
        )
        parallel = _sbox_flow(
            ExecutionConfig(workers=2, shard_size=SHARD), source="model", noise_std=0.3
        )
        assert np.array_equal(serial.traces().traces, parallel.traces().traces)
        assert np.array_equal(serial.traces().plaintexts, parallel.traces().plaintexts)

    def test_custom_expression_flows_shard_too(self):
        def build(execution):
            return DesignFlow(
                {"F": "(A | B) & C", "G": "A ^ B"},
                FlowConfig(
                    name="custom",
                    campaign=CampaignConfig(trace_count=TRACES),
                    execution=execution,
                ),
            )

        serial = build(ExecutionConfig(shard_size=SHARD))
        parallel = build(ExecutionConfig(workers=2, shard_size=SHARD))
        assert np.array_equal(serial.traces().traces, parallel.traces().traces)

    def test_inactive_execution_keeps_the_legacy_stream(self):
        legacy = _sbox_flow(ExecutionConfig())
        direct = acquire_circuit_traces(
            build_sbox_circuit(0xB, "fc", max_fanin=2),
            key=0xB,
            trace_count=TRACES,
            seed=2005,
        )
        assert np.array_equal(legacy.traces().plaintexts, direct.plaintexts)
        assert "shards" not in legacy.result("traces").details

    def test_mtd_statistics_match_between_serial_and_parallel(self):
        from repro.assess import success_rate_curve
        from repro.flow import get_sbox

        def curve(execution):
            flow = _sbox_flow(
                execution, source="model", model_leakage="hamming",
                noise_std=0.5, trace_count=96,
            )
            return success_rate_curve(
                flow.traces(), get_sbox("present"),
                steps=(16, 48, 96), repetitions=5, seed=3,
            )

        serial = curve(ExecutionConfig(shard_size=SHARD))
        parallel = curve(ExecutionConfig(workers=2, shard_size=SHARD))
        for a, b in zip(serial.points, parallel.points):
            assert a.trace_count == b.trace_count
            assert np.isclose(a.success_rate, b.success_rate, rtol=1e-10, atol=0.0)
            assert np.isclose(a.mean_rank, b.mean_rank, rtol=1e-10, atol=0.0)
        assert serial.mtd == parallel.mtd

    def test_sharded_analysis_still_reports_attacks(self):
        flow = _sbox_flow(
            ExecutionConfig(workers=2, shard_size=SHARD),
            network_style="genuine",
            noise_std=0.01,
        )
        report = flow.run()
        assert "analysis" in report
        assert set(report["analysis"].value) == {"dom", "cpa"}


class TestAssessmentEquivalence:
    def _flow(self, execution):
        config = FlowConfig(
            name="sbox_dpa",
            campaign=CampaignConfig(
                network_style="genuine", gate_style="cvsl", noise_std=0.01
            ),
            assessment=AssessmentConfig(
                enabled=True, traces_per_class=200, chunk_size=64
            ),
            execution=execution,
        )
        return DesignFlow.sbox(0xB, config=config)

    def test_sharded_assessment_matches_serial_bitwise(self):
        serial = self._flow(ExecutionConfig(shard_size=100))
        parallel = self._flow(ExecutionConfig(workers=2, shard_size=100))
        four = self._flow(ExecutionConfig(workers=4, shard_size=100))
        s = serial.assessment()["ttest"]
        p = parallel.assessment()["ttest"]
        f = four.assessment()["ttest"]
        for order in (1, 2):
            assert s.test(order).statistic == p.test(order).statistic
            assert s.test(order).statistic == f.test(order).statistic
        assert s.test(1).count_fixed == 200
        assert parallel.result("assessment").details["shards"] == 4

    def test_stats_method_merges_too(self):
        config = FlowConfig(
            name="sbox_dpa",
            campaign=CampaignConfig(source="model", noise_std=0.2),
            assessment=AssessmentConfig(
                enabled=True, methods=("ttest", "stats"),
                traces_per_class=150, chunk_size=64,
            ),
            execution=ExecutionConfig(shard_size=60),
        )
        serial = DesignFlow.sbox(0xB, config=config)
        parallel = DesignFlow.sbox(
            0xB,
            config=config.replace(
                execution=ExecutionConfig(workers=2, shard_size=60)
            ),
        )
        s = serial.assessment()["stats"]
        p = parallel.assessment()["stats"]
        assert s.fixed["count"] == p.fixed["count"] == 150
        assert np.isclose(s.fixed["mean"], p.fixed["mean"], rtol=1e-10, atol=0.0)
        assert np.isclose(s.random["mean"], p.random["mean"], rtol=1e-10, atol=0.0)

    def test_unmergeable_method_fails_with_a_clear_error(self):
        class NoMerge:
            def __init__(self):
                self.count = 0

            def update(self, chunk):
                self.count += len(chunk)

            def finalize(self):
                return {"count": self.count}

        register_assessment("nomerge", lambda config: NoMerge())
        try:
            config = FlowConfig(
                name="sbox_dpa",
                campaign=CampaignConfig(source="model"),
                assessment=AssessmentConfig(
                    enabled=True, methods=("nomerge",), traces_per_class=40,
                    chunk_size=16,
                ),
                execution=ExecutionConfig(shard_size=20),
            )
            flow = DesignFlow.sbox(0xB, config=config)
            with pytest.raises(FlowError, match="merge"):
                flow.assessment()
        finally:
            ASSESSMENTS.unregister("nomerge")


class TestExecutors:
    def test_unknown_executor_raises(self):
        with pytest.raises(ConfigError, match="warp-drive"):
            ExecutionConfig(executor="warp-drive")

    def test_process_executor_at_one_worker_uses_the_local_flow(self):
        from repro.engine.runner import _WORKER_FLOWS

        _WORKER_FLOWS.clear()
        flow = _sbox_flow(ExecutionConfig(executor="process", shard_size=SHARD))
        flow.traces()
        # The parent process must not have rebuilt the flow from spec.
        assert _WORKER_FLOWS == {}


class TestSeedLikeAcquisition:
    """Satellite: acquisition accepts Generator / SeedSequence seeds."""

    def test_spawned_children_give_non_overlapping_model_streams(self):
        root = np.random.SeedSequence(2005)
        first, second = root.spawn(2)
        a = acquire_model_traces(key=0x3, trace_count=64, seed=first)
        b = acquire_model_traces(key=0x3, trace_count=64, seed=second)
        assert not np.array_equal(a.plaintexts, b.plaintexts)
        # Same child -> same stream (reproducible).
        again = acquire_model_traces(key=0x3, trace_count=64, seed=root.spawn(1)[0])
        assert not np.array_equal(a.plaintexts, again.plaintexts)

    def test_generator_is_consumed_in_place(self):
        rng = np.random.default_rng(9)
        first = acquire_model_traces(key=0x3, trace_count=32, seed=rng)
        second = acquire_model_traces(key=0x3, trace_count=32, seed=rng)
        assert not np.array_equal(first.plaintexts, second.plaintexts)
        # A fresh generator replays both campaigns in sequence.
        replay = np.random.default_rng(9)
        a = acquire_model_traces(key=0x3, trace_count=32, seed=replay)
        b = acquire_model_traces(key=0x3, trace_count=32, seed=replay)
        assert np.array_equal(first.plaintexts, a.plaintexts)
        assert np.array_equal(second.plaintexts, b.plaintexts)

    def test_circuit_acquisition_accepts_seed_sequence(self):
        circuit = build_sbox_circuit(0xB, "fc", max_fanin=2)
        child = np.random.SeedSequence(11).spawn(1)[0]
        a = acquire_circuit_traces(circuit, key=0xB, trace_count=16, seed=child)
        b = acquire_circuit_traces(circuit, key=0xB, trace_count=16, seed=child)
        assert np.array_equal(a.plaintexts, b.plaintexts)
        assert np.array_equal(a.traces, b.traces)
