"""The campaign runner: every execution of a campaign is one result.

Shard size, worker count, executor and start method only schedule the
campaign's fixed block stream; traces, TVLA rows and store keys must
not move with them, and must equal the block-stream oracle.
"""

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
    LayoutConfig,
    ScenarioConfig,
)
from repro.assess.ttest import ttest_fixed_vs_random
from repro.engine.sharding import plan_shards
from repro.engine.store import content_key
from repro.engine.stored import store_record
from repro.flow.config import ConfigError
from repro.flow.registry import ASSESSMENTS
from repro.power import acquire_circuit_traces, acquire_model_traces, build_sbox_circuit

from oracles import oracle_assessment_stream, oracle_traces

TRACES = 600
SHARD = 256

#: Every execution the invariance tests compare: shard sizes (unset, one
#: block, a size that rounds up, more than the campaign) in process and
#: on two workers, plus one spawn-started pool.
EXECUTIONS = tuple(
    ExecutionConfig(workers=workers, shard_size=shard_size)
    for shard_size in (None, 256, 300, 4096)
    for workers in (1, 2)
) + (ExecutionConfig(workers=2, shard_size=300, start_method="spawn"),)


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
        # Nor does the shard size, the executor or the start method: the
        # traces and the store key stay those of the block-stream oracle.
        reference = _sbox_flow(ExecutionConfig(), network_style="genuine", noise_std=0.01)
        plaintexts, expected = oracle_traces(
            reference.circuit(), TRACES, noise_std=0.01, stepped=False
        )
        key = content_key(store_record(reference, "traces"))
        for execution in EXECUTIONS:
            flow = _sbox_flow(execution, network_style="genuine", noise_std=0.01)
            traces = flow.traces()
            assert np.array_equal(traces.plaintexts, plaintexts), execution
            assert np.array_equal(traces.traces, expected), execution
            assert content_key(store_record(flow, "traces")) == key, execution

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

    def test_default_execution_is_one_in_process_shard(self):
        flow = _sbox_flow(ExecutionConfig())
        direct = acquire_circuit_traces(
            build_sbox_circuit(0xB, "fc", max_fanin=2),
            key=0xB,
            trace_count=TRACES,
            seed=2005,
        )
        assert np.array_equal(flow.traces().plaintexts, direct.plaintexts)
        assert np.array_equal(flow.traces().traces, direct.traces)
        details = flow.result("traces").details
        assert (details["executor"], details["shards"]) == ("serial", 1)

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
            assessment=AssessmentConfig(enabled=True, traces_per_class=700),
            execution=execution,
        )
        return DesignFlow.sbox(0xB, config=config)

    def test_sharded_assessment_matches_serial_bitwise(self):
        # Per-block accumulators merge in block order, so the TVLA rows
        # are bit-identical at every shard size, worker count and start
        # method -- and agree with a one-shot t-test of the oracle stream.
        reference = self._flow(ExecutionConfig())
        rows = reference.assessment()["ttest"].tests
        key = content_key(store_record(reference, "assessment"))
        energies, labels = oracle_assessment_stream(reference)
        oracle = ttest_fixed_vs_random(energies, labels)
        for test, expected in zip(rows, oracle.tests):
            assert np.isclose(test.statistic, expected.statistic, rtol=1e-9, atol=0.0)
        assert rows[0].count_fixed == 700
        for execution in EXECUTIONS:
            flow = self._flow(execution)
            assert flow.assessment()["ttest"].tests == rows, execution
            assert content_key(store_record(flow, "assessment")) == key, execution
            assert flow.result("assessment").details["blocks"] == 6

    @pytest.mark.parametrize("gate_style", ["sabl", "cvsl"])
    def test_wide_slice_chunks_equal_the_oracle(self, gate_style):
        # A 16-input slice runs the kernel, not an energy table, and its
        # fixed class is measured once per run: in process as one shard
        # and as two, the noiseless chunks equal the oracle stream byte
        # for byte, and a two-worker run gives the same t-test rows.
        def flow(execution):
            return DesignFlow(
                None,
                FlowConfig(
                    name="wide_tvla",
                    campaign=CampaignConfig(
                        key=0x6B,
                        scenario="present_round",
                        network_style="genuine",
                        gate_style=gate_style,
                        noise_std=0.0,
                    ),
                    scenario=ScenarioConfig(params={"sboxes": 4}),
                    assessment=AssessmentConfig(
                        enabled=True, traces_per_class=300, fixed_plaintext=0xA5C3
                    ),
                    execution=execution,
                ),
            )

        reference = flow(ExecutionConfig())
        assert reference._compiled_program().energy_table() is None
        energies, labels = oracle_assessment_stream(reference)
        assert (labels.sum(), (~labels).sum()) == (300, 300)
        for shard_size in (None, 512):
            shards = plan_shards(600, shard_size, reference.config.assessment.seed)
            assert len(shards) == (1 if shard_size is None else 2)
            chunks = [
                chunk for shard in shards for chunk in reference._assessment_chunks(shard)
            ]
            measured = np.concatenate([chunk.energies for chunk in chunks])
            assert measured.tobytes() == energies.tobytes()
            assert np.array_equal(np.concatenate([chunk.labels for chunk in chunks]), labels)
        rows = reference.assessment()["ttest"].tests
        pooled = flow(ExecutionConfig(workers=2, shard_size=256))
        assert pooled.assessment()["ttest"].tests == rows
        assert pooled.result("assessment").details["shards"] == 3

    def test_model_source_chunks_equal_the_leakage_table(self):
        # The leakage model runs the same fixed-once measurement: every
        # chunk, one-block shards included, equals a direct lookup.
        config = FlowConfig(
            name="sbox_dpa",
            campaign=CampaignConfig(source="model"),
            assessment=AssessmentConfig(
                enabled=True, traces_per_class=300, fixed_plaintext=0x6
            ),
        )
        flow = DesignFlow.sbox(0xB, config=config)
        _, energies = flow._energy_source()
        for shard in plan_shards(600, 256, config.assessment.seed):
            for chunk in flow._assessment_chunks(shard):
                assert (chunk.plaintexts[chunk.labels] == 0x6).all()
                assert np.array_equal(chunk.energies, energies(chunk.plaintexts))

    def test_stats_method_merges_too(self):
        config = FlowConfig(
            name="sbox_dpa",
            campaign=CampaignConfig(source="model", noise_std=0.2),
            assessment=AssessmentConfig(
                enabled=True, methods=("ttest", "stats"), traces_per_class=300,
            ),
            execution=ExecutionConfig(shard_size=256),
        )
        serial = DesignFlow.sbox(0xB, config=config)
        parallel = DesignFlow.sbox(
            0xB,
            config=config.replace(
                execution=ExecutionConfig(workers=2, shard_size=256)
            ),
        )
        s = serial.assessment()["stats"]
        p = parallel.assessment()["stats"]
        assert s.fixed["count"] == p.fixed["count"] == 300
        assert np.isclose(s.fixed["mean"], p.fixed["mean"], rtol=1e-10, atol=0.0)
        assert np.isclose(s.random["mean"], p.random["mean"], rtol=1e-10, atol=0.0)

    def test_unmergeable_method_fails_with_a_clear_error(self, monkeypatch):
        class NoMerge:
            def __init__(self):
                self.count = 0

            def update(self, chunk):
                self.count += len(chunk)

            def finalize(self):
                return {"count": self.count}

        monkeypatch.setitem(ASSESSMENTS, "nomerge", lambda config: NoMerge())
        config = FlowConfig(
            name="sbox_dpa",
            campaign=CampaignConfig(source="model"),
            assessment=AssessmentConfig(
                enabled=True, methods=("nomerge",), traces_per_class=40
            ),
        )
        flow = DesignFlow.sbox(0xB, config=config)
        with pytest.raises(FlowError, match="merge"):
            flow.assessment()


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


class TestParentStaysLight:
    """A pooled campaign's workers build the circuit; an unrouted parent
    maps nothing it does not read."""

    def test_pooled_unrouted_parent_maps_no_circuit(self):
        flow = _sbox_flow(ExecutionConfig(workers=2), noise_std=0.01)
        serial = _sbox_flow(ExecutionConfig(), noise_std=0.01)
        assert np.array_equal(flow.traces().traces, serial.traces().traces)
        assert "circuit" not in flow.computed_stages()
        assert "expressions" not in flow.computed_stages()
        # The in-process run maps it on first use, as before.
        assert "circuit" in serial.computed_stages()

    def test_pooled_unrouted_assessment_maps_no_circuit(self):
        config = FlowConfig(
            name="sbox_dpa",
            assessment=AssessmentConfig(traces_per_class=600),
            execution=ExecutionConfig(workers=2),
        )
        flow = DesignFlow.sbox(0xB, config=config)
        assert not flow.assessment()["ttest"].leaks
        assert "circuit" not in flow.computed_stages()
        # An explicit request still maps it.
        assert flow.circuit().gate_count() > 0
        assert "circuit" in flow.computed_stages()

    def test_pooled_routed_parent_still_maps_and_routes(self):
        config = FlowConfig(
            name="sbox_dpa",
            campaign=CampaignConfig(trace_count=300),
            layout=LayoutConfig(router="fat"),
            execution=ExecutionConfig(workers=2),
        )
        flow = DesignFlow.sbox(0xB, config=config)
        flow.traces()
        assert {"circuit", "layout"} <= set(flow.computed_stages())
        assert flow.layout() is not None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mapping_failure_names_its_cause(self, workers):
        flow = DesignFlow(
            {"F": "1"},
            FlowConfig(
                name="constant",
                campaign=CampaignConfig(trace_count=300),
                execution=ExecutionConfig(workers=workers),
            ),
        )
        with pytest.raises(FlowError, match="mapping failed: constant nets"):
            flow.traces()


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
