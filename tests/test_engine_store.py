"""The artifact store: content keys, round-trips, pipeline cache hits."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import ArtifactStore, content_key, trace_store_record
from repro.flow import (
    AnalysisConfig,
    AssessmentConfig,
    CampaignConfig,
    DesignFlow,
    ExecutionConfig,
    FlowConfig,
    ScenarioConfig,
)
from repro.obs import BufferSink, Observer, use_observer
from repro.power.trace import TraceSet


def _traceset(count=32):
    rng = np.random.default_rng(5)
    return TraceSet(
        plaintexts=rng.integers(0, 16, size=count),
        traces=rng.normal(1e-12, 1e-14, size=count),
        key=0xB,
        description="test campaign",
    )


class TestContentKey:
    def test_is_order_insensitive_and_stable(self):
        a = content_key({"x": 1, "y": [1, 2], "z": {"k": "v"}})
        b = content_key({"z": {"k": "v"}, "y": [1, 2], "x": 1})
        assert a == b and len(a) == 64

    def test_differs_on_any_value_change(self):
        base = {"campaign": {"seed": 2005, "trace_count": 100}}
        changed = {"campaign": {"seed": 2006, "trace_count": 100}}
        assert content_key(base) != content_key(changed)

    def test_flow_record_covers_the_campaign_content(self):
        def key_of(**campaign):
            flow = DesignFlow.sbox(
                0xB, config=FlowConfig(campaign=CampaignConfig(**campaign))
            )
            return content_key(trace_store_record(flow))

        base = key_of(trace_count=100)
        assert key_of(trace_count=200) != base
        assert key_of(trace_count=100, gate_style="cvsl") != base
        assert key_of(trace_count=100, noise_std=0.01) != base
        assert key_of(trace_count=100, seed=7) != base

    def test_execution_is_not_part_of_the_content(self):
        # Shard size, workers and executor only schedule the campaign's
        # block stream, so no execution field moves the key.
        def key_with(execution):
            flow = DesignFlow.sbox(
                0xB, config=FlowConfig(execution=execution)
            )
            return content_key(trace_store_record(flow))

        base = key_with(ExecutionConfig())
        assert key_with(ExecutionConfig(shard_size=64)) == base
        assert key_with(ExecutionConfig(workers=4, shard_size=300)) == base
        assert key_with(ExecutionConfig(executor="serial", store="x")) == base


class TestScenarioKeys:
    """The scenario hash: name *and* parameters are campaign content."""

    @staticmethod
    def _key(scenario="sbox", params=None, analysis=None, **campaign):
        flow = DesignFlow(
            None,
            FlowConfig(
                campaign=CampaignConfig(scenario=scenario, **campaign),
                scenario=ScenarioConfig(params=params or {}),
                analysis=analysis or AnalysisConfig(),
            ),
        )
        return content_key(trace_store_record(flow))

    def test_scenario_name_is_part_of_the_key(self):
        assert self._key(scenario="sbox") != self._key(scenario="present_round")

    def test_scenario_params_are_part_of_the_key(self):
        base = self._key(scenario="present_round", params={"sboxes": 2})
        assert self._key(scenario="present_round", params={"sboxes": 4}) != base
        assert self._key(scenario="present_round", params={"sboxes": 2}) == base

    def test_rounds_param_differs_too(self):
        assert self._key(
            scenario="present_rounds", params={"sboxes": 1, "rounds": 2}
        ) != self._key(scenario="present_rounds", params={"sboxes": 1, "rounds": 3})

    def test_model_campaigns_key_on_the_attack_point(self):
        base = self._key(
            scenario="present_rounds",
            params={"sboxes": 1, "rounds": 2},
            source="model",
            model_leakage="distance",
        )
        moved = self._key(
            scenario="present_rounds",
            params={"sboxes": 1, "rounds": 2},
            source="model",
            model_leakage="distance",
            analysis=AnalysisConfig(target_round=2),
        )
        assert base != moved
        # Circuit campaigns ignore the analysis config entirely.
        assert self._key() == self._key(analysis=AnalysisConfig(target_bit=2))

    def test_bit_model_keys_on_target_sbox_and_bit(self):
        def bit_key(**analysis):
            return self._key(
                scenario="present_round",
                params={"sboxes": 2},
                source="model",
                model_leakage="bit",
                analysis=AnalysisConfig(**analysis),
            )

        assert bit_key(target_sbox=0) != bit_key(target_sbox=1)
        assert bit_key(target_bit=0) != bit_key(target_bit=1)


class TestArtifactStore:
    def test_traceset_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        original = _traceset()
        store.put_traceset("a" * 64, original, {"stage": "traces"})
        loaded = store.get_traceset("a" * 64)
        assert loaded is not None
        assert np.array_equal(loaded.plaintexts, original.plaintexts)
        assert np.array_equal(loaded.traces, original.traces)
        assert loaded.key == original.key
        assert loaded.description == original.description

    def test_memmap_load(self, tmp_path):
        plain = ArtifactStore(tmp_path / "store")
        plain.put_traceset("b" * 64, _traceset(), {"stage": "traces"})
        mapped = ArtifactStore(tmp_path / "store", mmap=True)
        loaded = mapped.get_traceset("b" * 64)
        assert np.array_equal(loaded.traces, _traceset().traces)

    def test_miss_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.get_traceset("c" * 64) is None
        assert store.get_json("c" * 64) is None

    def test_json_round_trip_and_kind_check(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put_json("d" * 64, {"answer": 42}, {"stage": "assessment"}, kind="assessment")
        assert store.get_json("d" * 64, kind="assessment") == {"answer": 42}
        assert store.get_json("d" * 64, kind="json") is None

    def test_entries_and_clear(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put_traceset("e" * 64, _traceset(), {"stage": "traces"})
        store.put_json("f" * 64, [], {"stage": "assessment"}, kind="assessment")
        entries = store.entries()
        assert len(entries) == 2
        assert {meta["kind"] for meta in entries} == {"traces", "assessment"}
        assert store.size_bytes() > 0
        assert store.clear() == 2
        assert store.entries() == []

    @pytest.mark.parametrize("damage", ["truncated_array", "garbled_meta"])
    def test_damaged_entry_is_replaced_by_the_next_put(self, tmp_path, damage):
        store = ArtifactStore(tmp_path / "store")
        key = "9" * 64
        original = _traceset()
        store.put_traceset(key, original, {"stage": "traces"})
        if damage == "truncated_array":
            array = store.path(key) / "traces.npy"
            array.write_bytes(array.read_bytes()[: array.stat().st_size // 2])
        else:
            (store.path(key) / "meta.json").write_text('{"kind": "tra')
        assert store.get_traceset(key) is None
        store.put_traceset(key, original, {"stage": "traces"})
        healed = store.get_traceset(key)
        assert healed is not None
        assert np.array_equal(healed.traces, original.traces)

    def test_malformed_keys_are_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(ValueError):
            store.path("../escape")
        with pytest.raises(ValueError):
            store.path("")


class TestPipelineCaching:
    def _flow(self, store_path, trace_count=40, **campaign):
        config = FlowConfig(
            name="sbox_dpa",
            campaign=CampaignConfig(trace_count=trace_count, **campaign),
            execution=ExecutionConfig(store=str(store_path)),
        )
        return DesignFlow.sbox(0xB, config=config)

    def test_second_run_hits_the_store(self, tmp_path):
        def counters(flow):
            buffer = []
            with use_observer(Observer((BufferSink(buffer),))):
                traces = flow.traces()
            return traces, {e["name"] for e in buffer if e["kind"] == "counter"}

        first = self._flow(tmp_path / "store")
        original, miss_counters = counters(first)
        assert first.result("traces").details["store"] == "miss"
        assert "kernel.cycles" in miss_counters

        second = self._flow(tmp_path / "store")
        cached, hit_counters = counters(second)
        hit_details = second.result("traces").details
        assert hit_details["store"] == "hit"
        # A hit evaluates no kernel.
        assert "kernel.cycles" not in hit_counters
        # Summary statistics come from the stored meta, not a re-walk.
        miss_details = first.result("traces").details
        assert hit_details["mean_energy_J"] == miss_details["mean_energy_J"]
        assert hit_details["count"] == miss_details["count"]
        assert np.array_equal(cached.traces, original.traces)
        assert np.array_equal(cached.plaintexts, original.plaintexts)

    def test_different_campaign_misses(self, tmp_path):
        self._flow(tmp_path / "store").traces()
        other = self._flow(tmp_path / "store", noise_std=0.01)
        other.traces()
        assert other.result("traces").details["store"] == "miss"

    def test_store_without_sharding_keeps_legacy_streams(self, tmp_path):
        plain = DesignFlow.sbox(
            0xB, config=FlowConfig(campaign=CampaignConfig(trace_count=40))
        )
        stored = self._flow(tmp_path / "store")
        assert np.array_equal(plain.traces().plaintexts, stored.traces().plaintexts)

    def test_assessment_results_cache_and_round_trip(self, tmp_path):
        def flow():
            config = FlowConfig(
                name="sbox_dpa",
                campaign=CampaignConfig(source="model", noise_std=0.2),
                assessment=AssessmentConfig(
                    enabled=True, methods=("ttest", "stats"),
                    traces_per_class=120,
                ),
                execution=ExecutionConfig(store=str(tmp_path / "store")),
            )
            return DesignFlow.sbox(0xB, config=config)

        first = flow()
        outcome = first.assessment()
        assert first.result("assessment").details["store"] == "miss"

        second = flow()
        cached = second.assessment()
        assert second.result("assessment").details["store"] == "hit"
        assert cached["ttest"].to_dict() == outcome["ttest"].to_dict()
        assert cached["stats"].to_dict() == outcome["stats"].to_dict()
        # Verdict helpers survive the round-trip.
        assert cached["ttest"].leaks == outcome["ttest"].leaks
        assert cached["ttest"].max_abs_t == outcome["ttest"].max_abs_t

    def test_pathlike_store_is_coerced_to_str(self, tmp_path):
        # The config must stay JSON-serialisable (worker/sweep payloads).
        config = ExecutionConfig(workers=2, shard_size=16, store=tmp_path / "store")
        assert isinstance(config.store, str)
        flow = DesignFlow.sbox(
            0xB,
            config=FlowConfig(
                name="sbox_dpa",
                campaign=CampaignConfig(trace_count=32),
                execution=config,
            ),
        )
        flow.traces()  # previously crashed serialising the worker spec
        assert flow.result("traces").details["store"] == "miss"

    def test_parallel_and_cached_runs_agree(self, tmp_path):
        config = FlowConfig(
            name="sbox_dpa",
            campaign=CampaignConfig(trace_count=48, noise_std=0.01),
            execution=ExecutionConfig(
                workers=2, shard_size=16, store=str(tmp_path / "store")
            ),
        )
        first = DesignFlow.sbox(0xB, config=config)
        original = first.traces()
        second = DesignFlow.sbox(0xB, config=config)
        cached = second.traces()
        assert second.result("traces").details["store"] == "hit"
        assert np.array_equal(cached.traces, original.traces)


class TestStagingHygiene:
    """Atomic writes must not leak staging dirs, and gc prunes orphans."""

    def test_failed_write_cleans_its_staging_dir(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store")

        def explode(*_args, **_kwargs):
            raise OSError("disk full")

        monkeypatch.setattr("repro.engine.store.np.save", explode)
        with pytest.raises(OSError, match="disk full"):
            store.put_traceset("a" * 64, _traceset(), {"stage": "traces"})
        leftovers = [p.name for p in store.root.iterdir() if p.name.startswith(".")]
        assert leftovers == []
        assert store.entries() == []

    def test_interrupted_write_cleans_its_staging_dir(self, tmp_path, monkeypatch):
        # KeyboardInterrupt is a BaseException: only a ``finally`` --
        # not ``except Exception`` -- catches it on the way out.
        store = ArtifactStore(tmp_path / "store")

        def interrupt(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.engine.store.json.dump", interrupt)
        with pytest.raises(KeyboardInterrupt):
            store.put_traceset("b" * 64, _traceset(), {"stage": "traces"})
        leftovers = [p.name for p in store.root.iterdir() if p.name.startswith(".")]
        assert leftovers == []

    def test_gc_prunes_only_orphaned_staging_dirs(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put_traceset("c" * 64, _traceset(), {"stage": "traces"})
        orphan = store.root / (".%s-dead0" % ("c" * 12))
        orphan.mkdir()
        (orphan / "traces.npy").write_bytes(b"partial")
        unrelated = store.root / ".not-a-staging-dir"
        unrelated.mkdir()
        assert store.gc() == 1
        assert not orphan.exists()
        assert unrelated.exists()  # only the staging pattern is pruned
        assert store.get_traceset("c" * 64) is not None

    def test_gc_min_age_spares_live_writers(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.root.mkdir(parents=True, exist_ok=True)
        fresh = store.root / (".%s-live0" % ("d" * 12))
        fresh.mkdir()
        assert store.gc(min_age_s=3600.0) == 0
        assert fresh.exists()
        assert store.gc(min_age_s=0.0) == 1

    def test_gc_on_missing_store_is_a_noop(self, tmp_path):
        assert ArtifactStore(tmp_path / "nowhere").gc() == 0

    def test_cli_store_gc(self, tmp_path, capsys):
        from repro.engine.cli import main

        store = ArtifactStore(tmp_path / "store")
        store.root.mkdir(parents=True, exist_ok=True)
        (store.root / (".%s-dead0" % ("e" * 12))).mkdir()
        assert main(["store", "gc", "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 orphaned staging dirs" in out
