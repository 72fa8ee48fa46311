"""The artifact store: content keys, round-trips, pipeline cache hits."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pytest

from repro.engine import ArtifactStore, content_key, store_record
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
            return content_key(store_record(flow, "traces"))

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
            return content_key(store_record(flow, "traces"))

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
        return content_key(store_record(flow, "traces"))

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

    def test_miss_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.get_traceset("c" * 64) is None
        assert store.get_json("c" * 64) is None

    def test_json_round_trip_and_kind_check(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        store.put_json("d" * 64, {"answer": 42}, {"stage": "assessment"}, kind="assessment")
        assert store.get_json("d" * 64, kind="assessment") == {"answer": 42}
        assert store.get_json("d" * 64, kind="json") is None

    def test_meta_is_compact_and_indented_entries_still_read(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = "8" * 64
        payload = {"answer": [1, 2.5, "x"]}
        store.put_json(key, payload, {"stage": "assessment"}, kind="assessment")
        meta_path = store.path(key) / "meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta_path.read_text() == json.dumps(meta, sort_keys=True)
        # The layout older versions wrote.
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True))
        assert store.get_json(key, kind="assessment") == payload

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

    def test_size_bytes_survives_a_concurrent_writer(self, tmp_path, monkeypatch):
        # Sweep cells on a pool share one store: a cell sampling the
        # store gauges walks it while another cell's staging dir is
        # renamed away.  Files that vanish mid-walk count as gone.
        store = ArtifactStore(tmp_path / "store")
        store.put_traceset("e" * 64, _traceset(), {"stage": "traces"})
        committed = store.size_bytes()
        staging = store.root / ".ffffffffffff-writer"
        staging.mkdir()
        (staging / "meta.json").write_text("{}")
        real_walk = os.walk

        def racing_walk(top, *args, **kwargs):
            for directory, dirs, files in real_walk(top, *args, **kwargs):
                if directory == str(staging):
                    shutil.rmtree(staging)  # listed, then renamed away
                yield directory, dirs, files

        monkeypatch.setattr(os, "walk", racing_walk)
        assert store.size_bytes() == committed
        assert store.stats()["bytes"] == committed

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

    @pytest.mark.parametrize("kind", ["traces", "assessment"])
    def test_an_entry_of_another_format_is_replaced_by_the_next_put(
        self, tmp_path, kind
    ):
        store = ArtifactStore(tmp_path / "store")
        key = "7" * 64
        original = _traceset()

        def put():
            if kind == "traces":
                store.put_traceset(key, original, {"stage": "traces"})
            else:
                store.put_json(key, {"answer": 42}, {"stage": kind}, kind=kind)

        def get():
            if kind == "traces":
                return store.get_traceset(key)
            return store.get_json(key, kind=kind)

        put()
        meta_path = store.path(key) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["format"] = 0
        meta_path.write_text(json.dumps(meta, sort_keys=True))
        # Listed, but never served: a get reads it as a miss and
        # removes it, so the recomputed result takes its place.
        assert [entry["format"] for entry in store.entries()] == [0]
        assert get() is None
        assert store.misses == 1 and store.hits == 0
        assert key not in store
        put()
        healed = get()
        if kind == "traces":
            assert np.array_equal(healed.traces, original.traces)
        else:
            assert healed == {"answer": 42}
        assert json.loads(meta_path.read_text())["format"] != 0

    def test_parts_are_files_of_their_own(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        key = "6" * 64
        payload = {"small": [1, 2], "large": {"record": [0.1, "x"]}}
        store.put_json(key, payload, {"stage": "layout"}, kind="layout", parts=("large",))
        assert payload == {"small": [1, 2], "large": {"record": [0.1, "x"]}}
        meta = json.loads((store.path(key) / "meta.json").read_text())
        assert meta["payload"] == {"small": [1, 2]}
        assert meta["parts"] == ["large"]
        assert store.get_json(key, kind="layout") == {"small": [1, 2]}
        assert store.get_part(key, "large") == {"record": [0.1, "x"]}
        assert store.get_part(key, "large", decode=lambda part: part["record"]) == [0.1, "x"]
        # Reading a part counts no second lookup.
        assert store.hits == 1 and store.misses == 0

    @pytest.mark.parametrize("damage", ["missing", "garbled", "refused"])
    def test_a_damaged_part_removes_its_entry(self, tmp_path, damage):
        store = ArtifactStore(tmp_path / "store")
        key = "5" * 64
        store.put_json(key, {"small": 1, "large": [1]}, {"stage": "layout"}, parts=("large",))
        part = store.path(key) / "large.json"
        decode = None
        if damage == "missing":
            part.unlink()
        elif damage == "garbled":
            part.write_text("[1")
        else:
            decode = lambda value: value["no such field"]  # noqa: E731
        assert store.get_part(key, "large", decode=decode) is None
        assert key not in store
        assert not store.path(key).exists()
        # A part of an entry that is gone is just gone.
        assert store.get_part(key, "large") is None

    def test_malformed_part_names_are_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        with pytest.raises(ValueError, match="malformed part name"):
            store.get_part("4" * 64, "../meta")

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

    def test_a_traces_hit_reads_its_meta_once(self, tmp_path, monkeypatch):
        self._flow(tmp_path / "store").traces()
        reads = []
        read_meta = ArtifactStore._read_meta

        def counting(self, key):
            reads.append(key)
            return read_meta(self, key)

        monkeypatch.setattr(ArtifactStore, "_read_meta", counting)
        hit = self._flow(tmp_path / "store")
        hit.traces()
        assert hit.result("traces").details["store"] == "hit"
        assert reads == [content_key(store_record(hit, "traces"))]

    def test_a_hit_without_stored_details_recomputes_them(self, tmp_path):
        miss = self._flow(tmp_path / "store")
        miss.traces()
        store = ArtifactStore(tmp_path / "store")
        meta_path = store.path(content_key(store_record(miss, "traces"))) / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["details"]
        meta_path.write_text(json.dumps(meta))
        hit = self._flow(tmp_path / "store")
        hit.traces()
        details = dict(hit.result("traces").details)
        assert details.pop("store") == "hit"
        expected = miss.result("traces").details
        assert details == {name: expected[name] for name in details}

    def test_unknown_stages_have_no_store_record(self, tmp_path):
        with pytest.raises(ValueError, match="no stored stage 'analysis'"):
            store_record(self._flow(tmp_path / "store"), "analysis")

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

    def test_assessment_details_keep_their_order(self, tmp_path):
        # Both report the noise chain before their store status; a hit
        # has no engine fields.
        def flow():
            config = FlowConfig(
                name="sbox_dpa",
                campaign=CampaignConfig(trace_count=40, noise_std=0.1),
                assessment=AssessmentConfig(enabled=True, traces_per_class=128),
                execution=ExecutionConfig(store=str(tmp_path / "store")),
            )
            return DesignFlow.sbox(0xB, config=config)

        miss = flow()
        miss.assessment()
        hit = flow()
        hit.assessment()
        verdict = ["ttest_max_abs_t", "leaks"]
        engine = ["executor", "workers", "shards", "shard_size", "blocks"]
        assert list(miss.result("assessment").details) == (
            ["traces", *engine, "noise", "store", *verdict]
        )
        assert list(hit.result("assessment").details) == (
            ["traces", "noise", "store", *verdict]
        )

    def test_the_mmap_flag_is_gone(self, capsys):
        from repro.engine.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--mmap"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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

        monkeypatch.setattr("repro.engine.store.json.dumps", interrupt)
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
