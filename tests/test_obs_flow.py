"""Observability across the flow and engine: parity, bit-identity, CLI.

The cardinal rule these tests pin: observation never changes the
result.  A traced campaign must produce bit-identical traces and
verdicts to an untraced one, serial and process executions must emit
the same logical event stream, and the obs config must stay out of the
artifact-store keys so traced and untraced runs share cache entries.
"""

from __future__ import annotations

import json
import os
from collections import Counter as Multiset

import numpy as np
import pytest

from repro.engine import run_sweep
from repro.engine.cli import main
from repro.flow import (
    AssessmentConfig,
    CampaignConfig,
    DesignFlow,
    ExecutionConfig,
    FlowConfig,
    ObservabilityConfig,
)
from repro.obs import BufferSink, Observer, summarize_trace_file, use_observer

TRACES = 768
SHARD = 256

#: Activates obs with no output: events go to the null device.
SILENT_OBS = ObservabilityConfig(trace=os.devnull)


def _flow(execution, obs=SILENT_OBS, **campaign):
    campaign.setdefault("trace_count", TRACES)
    campaign.setdefault("noise_std", 0.01)
    config = FlowConfig(
        name="obs_sbox",
        campaign=CampaignConfig(**campaign),
        execution=execution,
        obs=obs,
    )
    return DesignFlow.sbox(0xB, config=config)


def _forbidden(*args, **kwargs):
    raise AssertionError("the artifact store was walked")


def _run_buffered(execution, **campaign):
    buffer = []
    observer = Observer((BufferSink(buffer),))
    with use_observer(observer):
        flow = _flow(execution, **campaign)
        traces = flow.traces()
    return traces, buffer


class TestBitIdentity:
    def test_traced_run_is_bit_identical_to_untraced(self):
        untraced = _flow(
            ExecutionConfig(shard_size=SHARD), obs=ObservabilityConfig()
        )
        traced, events = _run_buffered(ExecutionConfig(shard_size=SHARD))
        assert events, "the traced run emitted nothing"
        assert np.array_equal(untraced.traces().traces, traced.traces)
        assert np.array_equal(untraced.traces().plaintexts, traced.plaintexts)

    def test_traced_parallel_run_is_bit_identical_too(self):
        untraced = _flow(
            ExecutionConfig(workers=2, shard_size=SHARD), obs=ObservabilityConfig()
        )
        traced, events = _run_buffered(ExecutionConfig(workers=2, shard_size=SHARD))
        assert any(e["name"] == "shard.traces" for e in events)
        assert np.array_equal(untraced.traces().traces, traced.traces)

    def test_traced_verdict_matches_untraced(self):
        def verdict(obs):
            config = FlowConfig(
                name="obs_verdict",
                campaign=CampaignConfig(key=0xB, trace_count=64),
                assessment=AssessmentConfig(
                    enabled=True, traces_per_class=200
                ),
                execution=ExecutionConfig(workers=2, shard_size=128),
                obs=obs,
            )
            flow = DesignFlow.sbox(config=config)
            details = flow.run(["assessment"])["assessment"].details
            return {
                key: value
                for key, value in details.items()
                if key == "leaks" or key.endswith("_max_abs_t")
            }

        buffer = []
        with use_observer(Observer((BufferSink(buffer),))):
            traced = verdict(SILENT_OBS)
        untraced = verdict(ObservabilityConfig())
        assert traced == untraced
        assert any(e["name"] == "shard.assessment" for e in buffer)


class TestEventParity:
    def test_serial_and_process_emit_the_same_logical_stream(self):
        _, serial = _run_buffered(ExecutionConfig(shard_size=SHARD))
        _, parallel = _run_buffered(ExecutionConfig(workers=2, shard_size=SHARD))

        def shard_shape(events):
            # stage.* spans differ legitimately: worker processes rebuild
            # the flow, re-running the circuit stages the serial path
            # computed once.  The sharded work itself must match; the
            # pool's engine.progress status events have no serial twin.
            return Multiset(
                (e["kind"], e["name"])
                for e in events
                if e["name"].startswith(("shard.", "engine."))
                and e["kind"] != "progress"
            )

        assert shard_shape(serial) == shard_shape(parallel)

    def test_worker_events_carry_worker_pids_or_parent(self):
        _, events = _run_buffered(ExecutionConfig(workers=2, shard_size=SHARD))
        spans = [e for e in events if e["name"] == "shard.traces"]
        assert len(spans) == 2 * 3  # start+end per shard
        # every buffered worker event validates against the schema
        from repro.obs import validate_event

        for event in events:
            validate_event(event)

    def test_kernel_metrics_flow_back_from_workers(self):
        _, events = _run_buffered(ExecutionConfig(workers=2, shard_size=SHARD))
        names = {e["name"] for e in events}
        assert "kernel.traces_per_s" in names
        assert "executor.map" in {e["name"] for e in events if e["kind"] == "span.end"}


    @pytest.mark.parametrize("quiet", [True, False])
    def test_workers_buffer_only_for_a_config_with_a_sink(
        self, tmp_path, monkeypatch, quiet
    ):
        # ``--progress -q`` implies no sink: pool workers must ship no
        # events for the parent to drop.  A trace file still gets them.
        from repro.engine import executors

        shipped = []
        pool_outputs = executors._pool_outputs

        def recording(*args):
            for output in pool_outputs(*args):
                shipped.append(output[-1])
                yield output

        monkeypatch.setattr(executors, "_pool_outputs", recording)
        obs = (
            ObservabilityConfig(progress=True, verbosity=0)
            if quiet
            else ObservabilityConfig(trace=str(tmp_path / "trace.jsonl"))
        )
        assert obs.active is not quiet
        traces = _flow(ExecutionConfig(workers=2), obs=obs, trace_count=2048).traces()
        assert len(shipped) == 2
        if quiet:
            assert all(events is None for events in shipped)
        else:
            assert all(events for events in shipped)
        reference = _flow(ExecutionConfig(), obs=ObservabilityConfig(), trace_count=2048)
        assert np.array_equal(traces.traces, reference.traces().traces)


class TestStoreStats:
    def test_counters_and_stats_without_obs(self, tmp_path):
        execution = ExecutionConfig(shard_size=SHARD, store=str(tmp_path / "store"))
        flow = _flow(execution, obs=ObservabilityConfig())
        flow.traces()
        store = flow._artifact_store()
        assert store.misses > 0 and store.writes > 0
        stats = store.stats()
        assert stats["entries"] > 0 and stats["bytes"] > 0
        assert stats["writes"] == store.writes

        rerun = _flow(execution, obs=ObservabilityConfig())
        rerun.traces()
        assert rerun._artifact_store().hits > 0

    def test_obs_config_is_excluded_from_store_keys(self, tmp_path):
        execution = ExecutionConfig(shard_size=SHARD, store=str(tmp_path / "store"))
        _flow(execution, obs=ObservabilityConfig()).traces()

        buffer = []
        with use_observer(Observer((BufferSink(buffer),))):
            _flow(execution).traces()
        hits = [e for e in buffer if e["name"] == "store.hit"]
        misses = [e for e in buffer if e["name"] == "store.miss"]
        assert hits and not misses

    @pytest.mark.parametrize("workers", [1, 2])
    def test_traced_campaign_does_not_walk_the_store(
        self, tmp_path, monkeypatch, workers
    ):
        # A traced campaign samples resource gauges after its map (and,
        # on a pool, as results arrive); none of them may cost a read of
        # every store entry.
        from repro.engine.store import ArtifactStore

        root = tmp_path / "store"
        seeded = ArtifactStore(root)
        entries = 40
        for index in range(entries):
            seeded.put_json(f"{index:064x}", {"index": index}, {"index": index})
        reads = []
        read_meta = ArtifactStore._read_meta

        def counting(self, key):
            reads.append(key)
            return read_meta(self, key)

        monkeypatch.setattr(ArtifactStore, "_read_meta", counting)
        monkeypatch.setattr(ArtifactStore, "size_bytes", _forbidden)
        buffer = []
        with use_observer(Observer((BufferSink(buffer),))):
            flow = _flow(ExecutionConfig(workers=workers, store=str(root)))
            flow.run(["traces"])
            flow.assessment()
        assert flow.result("traces").details["store"] == "miss"
        # One lookup per stage, none per stored entry.
        assert len(reads) == 2, reads
        gauges = {e["name"] for e in buffer if e["kind"] == "gauge"}
        assert "proc.rss_mb" in gauges
        assert not {name for name in gauges if name.startswith("store.")}


class TestSweepTracing:
    def test_sweep_trace_file_covers_every_cell(self, tmp_path):
        trace = tmp_path / "events.jsonl"
        base = FlowConfig(
            name="swp",
            campaign=CampaignConfig(trace_count=32),
            execution=ExecutionConfig(store=str(tmp_path / "store")),
            obs=ObservabilityConfig(trace=str(trace)),
        )
        result = run_sweep(base, {"gate_style": ["sabl", "cvsl"]}, workers=2)
        assert len(result.cells) == 2

        summary = summarize_trace_file(str(trace))
        assert summary.errors == 0
        assert set(summary.cells) == {
            "swp/gate_style=sabl", "swp/gate_style=cvsl"
        }
        assert summary.spans["sweep"].count == 1
        assert summary.counters["sweep.cells_done"] == 2.0
        assert any(name.startswith("stage.") for name in summary.spans)

    def test_sweep_results_unchanged_by_tracing(self, tmp_path):
        def cells(obs, sub):
            base = FlowConfig(
                name="swp",
                campaign=CampaignConfig(trace_count=32),
                execution=ExecutionConfig(store=str(tmp_path / sub)),
                obs=obs,
            )
            return run_sweep(
                base, {"campaign.noise_std": [0.0, 0.02]}, workers=2
            ).cells

        def comparable(cell):
            # Strip wall-clock readings; everything else must match.
            clean = json.loads(json.dumps(cell, default=str))
            clean.pop("elapsed_s", None)
            for stage in clean.get("stages", {}).values():
                stage.get("details", {}).pop("elapsed_s", None)
                stage.pop("elapsed_s", None)
            return clean

        traced = cells(ObservabilityConfig(trace=str(tmp_path / "e.jsonl")), "s1")
        untraced = cells(ObservabilityConfig(), "s2")
        assert [c["cell"] for c in traced] == [c["cell"] for c in untraced]
        # Compare cell by cell and stage by stage, so a failure names
        # the cell, the stage and the key that differ.
        for traced_cell, untraced_cell in zip(traced, untraced):
            name = traced_cell["cell"]
            a, b = comparable(traced_cell), comparable(untraced_cell)
            a_stages, b_stages = a.pop("stages"), b.pop("stages")
            assert list(a_stages) == list(b_stages), name
            for stage in a_stages:
                a_stage, b_stage = a_stages[stage], b_stages[stage]
                for key in sorted(set(a_stage) | set(b_stage)):
                    assert a_stage.get(key) == b_stage.get(key), (
                        f"cell {name!r} stage {stage!r} key {key!r}"
                    )
            for key in sorted(set(a) | set(b)):
                assert a.get(key) == b.get(key), f"cell {name!r} key {key!r}"


class TestCli:
    def test_traced_run_and_summary(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        code = main(
            [
                "run", "--set", "trace_count=32",
                "--trace", str(trace), "--store", str(tmp_path / "store"),
            ]
        )
        assert code == 0
        assert trace.exists()
        summary = summarize_trace_file(str(trace))
        assert summary.errors == 0
        capsys.readouterr()

        code = main(["trace", "summary", str(trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Trace summary:" in out and "Spans" in out

    def test_trace_summary_json(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        assert main(
            ["run", "--set", "trace_count=32", "--trace", str(trace),
             "--store", str(tmp_path / "store")]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(trace), "--json", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0 and payload["spans"]

    def test_trace_summary_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", "summary", str(bad)]) != 0

    def test_store_stats_subcommand(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(
            ["run", "--set", "trace_count=32", "--store", str(store)]
        ) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and "bytes" in out

    def test_json_dash_keeps_stdout_clean(self, tmp_path, capsys):
        code = main(
            ["run", "--set", "trace_count=32", "--store", str(tmp_path / "store"),
             "--json", "-"]
        )
        assert code == 0
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout is nothing but the report
        assert "DesignFlow" in captured.err

    def test_quiet_silences_progress(self, tmp_path, capsys):
        code = main(
            ["run", "--set", "trace_count=32", "--store", str(tmp_path / "store"),
             "--progress", "-q"]
        )
        assert code == 0
        assert "repro:" not in capsys.readouterr().err

    def test_verbose_implies_progress(self, tmp_path, capsys):
        code = main(
            ["run", "--set", "trace_count=32",
             "--store", str(tmp_path / "store"), "-v"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "repro: stage." in err


class TestProfiledFlows:
    """Span profiling extends the cardinal rule: profiled == unprofiled."""

    #: Workers inherit profiling from the flow config they rebuild.
    PROFILED_OBS = ObservabilityConfig(trace=os.devnull, profile=True)

    def _run_profiled(self, execution):
        buffer = []
        observer = Observer((BufferSink(buffer),), profile=True)
        with use_observer(observer):
            flow = _flow(execution, obs=self.PROFILED_OBS)
            traces = flow.traces()
        return traces, buffer

    def test_profiled_run_is_bit_identical_to_unprofiled(self):
        plain = _flow(ExecutionConfig(shard_size=SHARD), obs=ObservabilityConfig())
        traced, events = self._run_profiled(ExecutionConfig(shard_size=SHARD))
        assert any(e["kind"] == "span.profile" for e in events), (
            "the profiled run emitted no span.profile events"
        )
        assert np.array_equal(plain.traces().traces, traced.traces)
        assert np.array_equal(plain.traces().plaintexts, traced.plaintexts)

    def test_profiled_parallel_run_is_bit_identical_too(self):
        plain = _flow(
            ExecutionConfig(workers=2, shard_size=SHARD), obs=ObservabilityConfig()
        )
        traced, events = self._run_profiled(
            ExecutionConfig(workers=2, shard_size=SHARD)
        )
        assert any(e["kind"] == "span.profile" for e in events)
        assert np.array_equal(plain.traces().traces, traced.traces)

    def test_only_outermost_spans_profile(self):
        _, events = self._run_profiled(ExecutionConfig(shard_size=SHARD))
        profiled = {e["name"] for e in events if e["kind"] == "span.profile"}
        started = {e["name"] for e in events if e["kind"] == "span.start"}
        # Nested spans (shard.* inside stage.traces) never re-profile.
        assert profiled
        assert profiled < started

    def test_cli_profile_flag_surfaces_hotspots(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        code = main(
            ["run", "--set", "trace_count=32", "--trace", str(trace),
             "--profile", "--store", str(tmp_path / "store")]
        )
        assert code == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Profile hotspots: stage." in out
        assert "cumulative [s]" in out

    def test_trace_summary_reports_quantile_columns(self, tmp_path, capsys):
        trace = tmp_path / "events.jsonl"
        assert main(
            ["run", "--set", "trace_count=32", "--trace", str(trace),
             "--store", str(tmp_path / "store")]
        ) == 0
        capsys.readouterr()
        assert main(["trace", "summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "p50" in out and "p95" in out and "p99" in out
