"""Live telemetry: heartbeats, streaming progress, ``repro top``.

The live channel extends the cardinal rule instead of bending it: a
live-channel run must stay bit-identical to buffered and untraced runs
(serial and parallel, fork and spawn), the buffered piggyback stays the
canonical event record (no duplicate deliveries), and a full, closed or
misbehaving live path degrades to exactly the buffered behavior --
dropped telemetry, intact results.  These tests pin that contract plus
the new surfaces: schema v3, tail-safe trace reading, the progress
aggregator, executor-level mid-shard delivery, heartbeat-enriched
timeouts, and the ``repro top`` / ``trace summary --follow`` CLI.
"""

from __future__ import annotations

import json
import os
import pickle
import queue as queue_module
import threading
import time

import numpy as np
import pytest

from repro.engine import (
    ShardTimeoutError,
    run_sweep,
    shutdown_pools,
    warm_pool,
    warm_pool_stats,
)
from repro.engine.cli import main
from repro.engine.executors import (
    ProcessPoolExecutor,
    _pool_channel,
    default_start_method,
)
from repro.flow import (
    AssessmentConfig,
    CampaignConfig,
    DesignFlow,
    ExecutionConfig,
    FlowConfig,
    ObservabilityConfig,
)
from repro.flow.config import ConfigError
from repro.obs import (
    SCHEMA_VERSION,
    BufferSink,
    LiveSink,
    MetricsRegistry,
    ObsError,
    Observer,
    ProgressAggregator,
    iter_trace_events,
    make_event,
    summarize_trace_file,
    use_observer,
    validate_event,
)
from repro.obs import live as obs_live

TRACES = 768
SHARD = 256

#: Live streaming with no console/file output: heartbeats every 50 ms,
#: every event forwarded (no sampling), results untouched by contract.
LIVE_OBS = ObservabilityConfig(
    sinks=("null",), live=True, heartbeat_s=0.05, live_interval_s=0.0
)


def _flow(execution, obs=LIVE_OBS, **campaign):
    campaign.setdefault("trace_count", TRACES)
    campaign.setdefault("noise_std", 0.01)
    config = FlowConfig(
        name="live_sbox",
        campaign=CampaignConfig(**campaign),
        execution=execution,
        obs=obs,
    )
    return DesignFlow.sbox(0xB, config=config)


def _run_live(execution, obs=LIVE_OBS, **campaign):
    buffer = []
    with use_observer(Observer((BufferSink(buffer),))):
        traces = _flow(execution, obs=obs, **campaign).traces()
    return traces, buffer


# Module-level so they pickle into pool workers.


def _stream_and_sleep(payload):
    # Streams heartbeats from inside the task, then lingers: the parent
    # must see the beats *while* this sleep is still running.
    beat = obs_live.start_heartbeat(obs_live.worker_queue(), 0.05)
    try:
        time.sleep(0.6)
    finally:
        beat.stop()
    return payload * 2


def _die(_payload):
    os._exit(13)


class _FullQueue:
    def put_nowait(self, event):
        raise queue_module.Full


class _ClosedQueue:
    def put_nowait(self, event):
        raise ValueError("queue is closed")


class _RecordingQueue:
    def __init__(self):
        self.events = []

    def put_nowait(self, event):
        self.events.append(event)


def _event(kind, name, seq=0, **kwargs):
    return make_event(kind, name, seq=seq, **kwargs)


class TestSafePutAndLiveSink:
    @pytest.fixture(autouse=True)
    def _fresh_warning_flag(self, monkeypatch):
        monkeypatch.setattr(obs_live, "_DROP_WARNED", False)

    def test_full_queue_drops_with_a_single_warning(self, capsys):
        event = _event("counter", "kernel.x", value=1.0)
        assert obs_live.safe_put(_FullQueue(), event) is False
        assert obs_live.safe_put(_FullQueue(), event) is False
        err = capsys.readouterr().err
        assert err.count("dropping live telemetry") == 1
        assert "live event channel full" in err

    def test_closed_queue_drops_with_a_single_warning(self, capsys):
        event = _event("counter", "kernel.x", value=1.0)
        assert obs_live.safe_put(_ClosedQueue(), event) is False
        assert obs_live.safe_put(_ClosedQueue(), event) is False
        err = capsys.readouterr().err
        assert err.count("dropping live telemetry") == 1
        assert "live event channel closed" in err

    def test_sink_never_raises_into_the_observer(self):
        sink = LiveSink(_ClosedQueue(), interval_s=0.0)
        sink.emit(_event("counter", "kernel.x", value=1.0))  # must not raise

    def test_span_starts_never_stream(self):
        queue = _RecordingQueue()
        sink = LiveSink(queue, interval_s=0.0)
        sink.emit(_event("span.start", "shard.traces"))
        assert queue.events == []

    def test_critical_events_bypass_the_sampler(self):
        queue = _RecordingQueue()
        sink = LiveSink(queue, interval_s=3600.0)
        sink._last_sampled = time.monotonic()  # sampler window exhausted
        sink.emit(_event("counter", "kernel.batches", value=1.0))
        sink.emit(_event("span.end", "shard.traces", duration_s=0.1))
        sink.emit(_event("counter", "sweep.cells_done", value=1.0))
        names = [event["name"] for event in queue.events]
        assert names == ["shard.traces", "sweep.cells_done"]

    def test_noncritical_events_are_time_sampled(self):
        queue = _RecordingQueue()
        sink = LiveSink(queue, interval_s=3600.0)
        sink._last_sampled = time.monotonic() - 7200.0  # window open
        sink.emit(_event("counter", "kernel.batches", value=1.0))
        sink.emit(_event("counter", "kernel.batches", value=2.0))  # throttled
        assert [event["value"] for event in queue.events] == [1.0]


class TestMetrics:
    def test_gauge_inc_dec(self):
        gauge = MetricsRegistry().gauge("executor.pool_workers")
        gauge.inc()
        gauge.inc(2.0)
        gauge.dec()
        assert gauge.value == 2.0
        gauge.set(7.5)
        assert gauge.value == 7.5

    def test_snapshot_is_sorted_by_name(self):
        registry = MetricsRegistry()
        registry.counter("zeta").inc()
        registry.gauge("alpha").set(1)
        registry.histogram("mid").observe(3.0)
        assert list(registry.snapshot()) == ["alpha", "mid", "zeta"]


class TestSchemaV3:
    def test_live_kinds_validate(self):
        assert SCHEMA_VERSION == 3
        heartbeat = obs_live.heartbeat_event()
        assert validate_event(heartbeat)["kind"] == "worker.heartbeat"
        progress = _event(
            "progress", "engine.progress", value=10.0, attrs={"unit": "traces"}
        )
        assert validate_event(progress)["v"] == 3

    def test_live_kinds_require_a_numeric_value(self):
        bad = _event("progress", "engine.progress", value=1.0)
        del bad["value"]
        with pytest.raises(ObsError, match="needs a numeric 'value'"):
            validate_event(bad)

    def test_older_schema_versions_stay_readable(self):
        for version in (1, 2):
            event = _event("span.end", "stage.traces", duration_s=0.5)
            event["v"] = version
            assert validate_event(event)["v"] == version

    def test_heartbeat_reports_task_and_rss(self):
        with obs_live.worker_task("traces", shard=3, traces=16):
            event = obs_live.heartbeat_event()
        assert event["attrs"]["task"] == "traces"
        assert event["attrs"]["shard"] == 3
        assert event["attrs"]["rss_mb"] >= 0
        assert obs_live.rss_bytes() > 0


class TestTailSafeReading:
    def _line(self, seq=0):
        return json.dumps(_event("counter", "kernel.x", seq=seq, value=1.0))

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        trace = tmp_path / "events.jsonl"
        trace.write_text(self._line(0) + "\n" + self._line(1)[: 20])
        summary = summarize_trace_file(str(trace))
        assert summary.events == 1

    def test_atomic_trailing_line_without_newline_still_counts(self, tmp_path):
        trace = tmp_path / "events.jsonl"
        trace.write_text(self._line(0) + "\n" + self._line(1))
        assert summarize_trace_file(str(trace)).events == 2

    def test_complete_garbage_line_still_raises(self, tmp_path):
        trace = tmp_path / "events.jsonl"
        trace.write_text("not json\n" + self._line(0) + "\n")
        with pytest.raises(ObsError, match=r":1:.*not valid JSON"):
            summarize_trace_file(str(trace))

    def test_follow_survives_a_racing_writer(self, tmp_path):
        trace = tmp_path / "events.jsonl"
        trace.write_text("")
        total = 20
        done = threading.Event()

        def write_slowly():
            with open(trace, "a", encoding="utf-8") as handle:
                for seq in range(total):
                    line = self._line(seq) + "\n"
                    # Two flushed half-writes per line: the reader keeps
                    # hitting truncated partials mid-append.
                    handle.write(line[: len(line) // 2])
                    handle.flush()
                    time.sleep(0.002)
                    handle.write(line[len(line) // 2:])
                    handle.flush()
            done.set()

        writer = threading.Thread(target=write_slowly)
        writer.start()
        try:
            events = list(
                iter_trace_events(
                    str(trace), follow=True, poll_s=0.01, stop=done.is_set
                )
            )
        finally:
            writer.join()
        assert [event["seq"] for event in events] == list(range(total))


class TestProgressAggregator:
    def _shard_end(self, count):
        return _event(
            "span.end", "shard.traces", duration_s=0.1, attrs={"count": count}
        )

    def test_ewma_rate_and_eta_are_deterministic(self):
        agg = ProgressAggregator(100, unit="traces")
        agg.note_event(self._shard_end(10), now=0.0)
        assert agg.done == 10 and agg.rate is None and agg.eta_s() is None
        agg.note_event(self._shard_end(10), now=1.0)
        assert agg.rate == pytest.approx(10.0)
        assert agg.eta_s() == pytest.approx(8.0)
        line = agg.render_line()
        assert "traces 20/100 (20.0%)" in line
        assert "10.0/s" in line and "ETA 8.0s" in line

    def test_heartbeats_feed_liveness_but_never_completion(self):
        agg = ProgressAggregator(100, unit="traces")
        beat = obs_live.heartbeat_event()
        agg.note_event(beat, now=5.0)
        assert agg.done == 0 and agg.heartbeats == 1
        assert agg.heartbeat_age(5.5) == pytest.approx(0.5)
        assert agg.workers[beat["pid"]]["rss_mb"] is not None
        assert "1 worker(s)" in agg.render_line(5.5)

    def test_cells_unit_follows_the_sweep_counter(self):
        agg = ProgressAggregator(4, unit="cells")
        agg.note_event(
            _event("counter", "sweep.cells_done", value=1.0), now=0.0
        )
        agg.note_event(
            _event("counter", "sweep.cells_done", value=1.0), now=2.0
        )
        assert agg.done == 2 and agg.cells_done == 2
        snapshot = agg.snapshot()
        assert snapshot["unit"] == "cells" and snapshot["total"] == 4
        assert snapshot["rate"] == pytest.approx(0.5)

    def test_unknown_total_renders_without_eta(self):
        agg = ProgressAggregator(None, unit="traces")
        agg.advance(32, now=1.0)
        assert agg.total is None and agg.eta_s() is None
        assert agg.render_line() == "repro: traces 32"


class TestExecutorLiveProtocol:
    def test_events_arrive_mid_map(self):
        received, arrivals = [], []

        def handler(events):
            received.extend(events)
            arrivals.append(time.monotonic())

        executor = ProcessPoolExecutor(2)
        executor.on_live_events = handler
        try:
            results = executor.map(_stream_and_sleep, [1, 2])
        finally:
            executor.on_live_events = None
        end = time.monotonic()
        assert results == [2, 4]
        assert "worker.heartbeat" in {event["kind"] for event in received}
        # Delivery happened while the workers were still sleeping, not
        # after the shard results came back.
        assert arrivals[0] < end - 0.25

    def test_handler_error_disables_streaming_not_the_map(self, capsys):
        executor = ProcessPoolExecutor(2)
        executor._handler_warned = False
        executor.on_live_events = lambda events: 1 / 0
        try:
            results = executor.map(_stream_and_sleep, [1, 2])
        finally:
            executor.on_live_events = None
        assert results == [2, 4]
        err = capsys.readouterr().err
        assert err.count("live event handler disabled") == 1

    def test_eviction_closes_the_live_channel(self):
        warm_pool(2)
        channel = _pool_channel(default_start_method(), 2)
        assert channel is not None and not channel.closed
        executor = ProcessPoolExecutor(2, timeout=3.0)
        executor.on_live_events = lambda events: None
        with pytest.raises(ShardTimeoutError):
            executor.map(_die, [0, 1])
        # The channel died with its pool: no heartbeats survive the
        # eviction, and draining the corpse is a safe no-op.
        assert channel.closed
        assert channel.drain() == []
        assert _pool_channel(default_start_method(), 2) is None

    def test_warm_pool_stats_counts_pools_and_workers(self):
        shutdown_pools()
        assert warm_pool_stats() == (0, 0)
        warm_pool(2)
        assert warm_pool_stats() == (1, 2)
        shutdown_pools()
        assert warm_pool_stats() == (0, 0)


class TestShardTimeoutHeartbeatContext:
    def test_plain_message_is_unchanged_without_heartbeats(self):
        error = ShardTimeoutError(1, 5.0)
        assert "heartbeat" not in str(error)
        assert error.heartbeat_age is None

    def test_recent_heartbeat_reads_alive_but_slow(self):
        error = ShardTimeoutError(1, 5.0, heartbeat_age=1.5, heartbeat_s=1.0)
        assert "last worker heartbeat was 1.5s ago" in str(error)
        assert "alive but slow?" in str(error)

    def test_stale_heartbeat_reads_dead(self):
        error = ShardTimeoutError(1, 5.0, heartbeat_age=30.0, heartbeat_s=1.0)
        assert "dead since then?" in str(error)

    def test_pickles_with_heartbeat_context(self):
        error = pickle.loads(
            pickle.dumps(
                ShardTimeoutError(3, 2.5, heartbeat_age=9.0, heartbeat_s=0.5)
            )
        )
        assert error.payload_index == 3 and error.timeout == 2.5
        assert error.heartbeat_age == 9.0 and error.heartbeat_s == 0.5
        # The 2-arg shape older callers pickle keeps working.
        legacy = pickle.loads(pickle.dumps(ShardTimeoutError(3, 2.5)))
        assert legacy.heartbeat_age is None


class TestLiveBitIdentity:
    def test_live_matches_buffered_and_untraced(self):
        untraced = _flow(
            ExecutionConfig(workers=2, shard_size=SHARD), obs=ObservabilityConfig()
        ).traces()
        serial, _ = _run_live(ExecutionConfig(shard_size=SHARD))
        live, events = _run_live(ExecutionConfig(workers=2, shard_size=SHARD))
        assert any(e["kind"] == "worker.heartbeat" for e in events)
        assert np.array_equal(untraced.traces, live.traces)
        assert np.array_equal(untraced.plaintexts, live.plaintexts)
        assert np.array_equal(serial.traces, live.traces)

    def test_live_spawn_matches_fork(self):
        fork, _ = _run_live(
            ExecutionConfig(workers=2, shard_size=SHARD, start_method="fork")
        )
        spawn, events = _run_live(
            ExecutionConfig(workers=2, shard_size=SHARD, start_method="spawn")
        )
        assert any(e["kind"] == "worker.heartbeat" for e in events)
        assert np.array_equal(fork.traces, spawn.traces)
        assert np.array_equal(fork.plaintexts, spawn.plaintexts)

    def test_live_assessment_verdict_matches_untraced(self):
        def verdict(obs):
            config = FlowConfig(
                name="live_verdict",
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
            live = verdict(LIVE_OBS)
        untraced = verdict(ObservabilityConfig())
        assert live == untraced
        assert any(e["name"] == "shard.assessment" for e in buffer)

    def test_full_live_queue_never_corrupts_results(self, monkeypatch):
        # A 1-slot queue overflows immediately; every drop must leave
        # the buffered path -- and therefore the results -- untouched.
        shutdown_pools()  # force fresh pools built with the tiny queue
        monkeypatch.setattr(obs_live, "LIVE_QUEUE_SIZE", 1)
        try:
            untraced = _flow(
                ExecutionConfig(workers=2, shard_size=SHARD),
                obs=ObservabilityConfig(),
            ).traces()
            live, _ = _run_live(ExecutionConfig(workers=2, shard_size=SHARD))
            assert np.array_equal(untraced.traces, live.traces)
            assert np.array_equal(untraced.plaintexts, live.plaintexts)
        finally:
            shutdown_pools()  # do not leak 1-slot pools to other tests


class TestLiveEndToEnd:
    def test_heartbeats_and_progress_reach_the_parent_observer(self):
        _, events = _run_live(ExecutionConfig(workers=2, shard_size=SHARD))
        kinds = {event["kind"] for event in events}
        assert "worker.heartbeat" in kinds
        assert "progress" in kinds

        heartbeat = next(
            e for e in events if e["kind"] == "worker.heartbeat"
        )
        assert heartbeat["attrs"]["rss_mb"] >= 0
        assert heartbeat["pid"] != os.getpid()

        progress = [e for e in events if e["kind"] == "progress"]
        assert all(e["name"] == "engine.progress" for e in progress)
        final = progress[-1]["attrs"]
        assert final["unit"] == "traces" and final["done"] == TRACES

    def test_buffered_replay_stays_the_single_delivery(self):
        # The anti-double-count contract: live copies feed the display
        # only, so each shard's span.end appears exactly once.
        _, events = _run_live(ExecutionConfig(workers=2, shard_size=SHARD))
        shard_ends = [
            e
            for e in events
            if e["kind"] == "span.end" and e["name"] == "shard.traces"
        ]
        assert len(shard_ends) == TRACES // SHARD

    def test_resource_gauges_are_sampled(self):
        _, events = _run_live(ExecutionConfig(workers=2, shard_size=SHARD))
        gauges = {e["name"] for e in events if e["kind"] == "gauge"}
        assert {
            "proc.rss_mb",
            "executor.pools",
            "executor.pool_workers",
        } <= gauges

    def test_serial_runs_skip_the_live_machinery(self):
        traces, events = _run_live(ExecutionConfig(workers=1, shard_size=SHARD))
        kinds = {event["kind"] for event in events}
        assert "worker.heartbeat" not in kinds
        assert traces.traces.shape[0] == TRACES


class TestSweepLive:
    def test_sweep_streams_heartbeats_and_counts_cells(self, tmp_path):
        base = FlowConfig(
            name="swp",
            campaign=CampaignConfig(trace_count=32),
            execution=ExecutionConfig(store=str(tmp_path / "store")),
            obs=ObservabilityConfig(
                sinks=("null",), live=True, heartbeat_s=0.05, live_interval_s=0.0
            ),
        )
        buffer = []
        with use_observer(Observer((BufferSink(buffer),))):
            report = run_sweep(base, {"gate_style": ["sabl", "cvsl"]}, workers=2)
        assert len(report.cells) == 2
        kinds = {event["kind"] for event in buffer}
        assert "worker.heartbeat" in kinds
        cells_done = sum(
            event["value"]
            for event in buffer
            if event["kind"] == "counter" and event["name"] == "sweep.cells_done"
        )
        assert cells_done == 2.0
        progress = [e for e in buffer if e["kind"] == "progress"]
        assert progress and progress[-1]["attrs"]["unit"] == "cells"
        assert progress[-1]["attrs"]["done"] == 2


class TestObsConfig:
    def test_live_knobs_validate(self):
        with pytest.raises(ConfigError, match="heartbeat_s"):
            ObservabilityConfig(heartbeat_s=0.0)
        with pytest.raises(ConfigError, match="live_interval_s"):
            ObservabilityConfig(live_interval_s=-1.0)
        config = ObservabilityConfig(live=True, heartbeat_s=0.5)
        assert ObservabilityConfig.from_dict(config.to_dict()) == config

    def test_live_alone_activates_obs(self):
        assert not ObservabilityConfig().active
        assert ObservabilityConfig(live=True).active

    def test_live_knobs_stay_out_of_store_keys(self, tmp_path):
        execution = ExecutionConfig(
            shard_size=SHARD, store=str(tmp_path / "store")
        )
        _flow(execution, obs=ObservabilityConfig()).traces()
        buffer = []
        with use_observer(Observer((BufferSink(buffer),))):
            _flow(execution, obs=LIVE_OBS).traces()
        hits = [e for e in buffer if e["name"] == "store.hit"]
        misses = [e for e in buffer if e["name"] == "store.miss"]
        assert hits and not misses


class TestCli:
    def _traced_run(self, tmp_path):
        trace = tmp_path / "events.jsonl"
        code = main(
            [
                "run", "--set", "trace_count=64", "--shard-size", "16",
                "--workers", "2", "--trace", str(trace),
                "--live", "--heartbeat", "0.05",
                "--store", str(tmp_path / "store"),
            ]
        )
        assert code == 0
        return trace

    def test_live_run_lands_heartbeats_in_the_trace(self, tmp_path, capsys):
        trace = self._traced_run(tmp_path)
        capsys.readouterr()
        summary = summarize_trace_file(str(trace))
        assert summary.errors == 0
        assert summary.heartbeats > 0
        assert summary.to_dict()["heartbeats"] == summary.heartbeats

    def test_top_once_renders_the_status_block(self, tmp_path, capsys):
        trace = self._traced_run(tmp_path)
        capsys.readouterr()
        assert main(["top", str(trace), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro: traces" in out
        assert "heartbeats" in out
        assert "Workers" in out and "rss [MB]" in out
        assert "Busiest spans" in out

    def test_trace_summary_follow_with_duration(self, tmp_path, capsys):
        trace = self._traced_run(tmp_path)
        capsys.readouterr()
        code = main(
            ["trace", "summary", str(trace), "--follow", "--duration", "0.3"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Trace summary:" in captured.out
        assert "repro: traces" in captured.err  # the follow status line

    def test_progress_implies_live(self):
        from repro.engine.cli import _obs_overrides, build_parser

        args = build_parser().parse_args(["run", "--progress"])
        config = _obs_overrides(args, FlowConfig(name="x"))
        assert config.obs.live and config.obs.progress

        args = build_parser().parse_args(["run", "--heartbeat", "0.2"])
        config = _obs_overrides(args, FlowConfig(name="x"))
        assert config.obs.live and config.obs.heartbeat_s == 0.2
        assert not config.obs.progress


class TestPerfBenchmark:
    def test_obs_benchmark_is_registered(self):
        from repro.perf import benchmark_names, get_benchmark

        assert "obs" in benchmark_names()
        specs = {spec.name for spec in get_benchmark("obs").metrics}
        assert {"untraced_tps", "traced_tps", "overhead_ratio"} <= specs
