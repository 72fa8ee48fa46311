"""Progress, ``repro top`` and the one event path.

Pool workers buffer their events and the parent replays each payload's
events as soon as its result arrives; the same events drive the
progress aggregator, the ``engine.progress`` events and the per-worker
table ``repro top`` prints.  These tests pin that contract: a traced
pooled run stays bit-identical to an untraced one (fork and spawn,
traces and verdicts), each payload is replayed before it is consumed
and exactly once, in payload order, a failing sink or progress display
drops telemetry but never a result, and every status view is built
from event timestamps, never from a wall-clock period.  They also pin
the schema v3 kinds, tail-safe trace reading and the ``repro top`` /
``trace summary --follow`` CLI.

Several classes keep the names of the live side channel these rules
once belonged to; each now pins the same rule on the replay path.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import sys
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
from repro.engine import executors as engine_executors
from repro.engine import runner as engine_runner
from repro.engine.cli import main
from repro.engine.executors import default_start_method, map_payloads
from repro.flow import (
    AssessmentConfig,
    CampaignConfig,
    DesignFlow,
    ExecutionConfig,
    FlowConfig,
    ObservabilityConfig,
)
from repro.obs import (
    SCHEMA_VERSION,
    BufferSink,
    ObsError,
    Observer,
    ProgressAggregator,
    ProgressDispatcher,
    iter_trace_events,
    make_event,
    rss_bytes,
    summarize_events,
    summarize_trace_file,
    use_observer,
    validate_event,
)

TRACES = 1024
SHARD = 256

#: Workers buffer their events; no console or file output.
TRACED_OBS = ObservabilityConfig(trace=os.devnull)


def _flow(execution, obs=TRACED_OBS, **campaign):
    campaign.setdefault("trace_count", TRACES)
    campaign.setdefault("noise_std", 0.01)
    config = FlowConfig(
        name="obs_sbox",
        campaign=CampaignConfig(**campaign),
        execution=execution,
        obs=obs,
    )
    return DesignFlow.sbox(0xB, config=config)


def _run_traced(execution, obs=TRACED_OBS, sinks=(), **campaign):
    buffer = []
    with use_observer(Observer((*sinks, BufferSink(buffer)))):
        traces = _flow(execution, obs=obs, **campaign).traces()
    return traces, buffer


def _untraced(execution):
    return _flow(execution, obs=ObservabilityConfig()).traces()


def _event(kind, name, seq=0, ts=None, pid=None, **kwargs):
    event = make_event(kind, name, seq=seq, **kwargs)
    if ts is not None:
        event["ts"] = ts
    if pid is not None:
        event["pid"] = pid
    return event


def _shard_ends(events, name="shard.traces"):
    return [
        event["attrs"]["index"]
        for event in events
        if event["kind"] == "span.end" and event["name"] == name
    ]


def _shard_end(count, index=0, ts=0.0, pid=1, kind="span.end"):
    return _event(
        kind,
        "shard.traces",
        ts=ts,
        pid=pid,
        duration_s=0.1,
        attrs={"index": index, "count": count},
    )


# Module-level so they pickle into pool workers.


def _die(_payload):
    os._exit(13)


def _fail(payload, exc):
    return RuntimeError(f"payload {payload!r} failed: {exc}")


class _FailingSink:
    """Raises ``error`` on the first replayed worker event."""

    def __init__(self, error):
        self.error = error

    def emit(self, event):
        if event["name"].startswith("shard."):
            raise self.error

    def close(self):
        pass


class _BrokenStream:
    def isatty(self):
        return False

    def write(self, text):
        raise OSError("stderr is gone")

    def flush(self):
        raise OSError("stderr is gone")


class _RecordingObserver:
    active = True

    def __init__(self):
        self.events = []

    def event(self, kind, name, **fields):
        self.events.append(make_event(kind, name, seq=len(self.events), **fields))


class TestSafePutAndLiveSink:
    """Telemetry drop rules: a failing sink or display loses events,
    never a result, and completions are never sampled away."""

    def _assert_sink_drops_once(self, error, capsys):
        pooled = ExecutionConfig(workers=2, shard_size=SHARD)
        untraced = _untraced(pooled)
        capsys.readouterr()
        traces, events = _run_traced(pooled, sinks=(_FailingSink(error),))
        err = capsys.readouterr().err
        assert err.count("sink disabled after error") == 1
        assert str(error) in err
        # The sibling sink still got every shard, once, in order.
        assert _shard_ends(events) == list(range(TRACES // SHARD))
        assert np.array_equal(untraced.traces, traces.traces)

    def test_full_queue_drops_with_a_single_warning(self, capsys):
        self._assert_sink_drops_once(OSError(28, "No space left on device"), capsys)

    def test_closed_queue_drops_with_a_single_warning(self, capsys):
        self._assert_sink_drops_once(
            ValueError("I/O operation on closed file"), capsys
        )

    def test_sink_never_raises_into_the_observer(self):
        dispatcher = ProgressDispatcher(_RecordingObserver(), 256, progress=True)
        dispatcher.stream = _BrokenStream()
        dispatcher([_shard_end(256)])  # must not raise
        dispatcher.finish()
        assert dispatcher.progress is False  # the display is off ...
        assert dispatcher.observer.events[-1]["value"] == 256.0  # ... not progress

    def test_span_starts_never_stream(self):
        agg = ProgressAggregator(256, unit="traces")
        agg.note_event(
            _event(
                "span.start",
                "shard.traces",
                ts=1.0,
                pid=3,
                attrs={"index": 0, "count": 256},
            ),
            now=1.0,
        )
        assert agg.done == 0 and agg.shards_done == 0 and agg.workers == {}

    def test_critical_events_bypass_the_sampler(self):
        observer = _RecordingObserver()
        dispatcher = ProgressDispatcher(observer, 768)
        dispatcher.INTERVAL_S = 3600.0
        for index in range(3):
            dispatcher([_shard_end(256, index=index)])
        # Progress events are sampled, completions are not: every shard
        # end is counted and the final event reports all of them.
        assert len(observer.events) == 1
        assert dispatcher.aggregator.done == 768
        dispatcher.finish()
        assert observer.events[-1]["attrs"]["done"] == 768
        assert observer.events[-1]["attrs"]["shards_done"] == 3

    def test_noncritical_events_are_time_sampled(self):
        samples = []
        observer = _RecordingObserver()
        dispatcher = ProgressDispatcher(
            observer, 768, resource_sampler=lambda: samples.append(1)
        )
        dispatcher.INTERVAL_S = 3600.0
        dispatcher([_shard_end(256, index=0)])
        dispatcher([_shard_end(256, index=1)])  # throttled
        assert len(samples) == 1 and len(observer.events) == 1
        assert observer.events[0]["value"] == 256.0


class TestSchemaV3:
    def _old_heartbeat(self):
        # Nothing emits worker.heartbeat any more, but version-3 trace
        # files written while it existed must still read.
        return _event(
            "worker.heartbeat",
            "worker.heartbeat",
            value=256.0,
            attrs={"task": "traces", "shard": 0, "traces_done": 256, "rss_mb": 80.1},
        )

    def test_live_kinds_validate(self):
        assert SCHEMA_VERSION == 3
        progress = _event(
            "progress", "engine.progress", value=10.0, attrs={"unit": "traces"}
        )
        assert validate_event(progress)["v"] == 3

    def test_heartbeat_reports_task_and_rss(self):
        beat = validate_event(self._old_heartbeat())
        assert beat["attrs"]["task"] == "traces"
        assert beat["attrs"]["shard"] == 0
        assert beat["attrs"]["rss_mb"] >= 0
        # RSS now comes from the parent's proc.rss_mb gauge.
        assert rss_bytes() > 0

    def test_old_heartbeat_traces_validate_and_summarise(self):
        beat = self._old_heartbeat()
        assert validate_event(beat)["kind"] == "worker.heartbeat"
        end = _event("span.end", "shard.traces", duration_s=0.1, attrs={"count": 8})
        summary = summarize_events([beat, end])
        assert summary.events == 2 and summary.errors == 0
        assert summary.spans["shard.traces"].count == 1

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
    def test_ewma_rate_and_eta_are_deterministic(self):
        agg = ProgressAggregator(100, unit="traces")
        agg.note_event(_shard_end(10), now=0.0)
        assert agg.done == 10 and agg.rate is None and agg.eta_s() is None
        agg.note_event(_shard_end(10), now=1.0)
        assert agg.rate == pytest.approx(10.0)
        assert agg.eta_s() == pytest.approx(8.0)
        line = agg.render_line()
        assert "traces 20/100 (20.0%)" in line
        assert "10.0/s" in line and "ETA 8.0s" in line

    def test_heartbeats_feed_liveness_but_never_completion(self):
        # A version-3 trace file may hold worker.heartbeat events; they
        # complete nothing.  Liveness comes from the worker's results.
        agg = ProgressAggregator(100, unit="traces")
        beat = _event(
            "worker.heartbeat",
            "worker.heartbeat",
            ts=5.0,
            pid=9,
            value=0.0,
            attrs={"task": "traces", "shard": 0, "rss_mb": 80.1},
        )
        agg.note_event(beat, now=5.0)
        assert agg.done == 0 and agg.workers == {}
        agg.note_event(_shard_end(16, ts=6.0, pid=9), now=6.0)
        assert agg.done == 16
        assert agg.last_result_age(6.5) == pytest.approx(0.5)
        assert "1 worker(s)" in agg.render_line(6.5)

    def test_span_ends_build_the_worker_table(self):
        agg = ProgressAggregator(768, unit="traces")
        agg.note_event(_shard_end(256, index=0, ts=10.0, pid=41), now=99.0)
        agg.note_event(_shard_end(256, index=1, ts=11.0, pid=42), now=99.0)
        agg.note_event(_shard_end(256, index=2, ts=12.5, pid=41), now=99.0)
        # Events without a worker result never touch the table.
        agg.note_event(
            _event("counter", "kernel.cycles", ts=13.0, pid=43, value=1.0), now=99.0
        )
        assert sorted(agg.workers) == [41, 42]
        assert agg.workers[41] == {
            "ts": 12.5,
            "task": "shard.traces",
            "shard": 2,
            "cell": None,
            "traces_done": 512,
        }
        assert agg.workers[42]["traces_done"] == 256
        assert sum(row["traces_done"] for row in agg.workers.values()) == agg.done
        assert agg.last_result_age(14.0) == pytest.approx(1.5)
        line = agg.render_line(14.0)
        assert "2 worker(s)" in line and "last result 1.5s ago" in line

    def test_failed_shard_is_a_result_but_finishes_no_traces(self):
        agg = ProgressAggregator(None, unit="traces")
        agg.note_event(
            _shard_end(256, index=4, ts=3.0, pid=7, kind="span.error"), now=3.0
        )
        assert agg.workers[7]["shard"] == 4 and agg.workers[7]["traces_done"] == 0

    def test_sweep_cells_fill_the_cell_column(self):
        agg = ProgressAggregator(2, unit="cells")
        agg.note_event(_shard_end(32, index=0, ts=1.0, pid=5), now=1.0)
        agg.note_event(
            _event(
                "span.end",
                "sweep.cell",
                ts=1.5,
                pid=5,
                duration_s=0.6,
                attrs={"cell": "swp/gate_style=sabl"},
            ),
            now=1.5,
        )
        row = agg.workers[5]
        assert row["task"] == "sweep.cell" and row["cell"] == "swp/gate_style=sabl"
        assert row["shard"] is None and row["traces_done"] == 32
        assert agg.done == 0  # cells advance on the cells-done counter

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
    def test_events_arrive_mid_map(self, monkeypatch):
        # Replay on arrival: each payload's events reach the sink before
        # its result is consumed, and before any later payload's.
        buffer = []
        seen = []
        real = engine_runner.map_payloads

        def checked(payloads, task, local, consume, *args, **kwargs):
            def check(result):
                index = len(seen)
                shard_events = [
                    event["attrs"]["index"]
                    for event in buffer
                    if event["name"].startswith("shard.")
                    and event["kind"] in ("span.start", "span.end")
                ]
                # Shard i's span end is already in the sink, and nothing
                # of shard i+1 is.
                assert index in _shard_ends(buffer)
                assert max(shard_events) == index
                seen.append(index)
                consume(result)

            return real(payloads, task, local, check, *args, **kwargs)

        monkeypatch.setattr(engine_runner, "map_payloads", checked)
        with use_observer(Observer((BufferSink(buffer),))):
            _flow(ExecutionConfig(workers=2, shard_size=SHARD)).traces()
        shards = TRACES // SHARD
        assert shards >= 4 and seen == list(range(shards))

    def test_handler_error_disables_streaming_not_the_map(self, monkeypatch):
        # A failing gauge sampler and a dead stderr switch the progress
        # display off; the map, its results and its events carry on.
        pooled = ExecutionConfig(workers=2, shard_size=SHARD)
        untraced = _untraced(pooled)
        built = []
        real = engine_executors.ProgressDispatcher

        def broken_sampler():
            raise RuntimeError("gauge source gone")

        def spy(*args, **kwargs):
            kwargs["resource_sampler"] = broken_sampler
            built.append(real(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(engine_executors, "ProgressDispatcher", spy)
        monkeypatch.setattr(sys, "stderr", _BrokenStream())
        traces, events = _run_traced(
            pooled, obs=ObservabilityConfig(progress=True)
        )
        assert len(built) == 1 and built[0].progress is False
        assert np.array_equal(untraced.traces, traces.traces)
        assert _shard_ends(events) == list(range(TRACES // SHARD))
        progress = [e for e in events if e["kind"] == "progress"]
        assert progress[-1]["attrs"]["done"] == TRACES

    def test_eviction_closes_the_live_channel(self):
        shutdown_pools()
        warm_pool(2)
        assert warm_pool_stats() == (1, 2)
        with pytest.raises(RuntimeError, match="payload 0 failed") as excinfo:
            map_payloads(
                [0, 1],
                _die,
                _die,
                lambda result: None,
                ExecutionConfig(workers=2, shard_timeout=3.0),
                fail=_fail,
                observer=Observer(()),
                obs_config=ObservabilityConfig(),
                total=2,
                unit="payloads",
            )
        assert isinstance(excinfo.value.__cause__, ShardTimeoutError)
        # The pool died with its worker: eviction closed it and dropped
        # it from the warm cache, so nothing of it outlives the map.
        assert warm_pool_stats() == (0, 0)
        assert engine_executors._WARM_POOLS.get((default_start_method(), 2)) is None

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
        assert str(error) == (
            "payload 1 did not complete within 5s; "
            "the worker pool was terminated (worker died or wedged?)"
        )
        assert "heartbeat" not in str(error)

    def test_pickles_with_heartbeat_context(self):
        error = pickle.loads(pickle.dumps(ShardTimeoutError(3, 2.5)))
        assert error.payload_index == 3 and error.timeout == 2.5
        assert str(error) == str(ShardTimeoutError(3, 2.5))
        # The heartbeat context is gone from the constructor.
        with pytest.raises(TypeError):
            ShardTimeoutError(3, 2.5, heartbeat_age=9.0, heartbeat_s=0.5)


class TestLiveBitIdentity:
    def test_live_matches_buffered_and_untraced(self):
        pooled = ExecutionConfig(workers=2, shard_size=SHARD, start_method="fork")
        untraced = _untraced(pooled)
        serial, _ = _run_traced(ExecutionConfig(shard_size=SHARD))
        traced, events = _run_traced(pooled)
        assert _shard_ends(events) == list(range(TRACES // SHARD))
        assert np.array_equal(untraced.traces, traced.traces)
        assert np.array_equal(untraced.plaintexts, traced.plaintexts)
        assert np.array_equal(serial.traces, traced.traces)

    def test_live_spawn_matches_fork(self):
        spawn_pool = ExecutionConfig(
            workers=2, shard_size=SHARD, start_method="spawn"
        )
        untraced = _untraced(spawn_pool)
        fork, _ = _run_traced(
            ExecutionConfig(workers=2, shard_size=SHARD, start_method="fork")
        )
        spawn, events = _run_traced(spawn_pool)
        assert _shard_ends(events) == list(range(TRACES // SHARD))
        assert np.array_equal(fork.traces, spawn.traces)
        assert np.array_equal(fork.plaintexts, spawn.plaintexts)
        assert np.array_equal(untraced.traces, spawn.traces)

    def test_live_assessment_verdict_matches_untraced(self):
        def verdict(obs, start_method):
            config = FlowConfig(
                name="obs_verdict",
                campaign=CampaignConfig(key=0xB, trace_count=64),
                assessment=AssessmentConfig(
                    enabled=True, traces_per_class=200
                ),
                execution=ExecutionConfig(
                    workers=2, shard_size=128, start_method=start_method
                ),
                obs=obs,
            )
            flow = DesignFlow.sbox(config=config)
            details = flow.run(["assessment"])["assessment"].details
            return {
                key: value
                for key, value in details.items()
                if key == "leaks" or key.endswith("_max_abs_t")
            }

        for start_method in ("fork", "spawn"):
            buffer = []
            with use_observer(Observer((BufferSink(buffer),))):
                traced = verdict(TRACED_OBS, start_method)
            untraced = verdict(ObservabilityConfig(), start_method)
            assert traced == untraced, start_method
            assert any(e["name"] == "shard.assessment" for e in buffer)

    def test_full_live_queue_never_corrupts_results(self, capsys):
        # The only sink dies on the first replayed worker event, so the
        # observer deactivates mid-map; the results must not notice.
        pooled = ExecutionConfig(workers=2, shard_size=SHARD)
        untraced = _untraced(pooled)
        observer = Observer((_FailingSink(OSError(28, "No space left")),))
        with use_observer(observer):
            traced = _flow(pooled).traces()
        assert not observer.active
        assert "sink disabled after error" in capsys.readouterr().err
        assert np.array_equal(untraced.traces, traced.traces)
        assert np.array_equal(untraced.plaintexts, traced.plaintexts)


class TestLiveEndToEnd:
    def test_heartbeats_and_progress_reach_the_parent_observer(self):
        _, events = _run_traced(ExecutionConfig(workers=2, shard_size=SHARD))
        # Progress and the worker table reach the parent from the
        # replayed results; nothing emits heartbeats any more.
        assert "worker.heartbeat" not in {e["kind"] for e in events}
        progress = [e for e in events if e["kind"] == "progress"]
        assert progress
        assert all(e["name"] == "engine.progress" for e in progress)
        final = progress[-1]["attrs"]
        assert final["unit"] == "traces" and final["done"] == TRACES
        assert final["shards_done"] == TRACES // SHARD
        worker_pids = {
            e["pid"] for e in events if e["name"] == "shard.traces"
        }
        assert os.getpid() not in worker_pids
        assert final["workers"] == len(worker_pids)

    def test_buffered_replay_stays_the_single_delivery(self):
        _, events = _run_traced(ExecutionConfig(workers=2, shard_size=SHARD))
        # Each shard's span end appears exactly once, in shard order.
        assert _shard_ends(events) == list(range(TRACES // SHARD))

    def test_resource_gauges_are_sampled(self):
        _, events = _run_traced(ExecutionConfig(workers=2, shard_size=SHARD))
        gauges = {e["name"]: e["value"] for e in events if e["kind"] == "gauge"}
        assert {
            "proc.rss_mb",
            "executor.pools",
            "executor.pool_workers",
        } <= set(gauges)
        assert gauges["proc.rss_mb"] > 0

    def test_serial_runs_skip_the_live_machinery(self, monkeypatch):
        built = []
        real = engine_executors.ProgressDispatcher

        def spy(*args, **kwargs):
            built.append(kwargs.get("unit"))
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_executors, "ProgressDispatcher", spy)
        traces, events = _run_traced(ExecutionConfig(workers=1, shard_size=SHARD))
        assert built == []
        assert "progress" not in {event["kind"] for event in events}
        assert traces.traces.shape[0] == TRACES
        _run_traced(ExecutionConfig(workers=2, shard_size=SHARD))
        assert built == ["traces"]


class TestSweepLive:
    def test_sweep_streams_heartbeats_and_counts_cells(self, tmp_path):
        base = FlowConfig(
            name="swp",
            campaign=CampaignConfig(trace_count=32),
            execution=ExecutionConfig(store=str(tmp_path / "store")),
            obs=TRACED_OBS,
        )
        buffer = []
        with use_observer(Observer((BufferSink(buffer),))):
            report = run_sweep(base, {"gate_style": ["sabl", "cvsl"]}, workers=2)
        assert len(report.cells) == 2
        cells_done = sum(
            event["value"]
            for event in buffer
            if event["kind"] == "counter" and event["name"] == "sweep.cells_done"
        )
        assert cells_done == 2.0
        # Each cell's span end streams back once, in cell order.
        cell_ends = [
            event["attrs"]["cell"]
            for event in buffer
            if event["kind"] == "span.end" and event["name"] == "sweep.cell"
        ]
        assert cell_ends == [cell["cell"] for cell in report.cells]
        progress = [e for e in buffer if e["kind"] == "progress"]
        assert progress and progress[-1]["attrs"]["unit"] == "cells"
        assert progress[-1]["attrs"]["done"] == 2


class TestObsConfig:
    def test_live_knobs_validate(self):
        assert [f.name for f in dataclasses.fields(ObservabilityConfig)] == [
            "trace",
            "progress",
            "verbosity",
            "profile",
            "profile_top",
        ]
        for knob, value in (
            ("live", True),
            ("heartbeat_s", 0.5),
            ("live_interval_s", 0.0),
        ):
            with pytest.raises(TypeError, match=knob):
                ObservabilityConfig(**{knob: value})
        config = ObservabilityConfig(trace=os.devnull)
        assert ObservabilityConfig.from_dict(config.to_dict()) == config

    def test_live_knobs_stay_out_of_store_keys(self, tmp_path):
        execution = ExecutionConfig(
            shard_size=SHARD, store=str(tmp_path / "store")
        )
        _flow(execution, obs=ObservabilityConfig()).traces()
        buffer = []
        with use_observer(Observer((BufferSink(buffer),))):
            _flow(
                execution, obs=ObservabilityConfig(progress=True)
            ).traces()
        hits = [e for e in buffer if e["name"] == "store.hit"]
        misses = [e for e in buffer if e["name"] == "store.miss"]
        assert hits and not misses


class TestCli:
    def _traced_run(self, tmp_path):
        trace = tmp_path / "events.jsonl"
        code = main(
            [
                "run", "--set", f"trace_count={TRACES}",
                "--shard-size", str(SHARD),
                "--workers", "2", "--trace", str(trace),
                "--store", str(tmp_path / "store"),
            ]
        )
        assert code == 0
        return trace

    def test_traced_run_records_progress_once_per_shard(self, tmp_path, capsys):
        trace = self._traced_run(tmp_path)
        capsys.readouterr()
        summary = summarize_trace_file(str(trace))
        assert summary.errors == 0
        assert summary.spans["shard.traces"].count == TRACES // SHARD
        events = list(iter_trace_events(str(trace)))
        progress = [e for e in events if e["name"] == "engine.progress"]
        assert progress and progress[-1]["attrs"]["done"] == TRACES

    def test_top_once_renders_the_status_block(self, tmp_path, capsys):
        trace = self._traced_run(tmp_path)
        capsys.readouterr()
        assert main(["top", str(trace), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro: traces" in out
        assert "Busiest spans" in out
        lines = out.splitlines()
        start = lines.index("Workers")
        header = lines[start + 2].split()
        assert header == ["pid", "task", "shard", "cell", "traces", "last", "[s]"]
        rows = []
        for line in lines[start + 4:]:
            if not line.strip():
                break
            rows.append(line.split())
        shard_pids = {
            event["pid"]
            for event in iter_trace_events(str(trace))
            if event["kind"] == "span.end" and event["name"] == "shard.traces"
        }
        assert sorted(int(row[0]) for row in rows) == sorted(shard_pids)
        assert sum(int(row[4]) for row in rows) == TRACES

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
        # --progress alone turns the observer on: the display reads the
        # replayed events, the only event path there is.
        from repro.engine.cli import _obs_overrides, build_parser

        args = build_parser().parse_args(["run", "--progress"])
        config = _obs_overrides(args, FlowConfig(name="x"))
        assert config.obs.progress and config.obs.active
        args = build_parser().parse_args(["run"])
        assert not _obs_overrides(args, FlowConfig(name="x")).obs.progress

    @pytest.mark.parametrize("flag", [["--live"], ["--heartbeat", "0.5"]])
    def test_removed_live_flags_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
