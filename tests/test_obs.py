"""Unit tests of the observability layer: events, spans, metrics, sinks."""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.obs import (
    NULL_OBSERVER,
    BufferSink,
    ConsoleSink,
    Histogram,
    JsonlSink,
    ObsError,
    Observer,
    SCHEMA_VERSION,
    TraceSummary,
    capture_events,
    get_observer,
    make_event,
    observer_from_config,
    set_observer,
    summarize_events,
    summarize_trace_file,
    use_observer,
    validate_event,
)
from repro.flow import ConfigError, FlowConfig, ObservabilityConfig
from repro.reporting import format_trace_summary


def _buffered_observer():
    buffer = []
    return Observer((BufferSink(buffer),)), buffer


# --------------------------------------------------------------------- schema


class TestEventSchema:
    def test_round_trips_through_json(self):
        event = make_event(
            "span.end", "stage.traces", seq=3, duration_s=0.5, attrs={"flow": "t"}
        )
        line = json.dumps(event, sort_keys=True)
        assert validate_event(json.loads(line)) == event
        assert event["v"] == SCHEMA_VERSION
        assert event["seq"] == 3

    def test_metric_event_carries_a_float_value(self):
        event = make_event("counter", "store.hit", seq=0, value=2)
        assert event["value"] == 2.0
        assert isinstance(event["value"], float)
        validate_event(event)

    def test_non_scalar_attrs_are_stringified(self):
        event = make_event("span.start", "s", seq=0, attrs={"shape": (4, 2)})
        assert event["attrs"]["shape"] == "(4, 2)"
        validate_event(event)

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            ({"v": 99}, "schema version"),
            ({"kind": "bogus"}, "unknown event kind"),
            ({"name": ""}, "non-empty string"),
            ({"ts": "noon"}, "'ts'"),
            ({"duration_s": -1.0}, "duration_s"),
        ],
    )
    def test_validation_names_the_violated_constraint(self, mutation, fragment):
        event = make_event("span.end", "stage.traces", seq=0, duration_s=0.1)
        event.update(mutation)
        with pytest.raises(ObsError, match=fragment):
            validate_event(event)

    def test_metric_without_value_is_rejected(self):
        event = make_event("counter", "store.hit", seq=0, value=1)
        del event["value"]
        with pytest.raises(ObsError, match="value"):
            validate_event(event)

    def test_non_mapping_is_rejected(self):
        with pytest.raises(ObsError, match="mapping"):
            validate_event(["not", "an", "event"])


# ---------------------------------------------------------------------- spans


class TestSpans:
    def test_nested_spans_emit_in_order(self):
        observer, buffer = _buffered_observer()
        with observer.span("outer", flow="t"):
            with observer.span("inner"):
                pass
        shape = [(e["kind"], e["name"]) for e in buffer]
        assert shape == [
            ("span.start", "outer"),
            ("span.start", "inner"),
            ("span.end", "inner"),
            ("span.end", "outer"),
        ]
        assert buffer[-1]["duration_s"] >= buffer[2]["duration_s"] >= 0
        assert buffer[0]["attrs"] == {"flow": "t"}
        assert [e["seq"] for e in buffer] == [0, 1, 2, 3]

    def test_error_span_records_and_propagates(self):
        observer, buffer = _buffered_observer()
        with pytest.raises(ValueError, match="boom"):
            with observer.span("stage.traces"):
                raise ValueError("boom")
        assert buffer[-1]["kind"] == "span.error"
        assert buffer[-1]["error"] == "ValueError: boom"
        assert buffer[-1]["duration_s"] >= 0
        validate_event(buffer[-1])

    def test_inactive_observer_reuses_one_null_span(self):
        assert not NULL_OBSERVER.active
        assert NULL_OBSERVER.span("a") is NULL_OBSERVER.span("b")
        NULL_OBSERVER.counter("store.hit")
        NULL_OBSERVER.histogram("h", 1.0)
        assert not NULL_OBSERVER.active

    def test_observer_without_sinks_is_inactive(self):
        assert not Observer(()).active


# -------------------------------------------------------------------- metrics


class TestMetrics:
    def test_histogram_running_stats(self):
        hist = Histogram()
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.min == 1.0 and hist.max == 3.0
        assert hist.mean == pytest.approx(2.0)

    def test_observer_emits_metric_events(self):
        observer, buffer = _buffered_observer()
        observer.counter("store.hit")
        observer.counter("store.hit", 2)
        observer.gauge("g", 7.0)
        observer.histogram("h", 0.5)
        assert [e["kind"] for e in buffer] == ["counter", "counter", "gauge", "histogram"]
        summary = summarize_events(buffer)
        assert summary.counters == {"store.hit": 3.0}
        assert summary.histograms["h"].count == 1


# ---------------------------------------------------------------------- sinks


class TestSinks:
    def test_jsonl_factory_requires_a_trace_path(self):
        with pytest.raises(ObsError, match="trace"):
            JsonlSink("")
        # A config without a trace path builds no jsonl sink.
        observer = observer_from_config(ObservabilityConfig(verbosity=1))
        assert [type(sink) for sink in observer._sinks] == [ConsoleSink]

    def test_jsonl_sink_is_lazy_and_line_oriented(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path))
        assert not path.exists()
        sink.emit(make_event("counter", "store.hit", seq=0, value=1))
        sink.emit(make_event("span.end", "s", seq=1, duration_s=0.1))
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            validate_event(json.loads(line))

    def test_console_verbosity_demotes_detail(self):
        stream = io.StringIO()
        sink = ConsoleSink(verbosity=1, stream=stream)
        sink.emit(make_event("span.end", "stage.traces", seq=0, duration_s=0.5))
        sink.emit(make_event("span.end", "shard.traces", seq=1, duration_s=0.2))
        sink.emit(make_event("span.error", "shard.traces", seq=2,
                             duration_s=0.1, error="ValueError: x"))
        text = stream.getvalue()
        assert "stage.traces done in 0.500s" in text
        assert "shard.traces done" not in text
        assert "FAILED" in text

        stream = io.StringIO()
        ConsoleSink(verbosity=2, stream=stream).emit(
            make_event("span.end", "shard.traces", seq=0, duration_s=0.2)
        )
        assert "shard.traces done" in stream.getvalue()

    def test_console_factory_opts_out_when_quiet(self, tmp_path):
        config = ObservabilityConfig(trace=str(tmp_path / "e.jsonl"), verbosity=0)
        observer = observer_from_config(config)
        assert [type(sink) for sink in observer._sinks] == [JsonlSink]


# ------------------------------------------------------------ current observer


class TestCurrentObserver:
    def test_use_observer_restores_the_previous(self):
        observer, _ = _buffered_observer()
        before = get_observer()
        with use_observer(observer):
            assert get_observer() is observer
        assert get_observer() is before

    def test_set_observer_none_installs_the_null(self):
        observer, _ = _buffered_observer()
        previous = set_observer(observer)
        try:
            assert set_observer(None) is observer
            assert get_observer() is NULL_OBSERVER
        finally:
            set_observer(previous)

    def test_capture_buffers_only_when_nothing_is_live(self):
        active = ObservabilityConfig(trace=os.devnull)
        with capture_events(active) as (observer, buffer):
            assert buffer == []
            observer.counter("store.hit")
        assert len(buffer) == 1

        with capture_events(ObservabilityConfig()) as (observer, buffer):
            assert buffer is None
            assert not observer.active

        live, live_buffer = _buffered_observer()
        with use_observer(live):
            with capture_events(active) as (observer, buffer):
                assert observer is live
                assert buffer is None
                observer.counter("store.hit")
        assert len(live_buffer) == 1

    def test_replay_preserves_provenance_and_folds_metrics(self):
        worker, worker_buffer = _buffered_observer()
        worker.counter("store.miss", 2)
        with worker.span("shard.traces", index=0):
            pass
        parent, parent_buffer = _buffered_observer()
        parent.counter("local", 1)
        parent.replay(worker_buffer)
        assert [e["seq"] for e in parent_buffer] == [0, 0, 1, 2]
        assert parent_buffer[1] == worker_buffer[0]
        assert summarize_events(parent_buffer).counters["store.miss"] == 2.0

    def test_observer_from_config(self, tmp_path):
        assert observer_from_config(ObservabilityConfig()) is NULL_OBSERVER
        traced = observer_from_config(
            ObservabilityConfig(trace=str(tmp_path / "e.jsonl"))
        )
        assert traced.active
        traced.close()
        # verbosity 0 contributes no sink at all
        assert observer_from_config(
            ObservabilityConfig(verbosity=0)
        ) is NULL_OBSERVER


# --------------------------------------------------------------------- config


class TestObservabilityConfig:
    def test_defaults_are_inactive(self):
        config = ObservabilityConfig()
        assert not config.active
        assert config.verbosity == 0

    def test_any_output_activates(self, tmp_path):
        assert ObservabilityConfig(trace=str(tmp_path / "e.jsonl")).active
        assert ObservabilityConfig(verbosity=1).active
        # Verbosity 0 implies no sink, so nothing needs the events:
        # workers must not buffer them.
        assert not ObservabilityConfig(verbosity=0).active

    def test_the_progress_knob_is_gone(self, tmp_path):
        with pytest.raises(ConfigError, match="progress"):
            FlowConfig.from_dict({"obs": {"progress": True}})
        path = tmp_path / "flow.json"
        path.write_text(json.dumps({"obs": {"progress": True, "verbosity": 1}}))
        from repro.engine.cli import main

        assert main(["run", "--config", str(path)]) == 2

    def test_the_sinks_knob_is_gone(self, capsys):
        with pytest.raises(ConfigError, match="sinks"):
            FlowConfig.from_dict({"obs": {"sinks": []}})
        from repro.engine.cli import main

        assert main(["run", "--set", 'obs.sinks=["null"]']) == 2
        assert "sinks" in capsys.readouterr().err

    def test_round_trips_through_dict(self, tmp_path):
        config = ObservabilityConfig(trace=str(tmp_path / "e.jsonl"), verbosity=2)
        clone = ObservabilityConfig.from_dict(config.to_dict())
        assert clone == config

    def test_verbosity_is_validated(self):
        with pytest.raises(Exception):
            ObservabilityConfig(verbosity=9)


class TestCliVerbosity:
    """The console flags fold into the one ``verbosity`` level, and at the
    default config each combination keeps its console behaviour: no
    flag, ``-q`` and ``--progress -q`` are silent and buffer nothing."""

    @pytest.mark.parametrize(
        "flags, verbosity",
        [
            ([], 0),
            (["--progress"], 1),
            (["-v"], 2),
            (["-vv"], 3),
            (["--progress", "-q"], 0),
            (["-q"], 0),
            (["--progress", "-v"], 2),
            (["-vvvv"], 3),
        ],
    )
    def test_flags_set_the_level(self, flags, verbosity):
        from repro.engine.cli import _obs_overrides, build_parser

        args = build_parser().parse_args(["run", *flags])
        obs = _obs_overrides(args, FlowConfig(name="x")).obs
        assert obs.verbosity == verbosity
        assert obs.active is (verbosity > 0)
        observer = observer_from_config(obs)
        consoles = [s for s in observer._sinks if isinstance(s, ConsoleSink)]
        assert [s.verbosity for s in consoles] == ([verbosity] if verbosity else [])

    def test_flags_start_from_the_config_level(self):
        from repro.engine.cli import _obs_overrides, build_parser

        base = FlowConfig(name="x", obs=ObservabilityConfig(verbosity=2))
        parser = build_parser()
        for flags, verbosity in (([], 2), (["--progress"], 2), (["-q"], 1)):
            args = parser.parse_args(["run", *flags])
            assert _obs_overrides(args, base).obs.verbosity == verbosity


# -------------------------------------------------------------------- summary


class TestTraceSummary:
    def _events(self):
        observer, buffer = _buffered_observer()
        with observer.span("sweep", cells=2):
            with observer.span("sweep.cell", cell="g/a=1"):
                observer.counter("store.miss")
            observer.counter("sweep.cells_done", 1, cell="g/a=1")
            try:
                with observer.span("sweep.cell", cell="g/a=2"):
                    raise RuntimeError("bad cell")
            except RuntimeError:
                pass
            observer.histogram("shard.duration_s", 0.25)
            observer.histogram("shard.duration_s", 0.75)
        return buffer

    def test_aggregates_spans_counters_histograms_cells(self):
        summary = summarize_events(self._events())
        assert summary.events == len(self._events())
        assert summary.errors == 1
        assert summary.spans["sweep.cell"].count == 2
        assert summary.spans["sweep.cell"].errors == 1
        assert summary.counters["store.miss"] == 1.0
        assert summary.histograms["shard.duration_s"].mean == pytest.approx(0.5)
        assert summary.cells["g/a=1"]["error"] is None
        assert "RuntimeError: bad cell" in summary.cells["g/a=2"]["error"]

    def test_to_dict_is_json_able(self):
        payload = json.dumps(summarize_events(self._events()).to_dict())
        assert "sweep.cell" in payload

    def test_trace_file_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with open(path, "w") as handle:
            for event in self._events():
                handle.write(json.dumps(event) + "\n")
            handle.write("\n")  # blank lines are fine
        summary = summarize_trace_file(str(path))
        assert summary.events == len(self._events())

    def test_bad_lines_name_their_line_number(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"v": 1}\n')
        with pytest.raises(ObsError, match=r":1:"):
            summarize_trace_file(str(path))
        path.write_text("not json\n")
        with pytest.raises(ObsError, match="not valid JSON"):
            summarize_trace_file(str(path))

    def test_format_renders_every_table(self):
        text = format_trace_summary(summarize_events(self._events()))
        assert "Trace summary:" in text and "1 errors" in text
        assert "Spans" in text and "sweep.cell" in text
        assert "Counters" in text and "store.miss" in text
        assert "Histograms" in text and "shard.duration_s" in text
        assert "Sweep cells" in text and "g/a=2" in text


class TestSummaryStats:
    def test_empty_summary_formats(self):
        assert format_trace_summary(TraceSummary()) == "Trace summary: 0 events"


# ----------------------------------------------------- quantiles and profiling


class TestHistogramQuantiles:
    def test_exact_within_the_reservoir(self):
        h = Histogram()
        for value in range(101):  # 0..100
            h.observe(float(value))
        snapshot = h.to_dict()
        assert snapshot["p50"] == pytest.approx(50.0)
        assert snapshot["p95"] == pytest.approx(95.0)
        assert snapshot["p99"] == pytest.approx(99.0)

    def test_reservoir_stays_bounded_and_deterministic(self):
        def build():
            h = Histogram()
            for value in range(10_000):
                h.observe(float(value))
            return h

        first, second = build(), build()
        assert len(first._reservoir) == Histogram.RESERVOIR_SIZE
        # Fixed-seed replacement: identical streams, identical quantiles.
        assert first.quantiles() == second.quantiles()
        # The uniform reservoir keeps the median in the right ballpark.
        assert 3000 < first.quantile(0.5) < 7000

    def test_empty_histogram_snapshot_has_no_quantiles(self):
        assert Histogram().to_dict() == {"type": "histogram", "count": 0}
        assert Histogram().quantile(0.5) == 0.0

    def test_quantile_validates_its_range(self):
        h = Histogram()
        h.observe(1.0)
        with pytest.raises(ValueError, match="0..1"):
            h.quantile(1.5)

    def test_summary_reports_quantiles(self):
        events = [
            make_event("histogram", "shard.duration_s", seq=v, value=float(v))
            for v in range(1, 11)
        ]
        summary = summarize_events(events)
        snapshot = summary.to_dict()["histograms"]["shard.duration_s"]
        assert snapshot["p50"] == pytest.approx(5.5)
        rendered = format_trace_summary(summary)
        assert "p50" in rendered and "p95" in rendered and "p99" in rendered


class TestSinkFailureIsolation:
    class _Boom:
        def __init__(self):
            self.emitted = 0

        def emit(self, event):
            self.emitted += 1
            raise RuntimeError("sink exploded")

        def close(self):
            pass

    def test_raising_sink_is_disabled_not_fatal(self, capsys):
        boom = self._Boom()
        buffer = []
        observer = Observer((boom, BufferSink(buffer)))
        with observer.span("work"):
            observer.counter("ticks")
        # The run survived, the sibling sink saw every event, and the
        # broken sink was disabled after its first failure.
        assert boom.emitted == 1
        assert [e["kind"] for e in buffer] == ["span.start", "counter", "span.end"]
        assert "disabled after error" in capsys.readouterr().err

    def test_all_sinks_dead_deactivates_the_observer(self, capsys):
        observer = Observer((self._Boom(),))
        with observer.span("work"):
            pass
        assert observer.active is False
        capsys.readouterr()

    def test_close_failure_is_contained(self, capsys):
        class BadClose:
            def emit(self, event):
                pass

            def close(self):
                raise OSError("disk gone")

        observer = Observer((BadClose(), BufferSink([])))
        observer.close()  # must not raise
        assert "close" in capsys.readouterr().err.lower()


class TestJsonlConfigureTime:
    def test_unwritable_directory_fails_at_configure_time(self, tmp_path):
        with pytest.raises(ObsError, match="does not exist"):
            JsonlSink(str(tmp_path / "missing" / "events.jsonl"))

    def test_directory_path_is_rejected(self, tmp_path):
        with pytest.raises(ObsError, match="is a directory"):
            JsonlSink(str(tmp_path))

    def test_readonly_directory_is_rejected(self, tmp_path):
        import os

        target = tmp_path / "ro"
        target.mkdir()
        target.chmod(0o500)
        try:
            if os.access(target, os.W_OK):  # root bypasses permission bits
                pytest.skip("running with CAP_DAC_OVERRIDE; W_OK cannot fail")
            with pytest.raises(ObsError, match="not writable"):
                JsonlSink(str(target / "events.jsonl"))
        finally:
            target.chmod(0o700)

    def test_observer_from_config_fails_fast(self, tmp_path):
        config = ObservabilityConfig(
            trace=str(tmp_path / "missing" / "events.jsonl")
        )
        with pytest.raises(ObsError, match="does not exist"):
            observer_from_config(config)


class TestSpanProfiling:
    def _profiled_events(self):
        buffer = []
        observer = Observer((BufferSink(buffer),), profile=True, profile_top=5)

        def burn():
            return sum(i * i for i in range(20_000))

        with observer.span("outer"):
            with observer.span("inner"):
                burn()
            burn()
        return buffer

    def test_outermost_span_emits_a_profile_event(self):
        events = self._profiled_events()
        kinds = [e["kind"] for e in events]
        profiles = [e for e in events if e["kind"] == "span.profile"]
        # Only the outermost span profiles (cProfile is one-per-thread);
        # the inner span runs unprofiled inside it.
        assert len(profiles) == 1
        assert profiles[0]["name"] == "outer"
        assert kinds[-1] == "span.profile"  # emitted after span.end

    def test_profile_events_validate_and_carry_hotspots(self):
        profiles = [
            e for e in self._profiled_events() if e["kind"] == "span.profile"
        ]
        event = validate_event(profiles[0])
        assert event["v"] == SCHEMA_VERSION
        assert 1 <= len(event["profile"]) <= 5
        top = event["profile"][0]
        assert set(top) == {"func", "calls", "tottime_s", "cumtime_s"}
        assert any("burn" in entry["func"] for entry in event["profile"])

    def test_unprofiled_observer_emits_no_profile_events(self):
        observer, buffer = _buffered_observer()
        with observer.span("outer"):
            pass
        assert all(e["kind"] != "span.profile" for e in buffer)

    def test_summary_merges_profiles_across_spans(self):
        events = []
        for _ in range(3):
            events.extend(self._profiled_events())
        summary = summarize_events(events)
        assert "outer" in summary.profiles
        hotspots = summary.top_hotspots("outer")
        assert hotspots[0]["spans"] >= 1
        rendered = format_trace_summary(summary)
        assert "Profile hotspots: outer" in rendered

    def test_capture_events_inherits_profile_from_config(self):
        config = ObservabilityConfig(trace=os.devnull, profile=True)
        with capture_events(config) as (observer, buffer):
            assert observer.profile is True
            with observer.span("outer"):
                sum(i for i in range(10_000))
        assert any(e["kind"] == "span.profile" for e in buffer)

    def test_profile_config_round_trips(self):
        config = ObservabilityConfig(profile=True, profile_top=7)
        clone = ObservabilityConfig.from_dict(config.to_dict())
        assert clone.profile is True and clone.profile_top == 7
        with pytest.raises(Exception, match="profile_top"):
            ObservabilityConfig(profile_top=0)
