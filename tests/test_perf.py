"""The perf layer: benchmark registry, history store, gate, CLI.

The acceptance behavior pinned here: the regression gate fires on an
injected >= 2x slowdown (naming the metric), stays quiet across
back-to-back unchanged runs, refuses to call jitter a regression, and
never gates on metrics measured with more workers than CPUs.
"""

from __future__ import annotations

import json

import pytest

from repro.engine.cli import main
from repro.perf import (
    BENCHMARKS,
    Benchmark,
    BenchResult,
    MetricSpec,
    PerfError,
    append_history,
    benchmark_names,
    compare_histories,
    compare_records,
    cpus_available,
    get_benchmark,
    read_history,
    register_benchmark,
    regressions,
    resolve_selector,
    run_benchmark,
)
from repro.reporting import format_bench_record, format_deltas, format_history
from repro.reporting.bench import write_benchmark_json


def _synthetic(name="synth", values=None, workers=None):
    """A deterministic benchmark yielding ``values`` in sequence."""
    produced = list(values or [100.0])
    state = {"calls": 0}

    def run(quick):
        value = produced[min(state["calls"], len(produced) - 1)]
        state["calls"] += 1
        return BenchResult(
            metrics={"rate": value},
            results={"raw": {"rate": value}},
            params={"quick": quick},
        )

    return Benchmark(
        name=name,
        description="synthetic test benchmark",
        metrics=(
            MetricSpec("rate", "traces/s", higher_is_better=True, workers=workers),
        ),
        run=run,
    )


class TestRegistry:
    def test_builtins_are_registered(self):
        assert set(benchmark_names()) >= {"engine", "kernel", "layout", "scenarios"}
        bench = get_benchmark("engine")
        assert any(spec.name == "tps_w1" for spec in bench.metrics)

    def test_unknown_benchmark_lists_available(self):
        with pytest.raises(KeyError, match="engine"):
            get_benchmark("nonexistent")

    def test_duplicate_registration_raises(self):
        bench = _synthetic("dup_check")
        register_benchmark(bench)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_benchmark(bench)
        finally:
            BENCHMARKS.unregister("dup_check")

    def test_benchmark_requires_metrics(self):
        with pytest.raises(PerfError, match="declares no metrics"):
            Benchmark(name="bad", description="", metrics=(), run=lambda q: None)

    def test_metric_spec_rejects_bad_slug(self):
        with pytest.raises(PerfError, match="simple slug"):
            MetricSpec("has space", "x")

    def test_undeclared_metrics_are_rejected(self):
        bench = _synthetic()

        def rogue(quick):
            return BenchResult(metrics={"surprise": 1.0})

        rogue_bench = Benchmark(
            name="rogue", description="", metrics=bench.metrics, run=rogue
        )
        with pytest.raises(PerfError, match="undeclared metrics: surprise"):
            run_benchmark(rogue_bench)


class TestRunAndHistory:
    def test_repetitions_record_median_and_spread(self):
        bench = _synthetic(values=[100.0, 120.0, 110.0])
        record = run_benchmark(bench, repetitions=3)
        entry = record["metrics"]["rate"]
        assert entry["value"] == 110.0
        assert entry["spread_rel"] == pytest.approx(20.0 / 110.0, rel=1e-4)
        assert entry["values"] == [100.0, 120.0, 110.0]
        assert record["repetitions"] == 3

    def test_single_repetition_has_zero_spread(self):
        record = run_benchmark(_synthetic(values=[42.0]))
        assert record["metrics"]["rate"]["spread_rel"] == 0.0
        assert "values" not in record["metrics"]["rate"]

    def test_impossible_worker_count_marks_unreliable(self):
        record = run_benchmark(_synthetic(workers=9999))
        assert record["metrics"]["rate"]["unreliable"] is True
        assert record["metrics"]["rate"]["workers"] == 9999

    def test_environment_records_cpu_budget(self):
        record = run_benchmark(_synthetic())
        assert record["environment"]["cpu_count"] >= 1
        assert 1 <= record["environment"]["cpu_affinity"] <= (
            record["environment"]["cpu_count"]
        )
        assert cpus_available() == record["environment"]["cpu_affinity"]

    def test_history_round_trips(self, tmp_path):
        path = tmp_path / "H.jsonl"
        first = run_benchmark(_synthetic(values=[10.0]))
        second = run_benchmark(_synthetic(values=[11.0]))
        append_history(first, path)
        append_history(second, path)
        records = read_history(path)
        assert [r["metrics"]["rate"]["value"] for r in records] == [10.0, 11.0]
        assert read_history(path, benchmark="other") == []

    def test_missing_history_is_empty(self, tmp_path):
        assert read_history(tmp_path / "absent.jsonl") == []

    def test_malformed_history_names_the_line(self, tmp_path):
        path = tmp_path / "H.jsonl"
        path.write_text('{"benchmark": "ok", "metrics": {}}\nnot json\n')
        with pytest.raises(PerfError, match=r"H\.jsonl:2"):
            read_history(path)


class TestSelectors:
    def _records(self):
        records = []
        for index, sha in enumerate(["aaa111", "bbb222", "ccc333"]):
            record = run_benchmark(_synthetic(values=[float(index)]))
            record["provenance"]["git_sha"] = sha * 6
            records.append(record)
        return records

    def test_latest_prev_and_index(self):
        records = self._records()
        assert resolve_selector(records, "latest") is records[-1]
        assert resolve_selector(records, "last") is records[-1]
        assert resolve_selector(records, "prev") is records[-2]
        assert resolve_selector(records, "0") is records[0]
        assert resolve_selector(records, "-1") is records[-1]
        # 'prev' skips records of the other mode: a quick run compares
        # with the last quick run, never with a full one in between.
        mixed = [
            run_benchmark(_synthetic(values=[float(index)]), quick=quick)
            for index, quick in enumerate([False, True, False, True])
        ]
        assert resolve_selector(mixed, "prev") is mixed[1]
        assert resolve_selector(mixed[:3], "prev") is mixed[0]
        with pytest.raises(PerfError, match="no earlier quick-mode record"):
            resolve_selector(mixed[:2], "prev")

    def test_sha_prefix(self):
        records = self._records()
        assert resolve_selector(records, "bbb") is records[1]

    def test_errors_are_descriptive(self):
        records = self._records()
        with pytest.raises(PerfError, match="no history record matches"):
            resolve_selector(records, "zzz")
        with pytest.raises(PerfError, match="out of range"):
            resolve_selector(records, "99")
        with pytest.raises(PerfError, match="empty"):
            resolve_selector([], "latest")
        with pytest.raises(PerfError, match="at least two"):
            resolve_selector(records[:1], "prev")


class TestGate:
    def _pair(self, old_value, new_value, spread=0.0, workers=None):
        bench = _synthetic(values=[old_value], workers=workers)
        old = run_benchmark(bench)
        new = run_benchmark(_synthetic(values=[new_value], workers=workers))
        old["metrics"]["rate"]["spread_rel"] = spread
        new["metrics"]["rate"]["spread_rel"] = spread
        return old, new

    def test_detects_injected_2x_slowdown_by_name(self):
        old, new = self._pair(1000.0, 450.0)
        deltas = compare_records(old, new)
        failed = regressions(deltas)
        assert len(failed) == 1
        assert failed[0].metric == "rate"
        assert failed[0].worsening == pytest.approx(0.55)
        assert failed[0].regression

    def test_unchanged_runs_pass(self):
        old, new = self._pair(1000.0, 1000.0)
        assert regressions(compare_records(old, new)) == []

    def test_small_delta_below_threshold_passes(self):
        old, new = self._pair(1000.0, 950.0)
        assert regressions(compare_records(old, new)) == []

    def test_jitter_band_suppresses_noisy_regressions(self):
        # 30% slowdown, but the metric wobbles 20% run to run: the
        # worsening does not clear 2x the measured spread.
        old, new = self._pair(1000.0, 700.0, spread=0.20)
        deltas = compare_records(old, new)
        assert deltas[0].worsening == pytest.approx(0.30)
        assert regressions(deltas) == []
        # The same slowdown on a quiet metric gates.
        old, new = self._pair(1000.0, 700.0, spread=0.02)
        assert regressions(compare_records(old, new)) != []

    def test_unreliable_metrics_never_gate(self):
        old, new = self._pair(1000.0, 100.0, workers=9999)
        deltas = compare_records(old, new)
        assert deltas[0].unreliable
        assert regressions(deltas) == []

    def test_improvement_is_not_a_regression(self):
        old, new = self._pair(1000.0, 2000.0)
        deltas = compare_records(old, new)
        assert deltas[0].worsening < 0
        assert regressions(deltas) == []

    def test_lower_is_better_direction(self):
        bench = Benchmark(
            name="latency",
            description="",
            metrics=(MetricSpec("seconds", "s", higher_is_better=False),),
            run=lambda quick: BenchResult(metrics={"seconds": 1.0}),
        )
        old = run_benchmark(bench)
        new = run_benchmark(
            Benchmark(
                name="latency",
                description="",
                metrics=bench.metrics,
                run=lambda quick: BenchResult(metrics={"seconds": 3.0}),
            )
        )
        deltas = compare_records(old, new)
        assert deltas[0].worsening == pytest.approx(2.0)
        assert regressions(deltas) != []

    def test_cross_benchmark_comparison_refuses(self):
        old = run_benchmark(_synthetic(name="synth"))
        new = run_benchmark(_synthetic(name="other"))
        new["benchmark"] = "other"
        with pytest.raises(PerfError, match="different benchmarks"):
            compare_records(old, new)

    def test_compare_histories_pairs_per_benchmark(self):
        records = []
        for value in (100.0, 50.0):
            records.append(run_benchmark(_synthetic(values=[value])))
        deltas = compare_histories(records, "prev", "latest")
        assert [d.metric for d in regressions(deltas)] == ["rate"]


class TestCliBench:
    @pytest.fixture()
    def synth(self):
        bench = _synthetic("clisynth", values=[100.0, 100.0, 40.0])
        register_benchmark(bench, overwrite=True)
        yield bench
        BENCHMARKS.unregister("clisynth")

    def test_ls_lists_builtins(self, capsys):
        assert main(["bench", "ls"]) == 0
        out = capsys.readouterr().out
        for name in ("engine", "kernel", "layout", "scenarios"):
            assert name in out

    def test_run_requires_a_name_or_all(self, capsys):
        assert main(["bench", "run"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_run_records_history_and_json(self, synth, tmp_path, capsys):
        history = tmp_path / "H.jsonl"
        code = main(
            ["bench", "run", "clisynth", "--history", str(history), "--json", "-"]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload[0]["benchmark"] == "clisynth"
        assert history.exists()
        assert read_history(history)[0]["metrics"]["rate"]["value"] == 100.0
        assert "clisynth" in captured.err  # human tables moved to stderr

    def test_gate_passes_then_fails_on_slowdown(self, synth, tmp_path, capsys):
        history = tmp_path / "H.jsonl"
        for _ in range(2):  # two identical 100.0 runs
            assert main(["bench", "run", "clisynth", "--history", str(history)]) == 0
        assert (
            main(["bench", "compare", "prev", "latest", "--history", str(history),
                  "--gate"])
            == 0
        )
        capsys.readouterr()
        # Third run measures 40.0: a 60% slowdown must gate and name the
        # metric on stderr.
        assert main(["bench", "run", "clisynth", "--history", str(history)]) == 0
        code = main(
            ["bench", "compare", "prev", "latest", "--history", str(history),
             "--gate"]
        )
        assert code == 1
        assert "clisynth.rate" in capsys.readouterr().err

    def test_compare_without_gate_reports_but_passes(self, synth, tmp_path, capsys):
        history = tmp_path / "H.jsonl"
        for _ in range(3):
            assert main(["bench", "run", "clisynth", "--history", str(history)]) == 0
        assert (
            main(["bench", "compare", "prev", "latest", "--history", str(history)])
            == 0
        )

    def test_history_subcommand_lists_records(self, synth, tmp_path, capsys):
        history = tmp_path / "H.jsonl"
        main(["bench", "run", "clisynth", "--history", str(history)])
        capsys.readouterr()
        assert main(["bench", "history", "--history", str(history)]) == 0
        assert "clisynth" in capsys.readouterr().out

    def test_compare_with_empty_history_errors(self, tmp_path, capsys):
        code = main(
            ["bench", "compare", "prev", "latest", "--history",
             str(tmp_path / "none.jsonl")]
        )
        assert code == 2
        assert "nothing to compare" in capsys.readouterr().err

    def test_strict_refuses_a_dirty_tree(self, synth, tmp_path, capsys, monkeypatch):
        import repro.engine.cli as cli

        monkeypatch.setattr(
            cli, "benchmark_provenance",
            lambda: {"git_sha": "f" * 40, "git_dirty": True},
        )
        code = main(
            ["bench", "run", "clisynth", "--strict", "--history",
             str(tmp_path / "H.jsonl")]
        )
        assert code == 2
        assert "dirty" in capsys.readouterr().err
        assert not (tmp_path / "H.jsonl").exists()


class TestBenchJsonProvenance:
    def test_dirty_tree_warns(self, tmp_path, monkeypatch):
        import repro.reporting.bench as bench_mod

        monkeypatch.setattr(
            bench_mod, "benchmark_provenance",
            lambda: {"git_sha": "a" * 40, "git_dirty": True},
        )
        with pytest.warns(UserWarning, match="dirty working tree"):
            write_benchmark_json("dirtycheck", {"x": 1}, directory=tmp_path)

    def test_dirty_tree_strict_refuses(self, tmp_path, monkeypatch):
        import repro.reporting.bench as bench_mod

        monkeypatch.setattr(
            bench_mod, "benchmark_provenance",
            lambda: {"git_sha": "a" * 40, "git_dirty": True},
        )
        with pytest.raises(ValueError, match="dirty"):
            write_benchmark_json(
                "dirtycheck", {"x": 1}, directory=tmp_path, strict=True
            )
        assert not (tmp_path / "BENCH_dirtycheck.json").exists()

    def test_clean_tree_records_affinity(self, tmp_path, monkeypatch):
        import repro.reporting.bench as bench_mod

        monkeypatch.setattr(
            bench_mod, "benchmark_provenance",
            lambda: {"git_sha": "a" * 40, "git_dirty": False},
        )
        path = write_benchmark_json("cleancheck", {"x": 1}, directory=tmp_path)
        record = json.loads(path.read_text())
        assert record["environment"]["cpu_affinity"] >= 1


class TestFormatting:
    def test_record_and_history_tables_render(self):
        record = run_benchmark(_synthetic(values=[100.0, 105.0]), repetitions=2)
        assert "rate" in format_bench_record(record)
        assert "synth" in format_history([record])

    def test_delta_table_marks_verdicts(self):
        old = run_benchmark(_synthetic(values=[1000.0]))
        new = run_benchmark(_synthetic(values=[400.0]))
        rendered = format_deltas(compare_records(old, new))
        assert "REGRESSION" in rendered
