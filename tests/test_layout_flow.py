"""The layout flow stage: wiring, acceptance pins, store keys, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine import content_key, store_record
from repro.engine.cli import main as repro_main
from repro.flow import (
    AssessmentConfig,
    ConfigError,
    DesignFlow,
    ExecutionConfig,
    FlowConfig,
    FlowError,
    LayoutConfig,
    ObservabilityConfig,
)
from repro.power.trace import acquire_circuit_traces


def routed_config(router, name="routed", traces_per_class=150, **layout_overrides):
    return FlowConfig(
        name=name,
        layout=LayoutConfig(router=router, **layout_overrides),
        assessment=AssessmentConfig(enabled=True, traces_per_class=traces_per_class),
    )


class TestLayoutConfig:
    def test_round_trips_through_dict(self):
        config = LayoutConfig(router="fat", seed=3, grid=(6, 7), anneal_moves=100)
        rebuilt = LayoutConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config
        assert rebuilt.grid == (6, 7)

    def test_validation(self):
        with pytest.raises(ConfigError):
            LayoutConfig(router="")
        with pytest.raises(ConfigError):
            LayoutConfig(grid=(0, 4))
        with pytest.raises(ConfigError):
            LayoutConfig(grid="23")  # a string is not a (rows, cols) pair
        with pytest.raises(ConfigError):
            LayoutConfig(grid=6)  # neither is a bare scalar
        with pytest.raises(ConfigError):
            LayoutConfig(anneal_moves=-1)
        assert not LayoutConfig().routed
        assert LayoutConfig(router="fat").routed

    def test_flow_config_carries_a_layout_section(self):
        config = FlowConfig()
        assert config.layout == LayoutConfig()
        rebuilt = FlowConfig.from_dict(config.to_dict())
        assert rebuilt.layout == LayoutConfig()


class TestLayoutStage:
    def test_layout_free_flow_skips_the_stage_and_keeps_legacy_streams(self):
        flow = DesignFlow.sbox(0xB, trace_count=120)
        report = flow.run()
        assert "layout" not in report.stages()
        assert flow.layout() is None  # on demand: a cheap no-op
        # the default config is byte-identical to the pre-layout pipeline
        legacy = acquire_circuit_traces(flow.circuit(), 0xB, 120)
        assert np.array_equal(flow.traces().traces, legacy.traces)
        assert np.array_equal(flow.traces().plaintexts, legacy.plaintexts)

    def test_routed_flow_runs_the_stage(self):
        flow = DesignFlow.sbox(0xB, config=routed_config("fat"), trace_count=100)
        report = flow.run()
        assert "layout" in report.stages()
        details = report["layout"].details
        assert details["router"] == "fat"
        assert details["max_mismatch_fF"] == 0.0
        assert report["traces"].details["router"] == "fat"
        assert "layout" in report.to_dict()
        assert "Routing imbalance" in report.format_layout()

    def test_unknown_router_is_a_flow_error(self):
        flow = DesignFlow.sbox(0xB, config=routed_config("nope"))
        with pytest.raises(FlowError, match="unknown router"):
            flow.result("layout")

    def test_invalidating_the_circuit_drops_the_layout(self):
        flow = DesignFlow.sbox(0xB, config=routed_config("fat"), trace_count=60)
        flow.traces()
        assert "layout" in flow.computed_stages()
        flow.invalidate("circuit")
        assert "layout" not in flow.computed_stages()
        assert "traces" not in flow.computed_stages()

    def test_fat_vs_unbalanced_acceptance(self):
        """The paper's back-end claim, pinned end to end.

        A fat-routed run reports zero per-pair mismatch and passes TVLA;
        an unbalanced run of the same circuit reports nonzero mismatch
        and a strictly worse (or equal) verdict.
        """
        fat = DesignFlow.sbox(0xB, config=routed_config("fat"), trace_count=60)
        unbalanced = DesignFlow.sbox(
            0xB, config=routed_config("unbalanced"), trace_count=60
        )
        fat.run()
        unbalanced.run()
        assert fat.layout().parasitics.max_mismatch() == 0.0
        assert unbalanced.layout().parasitics.max_mismatch() > 0.0
        fat_t = fat.assessment()["ttest"]
        unbalanced_t = unbalanced.assessment()["ttest"]
        assert not fat_t.leaks
        assert unbalanced_t.leaks
        assert unbalanced_t.max_abs_t >= fat_t.max_abs_t

    def test_present_round_scenario_routes_too(self):
        from repro.flow import ScenarioConfig

        config = FlowConfig(
            name="routed_round",
            campaign=FlowConfig().campaign.replace(
                scenario="present_round", key=0x6B, trace_count=60
            ),
            scenario=ScenarioConfig(params={"sboxes": 2}),
            layout=LayoutConfig(router="fat"),
        )
        flow = DesignFlow(None, config)
        report = flow.run()
        assert report["layout"].details["max_mismatch_fF"] == 0.0
        loads = flow.layout().parasitics.rail_loads()
        assert set(loads) == {gate.output_net for gate in flow.circuit().gates}
        # subkey recovery still projects onto the configured attack point
        assert "analysis" in report.stages()

    def test_expression_workload_routes_too(self):
        flow = DesignFlow(
            {"F": "(A & B) | C"},
            FlowConfig(name="expr", layout=LayoutConfig(router="diffpair")),
        )
        report = flow.run()
        assert "layout" in report.stages()
        assert report["layout"].details["router"] == "diffpair"


class TestEngineIntegration:
    def test_sharded_routed_campaign_is_bit_identical(self):
        config = routed_config("unbalanced").replace(
            execution=ExecutionConfig(shard_size=32)
        )
        serial = DesignFlow.sbox(0xB, config=config, trace_count=96)
        sharded = DesignFlow.sbox(
            0xB,
            config=config.replace(
                execution=ExecutionConfig(shard_size=32, workers=2)
            ),
            trace_count=96,
        )
        assert np.array_equal(sharded.traces().traces, serial.traces().traces)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pooled_routed_campaign_places_and_routes_once(
        self, tmp_path, start_method
    ):
        # The parent ships its rail loads with the shard tasks: the workers'
        # replayed spans hold no stage.layout of their own.
        trace = tmp_path / "spans.jsonl"
        config = routed_config("fat").replace(
            execution=ExecutionConfig(workers=2, start_method=start_method),
            obs=ObservabilityConfig(trace=str(trace)),
        )
        pooled = DesignFlow.sbox(0xB, config=config, trace_count=1000)
        traces = pooled.traces()
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        layouts = [
            e for e in events if e["kind"] == "span.end" and e["name"] == "stage.layout"
        ]
        assert len(layouts) == 1
        # Worker spans did come back: each worker built its circuit.
        circuits = {
            e["pid"]
            for e in events
            if e["kind"] == "span.end" and e["name"] == "stage.circuit"
        }
        assert len(circuits) >= 2
        serial = DesignFlow.sbox(
            0xB, config=routed_config("fat"), trace_count=1000
        ).traces()
        assert np.array_equal(traces.traces, serial.traces)
        assert np.array_equal(traces.plaintexts, serial.plaintexts)

    def test_store_keys_cover_the_layout_config(self):
        def key(**layout):
            flow = DesignFlow.sbox(
                0xB, config=FlowConfig(layout=LayoutConfig(**layout))
            )
            return content_key(store_record(flow, "traces"))

        plain = key()
        fat = key(router="fat")
        unbalanced = key(router="unbalanced")
        reseeded = key(router="fat", seed=99)
        regridded = key(router="fat", grid=(20, 20))
        assert len({plain, fat, unbalanced, reseeded, regridded}) == 5

    def test_layout_free_keys_ignore_inert_layout_fields(self):
        def key(**layout):
            flow = DesignFlow.sbox(
                0xB, config=FlowConfig(layout=LayoutConfig(**layout))
            )
            return content_key(store_record(flow, "traces"))

        # without a router the placement parameters cannot change the
        # campaign, so they must not fragment the cache
        assert key() == key(seed=123, anneal_moves=9)

    def test_model_campaign_keys_ignore_the_router(self):
        def key(router):
            config = FlowConfig(
                layout=LayoutConfig(router=router),
                campaign=FlowConfig().campaign.replace(source="model"),
            )
            flow = DesignFlow.sbox(0xB, config=config)
            return content_key(store_record(flow, "traces"))

        assert key(None) == key("fat")


class TestCli:
    def test_run_with_router(self, capsys):
        assert (
            repro_main(
                [
                    "run",
                    "--router",
                    "fat",
                    "--set",
                    "trace_count=60",
                    "--set",
                    "assessment.enabled=true",
                    "--set",
                    "assessment.traces_per_class=80",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "router=fat" in out
        assert "Routing imbalance" in out

    def test_run_with_unknown_router_fails_cleanly(self, capsys):
        assert repro_main(["run", "--router", "bogus", "--set", "trace_count=50"]) == 2
        assert "unknown router" in capsys.readouterr().err

    def test_sweep_over_the_router_axis(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert (
            repro_main(
                [
                    "sweep",
                    "--set",
                    "trace_count=50",
                    "--axis",
                    "layout.router=fat,unbalanced",
                    "--json",
                    str(out),
                ]
            )
            == 0
        )
        cells = json.loads(out.read_text())["cells"]
        assert [cell["overrides"]["layout.router"] for cell in cells] == [
            "fat",
            "unbalanced",
        ]
