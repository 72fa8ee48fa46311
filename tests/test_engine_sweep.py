"""The sweep driver and the ``repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.engine import build_grid, run_sweep, shutdown_pools
from repro.engine.cli import main
from repro.engine.executors import _WARM_POOLS
from repro.flow import CampaignConfig, ConfigError, ExecutionConfig, FlowConfig
from repro.flow.pipeline import FlowError


class TestBuildGrid:
    def test_cartesian_product_in_axis_order(self):
        base = FlowConfig(name="grid")
        cells = build_grid(
            base,
            {"gate_style": ["sabl", "cvsl"], "noise_std": [0.0, 0.01]},
        )
        assert len(cells) == 4
        names = [name for name, _, _ in cells]
        assert names[0] == "grid/gate_style=sabl/noise_std=0.0"
        assert names[-1] == "grid/gate_style=cvsl/noise_std=0.01"
        _, overrides, config = cells[1]
        assert overrides == {"gate_style": "sabl", "noise_std": 0.01}
        assert config.campaign.gate_style == "sabl"
        assert config.campaign.noise_std == 0.01
        assert config.name == names[1]

    def test_dotted_paths_reach_other_sections(self):
        cells = build_grid(
            FlowConfig(name="grid"),
            {"assessment.traces_per_class": [100, 200], "synthesis.method": ["transform"]},
        )
        assert len(cells) == 2
        assert cells[0][2].assessment.traces_per_class == 100
        assert cells[1][2].synthesis.method == "transform"

    def test_no_axes_yields_the_base_cell(self):
        base = FlowConfig(name="solo")
        assert build_grid(base, {}) == [("solo", {}, base)]

    def test_bad_axis_values_fail_eagerly(self):
        with pytest.raises(ConfigError):
            build_grid(FlowConfig(), {"gate_style": []})
        with pytest.raises(ConfigError):
            build_grid(FlowConfig(), {"gate_style": "sabl"})  # string, not list
        with pytest.raises(ConfigError):
            build_grid(FlowConfig(), {"bogus_field": [1]})
        with pytest.raises(ConfigError):
            build_grid(FlowConfig(), {"campaign.trace_count": [0]})  # invalid value
        with pytest.raises(ConfigError, match="bogus"):
            build_grid(FlowConfig(), {"campaign.bogus": [1]})  # unknown field


class TestRunSweep:
    def test_grid_runs_and_reports(self, tmp_path):
        base = FlowConfig(
            name="mini", campaign=CampaignConfig(trace_count=40)
        )
        report = run_sweep(
            base,
            {"network_style": ["fc", "genuine"]},
            store=str(tmp_path / "store"),
        )
        assert len(report) == 2
        record = report.to_dict()
        assert [cell["overrides"]["network_style"] for cell in record["cells"]] == [
            "fc",
            "genuine",
        ]
        for cell in record["cells"]:
            assert cell["stages"]["traces"]["details"]["count"] == 40
            assert "analysis" in cell
        table = report.format_table()
        assert "network_style" in table and "fc" in table

    def test_shared_store_hits_across_identical_cells(self, tmp_path):
        base = FlowConfig(name="mini", campaign=CampaignConfig(trace_count=32))
        store = str(tmp_path / "store")
        first = run_sweep(base, {"gate_style": ["sabl"]}, store=store)
        second = run_sweep(base, {"gate_style": ["sabl"]}, store=store)
        assert (
            first.cells[0]["stages"]["traces"]["details"]["store"] == "miss"
        )
        assert (
            second.cells[0]["stages"]["traces"]["details"]["store"] == "hit"
        )

    def test_parallel_sweep_matches_serial(self, tmp_path):
        base = FlowConfig(name="mini", campaign=CampaignConfig(trace_count=32))
        axes = {"network_style": ["fc", "genuine"]}
        serial = run_sweep(base, axes)
        parallel = run_sweep(base, axes, workers=2)

        def strip(report):
            cells = []
            for cell in report.to_dict()["cells"]:
                cells.append(
                    {
                        "cell": cell["cell"],
                        "analysis": cell["analysis"],
                        "count": cell["stages"]["traces"]["details"]["count"],
                        "mean": cell["stages"]["traces"]["details"]["mean_energy_J"],
                    }
                )
            return cells

        assert strip(serial) == strip(parallel)

    @staticmethod
    def _cells_without_timings(report):
        cells = report.to_dict()["cells"]
        for cell in cells:
            cell.pop("elapsed_s")
            for stage in cell["stages"].values():
                stage.pop("elapsed_s")
        return cells

    def test_sweep_pool_honours_the_start_method(self):
        axes = {"gate_style": ["sabl", "cvsl"]}
        campaign = CampaignConfig(trace_count=32)
        shutdown_pools()
        fork = run_sweep(
            FlowConfig(campaign=campaign, execution=ExecutionConfig(start_method="fork")),
            axes,
            workers=2,
        )
        spawn = run_sweep(
            FlowConfig(campaign=campaign, execution=ExecutionConfig(start_method="spawn")),
            axes,
            workers=2,
        )
        assert ("spawn", 2) in _WARM_POOLS
        assert self._cells_without_timings(spawn) == self._cells_without_timings(fork)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_cell_is_named(self, workers):
        base = FlowConfig(campaign=CampaignConfig(trace_count=32))
        with pytest.raises(
            FlowError,
            match="sweep cell 'design/key=48' failed: key 0x30 does not fit",
        ):
            run_sweep(base, {"key": [0x3, 0x30]}, workers=workers)

    def test_sweep_timeout_applies_per_cell(self):
        base = FlowConfig(
            campaign=CampaignConfig(trace_count=4000),
            execution=ExecutionConfig(shard_timeout=0.001),
        )
        with pytest.raises(FlowError, match="sweep cell .*gate_style=sabl"):
            run_sweep(base, {"gate_style": ["sabl", "cvsl"]}, workers=2)


class TestCli:
    def test_run_prints_a_summary(self, capsys):
        code = main(["run", "--set", "trace_count=32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "DesignFlow" in out and "traces" in out

    def test_sweep_writes_json_and_uses_the_store(self, tmp_path, capsys):
        out_file = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "--set",
                "trace_count=32",
                "--axis",
                "network_style=fc,genuine",
                "--store",
                str(tmp_path / "store"),
                "--json",
                str(out_file),
            ]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert len(payload["cells"]) == 2
        assert payload["axes"] == {"network_style": ["fc", "genuine"]}

        code = main(["store", "ls", "--store", str(tmp_path / "store")])
        assert code == 0
        out = capsys.readouterr().out
        assert "artifacts" in out

        code = main(["store", "clear", "--store", str(tmp_path / "store")])
        assert code == 0
        assert "removed" in capsys.readouterr().out

    def test_bad_config_exits_nonzero(self, capsys):
        code = main(["run", "--set", "trace_count=0"])
        assert code == 2
        assert "repro run" in capsys.readouterr().err
        code = main(["run", "--set", "campaign.bogus=1"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_mistyped_key_exits_two(self, capsys):
        assert main(["run", "--set", "key=0xB"]) == 2
        assert "CampaignConfig.key must be an integer" in capsys.readouterr().err
        assert main(["run", "--set", "assessment.methods=5"]) == 2
        assert "expected a sequence" in capsys.readouterr().err
        # The constructors, from_dict and replace all check field types.
        for cls, field, value in (
            (CampaignConfig, "key", "0xB"),
            (ExecutionConfig, "workers", "2"),
        ):
            message = f"{cls.__name__}.{field} must be an integer"
            with pytest.raises(ConfigError, match=message):
                cls(**{field: value})
            with pytest.raises(ConfigError, match=message):
                cls.from_dict({field: value})
            with pytest.raises(ConfigError, match=message):
                cls().replace(**{field: value})

    @pytest.mark.parametrize(
        "section, name, value",
        [
            ("campaign", "trace_count", "abc"),
            ("campaign", "noise_std", "high"),
            ("assessment", "traces_per_class", True),
            ("execution", "shard_timeout", "soon"),
            ("execution", "store", 5),
            ("scenario", "params", 5),
        ],
    )
    def test_mistyped_value_is_a_config_error(self, capsys, tmp_path, section, name, value):
        # --set and config JSON values arrive untyped: a value of the
        # wrong type is a config error naming the field.
        field = f"{section.capitalize()}Config.{name}"
        raw = value if isinstance(value, str) else json.dumps(value)
        assert main(["run", "--set", f"{section}.{name}={raw}"]) == 2
        assert field in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: {name: value}}))
        assert main(["run", "--config", str(config)]) == 2
        assert field in capsys.readouterr().err

    def test_sweep_passes_the_start_method_to_its_pool(self, tmp_path):
        shutdown_pools()
        code = main(
            [
                "sweep",
                "--set",
                "trace_count=32",
                "--axis",
                "gate_style=sabl,cvsl",
                "--workers",
                "2",
                "--start-method",
                "spawn",
                "--shard-timeout",
                "300",
                "--json",
                str(tmp_path / "sweep.json"),
            ]
        )
        assert code == 0
        assert ("spawn", 2) in _WARM_POOLS

    def test_assessment_via_cli(self, capsys):
        code = main(
            [
                "run",
                "--set",
                "source=model",
                "--set",
                "noise_std=0.2",
                "--set",
                "assessment.enabled=true",
                "--set",
                "assessment.traces_per_class=80",
                "--set",
                "trace_count=32",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Leakage assessment" in out
