"""Grid sweeps of flow configs, executed in parallel.

A sweep takes a base :class:`~repro.flow.config.FlowConfig` and a
mapping of *axes* -- config field paths to lists of values -- and runs
one flow per point of the cartesian grid (gate style x S-box x noise x
trace budget, ...).  Cells are independent flows, so the sweep
parallelises across cells (each cell itself runs serially; nested pools
are never created), shares one artifact store so repeated campaigns are
acquired once, and reduces every cell into a JSON-able
:class:`SweepReport` rendered through :mod:`repro.reporting`.

Axis paths name a section explicitly (``"campaign.noise_std"``,
``"assessment.traces_per_class"``, ``"synthesis.method"``); bare names
(``"gate_style"``, ``"scenario"``) are a convenience for campaign
fields, which is where nearly every sweep axis lives::

    report = run_sweep(
        FlowConfig(
            name="styles",
            execution=ExecutionConfig(workers=4, store="./artifacts"),
        ),
        {"scenario": ["sbox", "present_round"], "gate_style": ["sabl", "cvsl"]},
    )
    print(report.format_table())
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import fields as dataclass_fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..flow.config import CampaignConfig, ConfigError, FlowConfig
from ..flow.pipeline import DesignFlow, FlowError
from ..obs import capture_events, get_observer, observer_from_config, use_observer
from ..reporting.tables import format_table
from .executors import map_payloads

__all__ = ["SweepReport", "build_grid", "run_sweep"]

_CAMPAIGN_FIELDS = {f.name for f in dataclass_fields(CampaignConfig)}


def _apply_override(config: FlowConfig, path: str, value: Any) -> FlowConfig:
    """One grid override applied to a flow config (re-validates)."""
    if "." in path:
        section, field = path.split(".", 1)
    elif path in _CAMPAIGN_FIELDS:
        section, field = "campaign", path
    elif path == "name":
        return config.replace(name=value)
    else:
        raise ConfigError(
            f"axis {path!r} is neither a campaign field nor a dotted "
            f"'section.field' path"
        )
    if "." in field:
        raise ConfigError(f"axis {path!r}: only one level of nesting is supported")
    try:
        current = getattr(config, section)
    except AttributeError:
        raise ConfigError(f"axis {path!r}: unknown config section {section!r}") from None
    return config.replace(**{section: current.replace(**{field: value})})


def _cell_name(base: str, overrides: Mapping[str, Any]) -> str:
    parts = [f"{path.split('.')[-1]}={value}" for path, value in overrides.items()]
    return "/".join([base] + parts) if parts else base


def build_grid(
    base: FlowConfig, axes: Mapping[str, Sequence[Any]]
) -> List[Tuple[str, Dict[str, Any], FlowConfig]]:
    """The sweep's cells: ``(name, overrides, config)`` per grid point.

    Axes iterate in insertion order, the last axis fastest (plain
    cartesian product), and every cell config is validated eagerly -- a
    bad axis value fails before anything runs.
    """
    if not axes:
        return [(base.name, {}, base)]
    for path, values in axes.items():
        if isinstance(values, str) or not isinstance(values, Sequence) or not values:
            raise ConfigError(
                f"axis {path!r} must map to a non-empty list of values, "
                f"got {values!r}"
            )
    cells: List[Tuple[str, Dict[str, Any], FlowConfig]] = []
    paths = list(axes)
    for combination in itertools.product(*(axes[path] for path in paths)):
        overrides = dict(zip(paths, combination))
        config = base
        for path, value in overrides.items():
            config = _apply_override(config, path, value)
        name = _cell_name(base.name, overrides)
        cells.append((name, overrides, config.replace(name=name)))
    return cells


def _attack_record(outcome: Any) -> Dict[str, Any]:
    return {
        "succeeded": bool(getattr(outcome, "succeeded", False)),
        "best_guess": int(getattr(outcome, "best_guess", -1)),
        "correct_key_rank": int(getattr(outcome, "correct_key_rank", -1)),
    }


#: A sweep cell's payload: its name, its config as JSON and the stages
#: to compute (``None``: the flow's applicable stages).
_CellPayload = Tuple[str, str, Optional[Tuple[str, ...]]]


def _cell_error(payload: _CellPayload, exc: BaseException) -> FlowError:
    """Wrap a cell's failure with the cell's name."""
    return FlowError(f"sweep cell {payload[0]!r} failed: {exc}")


def _sweep_cell_task(
    payload: _CellPayload,
) -> Tuple[Dict[str, Any], Optional[List[Dict[str, Any]]]]:
    """Executed per cell (possibly on a pool worker): run one flow.

    Like the runner's shard task, returns ``(record, events)``: the
    observability events buffered by :func:`repro.obs.capture_events`
    ride back with the record, for :func:`run_sweep`'s map to replay.
    """
    name, config_json, stages = payload
    config = FlowConfig.from_dict(json.loads(config_json))
    flow = DesignFlow(None, config)
    start = time.perf_counter()
    with capture_events(config.obs) as (obs, events):
        with obs.span("sweep.cell", cell=name):
            report = flow.run(list(stages) if stages is not None else None)
        obs.counter("sweep.cells_done", 1, cell=name)
    elapsed = time.perf_counter() - start
    record: Dict[str, Any] = {
        "cell": name,
        "elapsed_s": round(elapsed, 6),
        "stages": {
            result.stage: result.to_dict() for result in report
        },
    }
    if "analysis" in report:
        record["analysis"] = {
            attack: _attack_record(outcome)
            for attack, outcome in report["analysis"].value.items()
        }
    if "assessment" in report:
        record["assessment"] = {
            method: outcome.to_dict()
            for method, outcome in report["assessment"].value.items()
            if hasattr(outcome, "to_dict")
        }
    return record, events


class SweepReport:
    """The reduced result of one sweep: per-cell records plus rendering."""

    def __init__(
        self,
        axes: Mapping[str, Sequence[Any]],
        cells: List[Dict[str, Any]],
        elapsed: float,
    ) -> None:
        self.axes = {path: list(values) for path, values in axes.items()}
        self.cells = cells
        self.elapsed = elapsed

    def __len__(self) -> int:
        return len(self.cells)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "axes": self.axes,
            "cells": self.cells,
            "elapsed_s": round(self.elapsed, 6),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def _verdict(self, cell: Mapping[str, Any]) -> str:
        parts: List[str] = []
        for attack, outcome in cell.get("analysis", {}).items():
            verdict = "recovered" if outcome["succeeded"] else "resisted"
            parts.append(f"{attack}:{verdict}(r{outcome['correct_key_rank']})")
        for method, outcome in cell.get("assessment", {}).items():
            leaks = outcome.get("leaks")
            if leaks is None:
                continue
            parts.append(f"{method}:{'LEAKS' if leaks else 'pass'}")
        return " ".join(parts) or "-"

    def format_table(self, title: Optional[str] = None) -> str:
        """Per-cell summary table (via :mod:`repro.reporting`)."""
        axis_labels = [path.split(".")[-1] for path in self.axes]
        headers = axis_labels + ["traces", "time [s]", "store", "verdict"]
        rows: List[List[str]] = []
        for cell in self.cells:
            overrides = cell.get("overrides", {})
            trace_details = cell.get("stages", {}).get("traces", {}).get("details", {})
            rows.append(
                [str(overrides.get(path, "-")) for path in self.axes]
                + [
                    str(trace_details.get("count", "-")),
                    f"{cell.get('elapsed_s', 0.0):.2f}",
                    str(trace_details.get("store", "off")),
                    self._verdict(cell),
                ]
            )
        return format_table(
            headers,
            rows,
            title=title
            or f"Sweep: {len(self.cells)} cells in {self.elapsed:.2f} s",
        )


def run_sweep(
    base: FlowConfig,
    axes: Mapping[str, Sequence[Any]],
    stages: Optional[Sequence[str]] = None,
) -> SweepReport:
    """Run the full grid and reduce it into a :class:`SweepReport`.

    The cells map over ``base.execution`` like a campaign's shards: its
    ``workers`` parallelise *across cells* (each cell keeps its
    configured shard size but is forced to a single in-cell worker, so
    pools never nest), and its ``executor``, ``start_method`` and
    ``shard_timeout`` apply too, the timeout per cell.  A failed cell
    raises a :class:`~repro.flow.pipeline.FlowError` naming it.  Every
    cell shares ``base.execution.store`` unless its axes set one.
    ``stages`` restricts what each cell computes (default: each flow's
    applicable stages).
    """
    cells = build_grid(base, axes)
    payloads = []
    for name, overrides, config in cells:
        execution = config.execution.replace(workers=1, executor=None)
        config = config.replace(execution=execution)
        payloads.append(
            (
                name,
                json.dumps(config.to_dict(), sort_keys=True),
                tuple(stages) if stages is not None else None,
            )
        )
    # A host-installed observer wins; otherwise the sweep builds one
    # from the base config's obs section (and owns its lifecycle).
    current = get_observer()
    obs = current if current.active else observer_from_config(base.obs)
    owned = obs is not current
    records: List[Dict[str, Any]] = []
    start = time.perf_counter()
    try:
        with use_observer(obs), obs.span(
            "sweep", cells=len(payloads), workers=base.execution.workers
        ):
            # In process the cells emit into ``obs`` directly; on the
            # pool each cell's buffered events are replayed as its
            # record arrives, so progress advances once per cell.
            map_payloads(
                payloads,
                _sweep_cell_task,
                lambda payload: _sweep_cell_task(payload)[0],
                records.append,
                base.execution,
                fail=_cell_error,
                observer=obs,
                obs_config=base.obs,
                total=len(payloads),
                unit="cells",
            )
            elapsed = time.perf_counter() - start
    finally:
        if owned:
            obs.close()
    for (name, overrides, _config), record in zip(cells, records):
        record["overrides"] = dict(overrides)
    return SweepReport(axes, records, elapsed)
