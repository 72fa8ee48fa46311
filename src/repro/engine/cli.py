"""The ``repro`` command-line interface.

Five subcommands drive the engine from a shell (installed as a console
script by ``pyproject.toml``):

* ``repro run`` -- execute one flow and print its stage summary (plus
  the assessment table when the stage ran);
* ``repro sweep`` -- run a grid of flow configs (``--axis
  gate_style=sabl,cvsl --axis noise_std=0,0.01 --axis
  scenario=sbox,present_round``) across worker processes, sharing one
  artifact store, and print/save the sweep report;
* ``repro store`` -- inspect (``ls``), count (``stats``), empty
  (``clear``) or prune crashed writers' staging dirs (``gc``) of an
  artifact store;
* ``repro trace`` -- aggregate a JSONL event log (written with
  ``--trace``) into per-span timing, counter, quantile and profile
  tables; ``--follow`` tails a trace still being written;
* ``repro top`` -- live status of a running campaign tailed from its
  growing trace file: progress/ETA, a per-worker table of finished
  shards and cells, and the busiest spans, refreshed in place on a TTY.

Axis and ``--set`` values parse as JSON when possible (``0.01`` ->
float, ``[1,2]`` -> list) and fall back to plain strings (``sabl``), so
the shell syntax stays unquoted for the common cases.

Observability flags are shared by ``run`` and ``sweep``: ``--trace
FILE`` appends every event to a JSONL log, ``--progress`` streams
progress lines to stderr (console level 1), and each ``-v``/``-q``
raises or lowers that level by one (``-v`` implies ``--progress``).
``--json -`` writes the machine-readable report to stdout and moves
every human-readable line to stderr, so piped output stays clean JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, TextIO, Tuple

from ..flow.config import ConfigError, FlowConfig
from ..flow.pipeline import DesignFlow, FlowError
from ..registry import UnknownBackendError
from ..obs import (
    ObsError,
    ProgressAggregator,
    TraceSummary,
    iter_trace_events,
    observer_from_config,
    summarize_trace_file,
    use_observer,
)
from ..reporting.tables import format_table
from ..reporting.trace import format_live_status, format_trace_summary
from .store import ArtifactStore
from .sweep import _apply_override, run_sweep

__all__ = ["main", "build_parser"]


def _parse_value(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_assignment(text: str, option: str) -> Tuple[str, str]:
    if "=" not in text:
        # ConfigError so main()'s error path turns this into a clean
        # one-line message (the parse happens inside the handlers, after
        # argparse is done).
        raise ConfigError(f"{option} expects PATH=VALUE, got {text!r}")
    path, _, value = text.partition("=")
    return path.strip(), value.strip()


def _base_config(args: argparse.Namespace) -> FlowConfig:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = FlowConfig.from_dict(json.load(handle))
    else:
        config = FlowConfig(name=args.name)
    # --scenario / --router are plain shorthand for --set scenario=NAME /
    # --set layout.router=NAME: apply them through the same override
    # path, before the --set loop so an explicit --set still wins.
    if getattr(args, "scenario", None):
        config = _apply_override(config, "scenario", args.scenario)
    if getattr(args, "router", None):
        config = _apply_override(config, "layout.router", args.router)
    for assignment in args.set or []:
        path, raw = _parse_assignment(assignment, "--set")
        config = _apply_override(config, path, _parse_value(raw))
    if getattr(args, "scenario_param", None):
        params = dict(config.scenario.params)
        for assignment in args.scenario_param:
            name, raw = _parse_assignment(assignment, "--scenario-param")
            params[name] = _parse_value(raw)
        config = config.replace(scenario=config.scenario.replace(params=params))
    return config


def _execution_overrides(args: argparse.Namespace, config: FlowConfig) -> FlowConfig:
    overrides: Dict[str, Any] = {}
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.shard_size is not None:
        overrides["shard_size"] = args.shard_size
    if args.executor is not None:
        overrides["executor"] = args.executor
    if getattr(args, "start_method", None) is not None:
        overrides["start_method"] = args.start_method
    if getattr(args, "shard_timeout", None) is not None:
        overrides["shard_timeout"] = args.shard_timeout
    if args.store is not None:
        overrides["store"] = args.store
    if overrides:
        config = config.replace(execution=config.execution.replace(**overrides))
    return config


def _obs_overrides(args: argparse.Namespace, config: FlowConfig) -> FlowConfig:
    """Fold the observability flags into the config's obs section.

    ``--progress`` (or any ``-v``) shows at least level 1, each ``-v``
    adds a level and each ``-q`` takes one away, within 0..3; with none
    of them the config's ``verbosity`` stands (0, silent, by default).
    """
    obs = config.obs
    overrides: Dict[str, Any] = {}
    if getattr(args, "trace", None):
        overrides["trace"] = args.trace
    verbose = getattr(args, "verbose", 0)
    level = obs.verbosity
    if getattr(args, "progress", False) or verbose:
        level = max(level, 1)
    level = max(0, min(3, level + verbose - getattr(args, "quiet", 0)))
    if level != obs.verbosity:
        overrides["verbosity"] = level
    if getattr(args, "profile", False):
        overrides["profile"] = True
    if overrides:
        config = config.replace(obs=obs.replace(**overrides))
    return config


def _human_stream(args: argparse.Namespace) -> TextIO:
    """Where human-readable output goes.

    ``--json -`` claims stdout for the machine-readable report, so every
    table and status line moves to stderr.
    """
    return sys.stderr if getattr(args, "json", None) == "-" else sys.stdout


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", metavar="FILE", help="base FlowConfig as a JSON file"
    )
    parser.add_argument(
        "--name", default="cli", help="flow name when --config is not given"
    )
    parser.add_argument(
        "--set",
        action="append",
        metavar="PATH=VALUE",
        help="config override, e.g. --set trace_count=2000 or "
        "--set assessment.enabled=true (repeatable)",
    )
    parser.add_argument(
        "--scenario",
        metavar="NAME",
        help="cipher-datapath scenario the campaign runs "
        "(sbox, present_round, present_rounds); shorthand for "
        "--set scenario=NAME",
    )
    parser.add_argument(
        "--scenario-param",
        action="append",
        metavar="KEY=VALUE",
        help="scenario parameter, e.g. --scenario-param sboxes=2 or "
        "--scenario-param rounds=3 (repeatable)",
    )
    parser.add_argument(
        "--router",
        metavar="NAME",
        help="differential routing mode for the back-end "
        "layout stage (fat, diffpair, unbalanced); shorthand for "
        "--set layout.router=NAME",
    )
    parser.add_argument(
        "--workers", type=int, metavar="N", help="worker processes (default 1)"
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        metavar="N",
        help="traces per shard, rounded up to whole 256-trace blocks "
        "(scheduling only: results do not depend on it)",
    )
    parser.add_argument(
        "--executor",
        choices=("serial", "process"),
        help="serial: run the shard plan in process; process: on the worker "
        "pool (default: process when --workers > 1, else serial)",
    )
    parser.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method for the process executor "
        "(default: fork where available, else the platform default)",
    )
    parser.add_argument(
        "--shard-timeout",
        type=float,
        metavar="SECONDS",
        help="fail the campaign if any shard (in a sweep: any cell) takes "
        "longer than this (a dead worker otherwise hangs the run; default: "
        "wait forever)",
    )
    parser.add_argument("--store", metavar="DIR", help="artifact store directory")
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="also write the report as JSON to FILE; '-' writes JSON to "
        "stdout and moves the human-readable output to stderr",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="append every observability event (stages, shards, store "
        "accesses, kernel meters) to FILE as JSON lines; summarize with "
        "`repro trace summary FILE`",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render a progress line (done/total, rate, ETA, age of the "
        "last worker result) on stderr while running; a pooled run "
        "advances it once per finished shard or sweep cell",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile outermost spans with cProfile and emit their top "
        "hotspots as span.profile events (pair with --trace FILE, then "
        "`repro trace summary FILE` shows the hotspot tables; results "
        "stay bit-identical)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more progress detail (implies --progress; repeatable)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="less progress detail (repeatable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sharded campaign execution for the DATE 2005 reproduction "
        "(see `repro <command> --help`).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one flow and print its report")
    _add_common_options(run)

    sweep = commands.add_parser(
        "sweep", help="run a grid of flow configs in parallel"
    )
    _add_common_options(sweep)
    sweep.add_argument(
        "--axis",
        action="append",
        metavar="PATH=V1,V2,...",
        help="sweep axis, e.g. --axis gate_style=sabl,cvsl or "
        "--axis scenario=sbox,present_round (repeatable; the grid is "
        "the cartesian product of all axes)",
    )
    sweep.add_argument(
        "--stages",
        metavar="S1,S2,...",
        help="restrict which stages each cell computes (default: applicable stages)",
    )

    store = commands.add_parser(
        "store", help="inspect, empty or garbage-collect an artifact store"
    )
    store.add_argument("action", choices=("ls", "stats", "clear", "gc"))
    store.add_argument("--store", required=True, metavar="DIR")
    store.add_argument(
        "--min-age",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="gc only: prune orphaned staging dirs at least this old "
        "(guards live writers; default 0)",
    )

    trace = commands.add_parser(
        "trace", help="aggregate a JSONL event log written with --trace"
    )
    trace.add_argument("action", choices=("summary",))
    trace.add_argument("file", metavar="FILE", help="the JSONL event log")
    trace.add_argument(
        "--follow",
        action="store_true",
        help="keep reading as the trace grows (status lines on stderr "
        "while tailing), then print the summary on Ctrl-C or --duration",
    )
    trace.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="status refresh period while following (default 1.0)",
    )
    trace.add_argument(
        "--duration",
        type=float,
        metavar="SECONDS",
        help="stop following after this long (default: until Ctrl-C)",
    )
    trace.add_argument(
        "--json",
        metavar="FILE",
        help="also write the aggregate as JSON to FILE ('-' for stdout)",
    )

    top = commands.add_parser(
        "top",
        help="live status of a running campaign, tailed from its --trace file",
    )
    top.add_argument("file", metavar="FILE", help="the JSONL event log being written")
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="display refresh period (default 1.0)",
    )
    top.add_argument(
        "--duration",
        type=float,
        metavar="SECONDS",
        help="stop tailing after this long (default: until Ctrl-C)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="read the trace once, print the status block, and exit",
    )

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    config = _obs_overrides(args, _execution_overrides(args, _base_config(args)))
    out = _human_stream(args)
    flow = DesignFlow(None, config)
    observer = observer_from_config(config.obs)
    try:
        with use_observer(observer):
            report = flow.run()
    finally:
        observer.close()
    print(report.format_summary(), file=out)
    if "layout" in report and report["layout"].value is not None:
        print(file=out)
        print(report.format_layout(), file=out)
    if "assessment" in report:
        print(file=out)
        print(report.format_assessment(), file=out)
    if args.json == "-":
        sys.stdout.write(report.to_json())
        sys.stdout.write("\n")
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
        print(f"\nreport written to {args.json}", file=out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _obs_overrides(args, _execution_overrides(args, _base_config(args)))
    out = _human_stream(args)
    axes: Dict[str, List[Any]] = {}
    for axis in args.axis or []:
        path, raw = _parse_assignment(axis, "--axis")
        axes[path] = [_parse_value(value) for value in raw.split(",") if value]
    stages = (
        [stage for stage in args.stages.split(",") if stage]
        if args.stages
        else None
    )
    observer = observer_from_config(config.obs)
    try:
        with use_observer(observer):
            report = run_sweep(config, axes, stages=stages)
    finally:
        observer.close()
    print(report.format_table(), file=out)
    if args.json == "-":
        sys.stdout.write(report.to_json())
        sys.stdout.write("\n")
    elif args.json:
        report.save(args.json)
        print(f"\nsweep report written to {args.json}", file=out)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    store = ArtifactStore(args.store)
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} artifacts from {store.root}")
        return 0
    if args.action == "gc":
        removed = store.gc(min_age_s=args.min_age)
        print(f"pruned {removed} orphaned staging dirs from {store.root}")
        return 0
    if args.action == "stats":
        stats = store.stats()
        print(
            format_table(
                ["stat", "value"],
                [
                    ["entries", stats["entries"]],
                    ["bytes", stats["bytes"]],
                    ["megabytes", f"{stats['bytes'] / 1e6:.2f}"],
                ],
                title=f"Store {store.root}",
            )
        )
        return 0
    entries = store.entries()
    rows = []
    for meta in entries:
        config = meta.get("config", {})
        stage = meta.get("config", {}).get("stage", meta.get("kind", "?"))
        campaign = config.get("campaign", {})
        rows.append(
            [
                str(meta.get("key", "?"))[:12],
                stage,
                str(meta.get("count", campaign.get("trace_count", "-"))),
                str(campaign.get("gate_style", "-")),
                str(campaign.get("noise_std", "-")),
                str(campaign.get("seed", "-")),
            ]
        )
    print(
        format_table(
            ["key", "stage", "traces", "gate_style", "noise", "seed"],
            rows,
            title=f"{len(entries)} artifacts in {store.root} "
            f"({store.size_bytes() / 1e6:.2f} MB)",
        )
    )
    return 0


def _watch_trace(
    path: str,
    follow: bool,
    interval: float = 1.0,
    duration: Optional[float] = None,
    on_status: Optional[Callable[[TraceSummary, ProgressAggregator, Optional[float]], None]] = None,
) -> Tuple[TraceSummary, ProgressAggregator, Optional[float]]:
    """Consume a (possibly growing) trace into summary + progress state.

    Events feed both the :class:`TraceSummary` aggregate and a
    :class:`ProgressAggregator` driven by the events' own file
    timestamps, so rates and last-result ages replay exactly as recorded.
    ``on_status`` fires at most every ``interval`` seconds of wall time;
    ``duration`` bounds the follow (otherwise it runs until Ctrl-C,
    which ends the watch cleanly rather than raising).
    """
    summary = TraceSummary()
    aggregator = ProgressAggregator(None, unit="traces")
    last_ts: Optional[float] = None
    deadline = time.monotonic() + duration if duration is not None else None

    def stop() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    interval = max(0.05, float(interval))
    next_status = time.monotonic()
    try:
        for event in iter_trace_events(
            path, follow=follow, poll_s=min(0.2, interval), stop=stop
        ):
            summary.add(event)
            ts = event.get("ts")
            if isinstance(ts, (int, float)):
                last_ts = float(ts)
                aggregator.note_event(event, last_ts)
            if on_status is not None and time.monotonic() >= next_status:
                next_status = time.monotonic() + interval
                on_status(summary, aggregator, last_ts)
    except KeyboardInterrupt:
        pass
    return summary, aggregator, last_ts


def _cmd_trace(args: argparse.Namespace) -> int:
    if getattr(args, "follow", False):
        summary, _, _ = _watch_trace(
            args.file,
            follow=True,
            interval=args.interval,
            duration=args.duration,
            on_status=lambda _s, agg, ts: print(
                agg.render_line(ts), file=sys.stderr
            ),
        )
    else:
        summary = summarize_trace_file(args.file)
    print(format_trace_summary(summary), file=_human_stream(args))
    if args.json == "-":
        sys.stdout.write(json.dumps(summary.to_dict(), indent=2))
        sys.stdout.write("\n")
    elif args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(summary.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"\nsummary written to {args.json}", file=_human_stream(args))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    if args.once:
        summary, aggregator, last_ts = _watch_trace(args.file, follow=False)
        print(format_live_status(summary, aggregator, now=last_ts))
        return 0
    tty = sys.stdout.isatty()

    def on_status(
        summary: TraceSummary,
        aggregator: ProgressAggregator,
        last_ts: Optional[float],
    ) -> None:
        if tty:
            # Full-screen refresh, top-style: clear, home, redraw.
            sys.stdout.write(
                "\x1b[2J\x1b[H"
                + format_live_status(summary, aggregator, now=last_ts)
                + "\n"
            )
            sys.stdout.flush()
        else:
            print(aggregator.render_line(last_ts), flush=True)

    summary, aggregator, last_ts = _watch_trace(
        args.file,
        follow=True,
        interval=args.interval,
        duration=args.duration,
        on_status=on_status,
    )
    if not tty:
        print(format_live_status(summary, aggregator, now=last_ts))
    else:
        on_status(summary, aggregator, last_ts)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console-script entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "store": _cmd_store,
        "trace": _cmd_trace,
        "top": _cmd_top,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        print(file=sys.stderr)
        return 130
    except (
        ConfigError,
        FlowError,
        UnknownBackendError,
        ObsError,
        OSError,
    ) as error:
        print(f"repro {args.command}: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - python -m repro.engine.cli
    sys.exit(main())
