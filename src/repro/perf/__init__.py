"""Performance engineering: the built-in benchmarks, history and gate.

``repro.perf`` turns the repository's benchmarks from ad-hoc pytest
drivers into first-class, named probes:

* :data:`BENCHMARKS` / :func:`get_benchmark` -- the built-ins by name;
  each :class:`Benchmark` declares its metrics (unit, direction, worker
  assumption) and a runner with a ``--quick`` mode;
* :func:`run_benchmark` / :func:`append_history` /
  :func:`read_history` -- the append-only ``PERF_HISTORY.jsonl``
  trajectory: one provenance-stamped record per benchmark per run,
  with per-metric medians and measured run-to-run spread;
* :func:`compare_histories` / :func:`regressions` -- the noise-aware
  regression gate: a metric regresses only when its worsening clears
  both a relative threshold and the measured jitter band.

The CLI front end is ``repro bench`` (ls / run / history / compare);
the built-in benchmarks are engine, kernel, layout, obs and scenarios.
"""

from .builtin import BENCHMARKS, benchmark_names, get_benchmark
from .compare import (
    DEFAULT_JITTER_FACTOR,
    DEFAULT_REL_THRESHOLD,
    MetricDelta,
    compare_histories,
    compare_records,
    regressions,
    resolve_selector,
)
from .history import (
    DEFAULT_HISTORY_FILE,
    HISTORY_SCHEMA_VERSION,
    append_history,
    cpus_available,
    history_path,
    read_history,
    run_benchmark,
)
from .registry import Benchmark, BenchResult, MetricSpec, PerfError

__all__ = [
    "PerfError",
    "MetricSpec",
    "BenchResult",
    "Benchmark",
    "BENCHMARKS",
    "get_benchmark",
    "benchmark_names",
    "HISTORY_SCHEMA_VERSION",
    "DEFAULT_HISTORY_FILE",
    "cpus_available",
    "history_path",
    "run_benchmark",
    "append_history",
    "read_history",
    "DEFAULT_REL_THRESHOLD",
    "DEFAULT_JITTER_FACTOR",
    "MetricDelta",
    "resolve_selector",
    "compare_records",
    "compare_histories",
    "regressions",
]
