"""Benchmark declarations: named, declared, runnable performance probes.

The repository's benchmarks used to live only as ad-hoc pytest drivers
under ``benchmarks/``; each invented its own result shape and its own
JSON record.  Here a :class:`Benchmark` is a name with a declared set of
metrics -- unit, direction, worker assumption -- and a runner, so the
CLI (``repro bench run``), the history store (:mod:`repro.perf.history`)
and the regression gate (:mod:`repro.perf.compare`) all speak one
vocabulary.  The built-ins and their name table live in
:mod:`repro.perf.builtin`.

A :class:`MetricSpec` declares what a number *means*: ``traces_per_s``
going down is a regression, ``compile_ms`` going down is an
improvement, and a ``speedup_w4`` measured on a 1-CPU host is noise --
the ``workers`` field lets the gate discount it (see
:func:`repro.perf.history.cpus_available`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = [
    "PerfError",
    "MetricSpec",
    "BenchResult",
    "Benchmark",
]


class PerfError(Exception):
    """A benchmark definition, run or comparison is invalid."""


@dataclass(frozen=True)
class MetricSpec:
    """What one benchmark metric means.

    ``higher_is_better`` fixes the sign of "regression" for the gate;
    ``workers`` records how many worker processes the metric assumes
    (``None`` for single-process metrics) so parallel-speedup numbers
    can be flagged unreliable on hosts with fewer CPUs than workers.
    """

    name: str
    unit: str
    higher_is_better: bool = True
    workers: Optional[int] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise PerfError(
                f"metric name must be a simple slug, got {self.name!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise PerfError(
                f"metric {self.name!r}: workers must be >= 1, got {self.workers}"
            )

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
        }
        if self.workers is not None:
            record["workers"] = self.workers
        if self.description:
            record["description"] = self.description
        return record


@dataclass
class BenchResult:
    """What one benchmark run produced.

    ``metrics`` is the flat ``name -> value`` mapping the history store
    and gate consume -- every key must be declared by the benchmark's
    :class:`MetricSpec` list (quick runs may omit declared metrics, but
    never invent undeclared ones).  ``results`` is the benchmark's full
    nested record, written verbatim as ``BENCH_<name>.json``;
    ``params`` records the scale knobs (trace counts, quick mode) needed
    to interpret the numbers.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    results: Dict[str, Any] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)


#: A benchmark runner: ``run(quick) -> BenchResult``.
BenchRunner = Callable[[bool], BenchResult]


@dataclass(frozen=True)
class Benchmark:
    """One benchmark: a name, declared metrics, a runner."""

    name: str
    description: str
    metrics: Tuple[MetricSpec, ...]
    run: BenchRunner

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise PerfError(
                f"benchmark name must be a simple slug, got {self.name!r}"
            )
        if not self.metrics:
            raise PerfError(f"benchmark {self.name!r} declares no metrics")
        names = [spec.name for spec in self.metrics]
        if len(set(names)) != len(names):
            raise PerfError(f"benchmark {self.name!r} declares duplicate metrics")

    def spec(self, metric: str) -> MetricSpec:
        """The declared spec for ``metric``; raises on unknown names."""
        for candidate in self.metrics:
            if candidate.name == metric:
                return candidate
        raise PerfError(
            f"benchmark {self.name!r} does not declare metric {metric!r}"
        )

    def check_metrics(self, measured: Dict[str, float]) -> None:
        """Reject measured metrics the benchmark never declared."""
        declared = {spec.name for spec in self.metrics}
        unknown = sorted(set(measured) - declared)
        if unknown:
            raise PerfError(
                f"benchmark {self.name!r} produced undeclared metrics: "
                f"{', '.join(unknown)}"
            )
