"""Span-level profiling: cProfile wrapped around observer spans.

When :attr:`~repro.flow.config.ObservabilityConfig.profile` is set, the
observer wraps each :meth:`~repro.obs.core.Observer.span` body in a
:class:`cProfile.Profile` and emits one ``span.profile`` event per
profiled span, carrying the span's top-N *cumulative-time* hotspots.
That is the attribution half of perf observability: the perfbench gate
(``benchmarks/record.py``) says *which metric* regressed, the profile
events in the trace say *which function* ate the time.

Profiling is a pure side-channel -- cProfile observes the interpreter,
it never touches any computation or random stream -- so a profiled run
stays bit-identical to an unprofiled one (pinned by test, like every
other observability feature).

Only one :class:`cProfile.Profile` can be enabled per interpreter at a
time, so nested spans are handled by exception: the outermost profiled
span owns the profiler and inner spans run unprofiled inside it (their
frames are attributed to the outer span's hotspots, which is where a
human looks first anyway).
"""

from __future__ import annotations

import cProfile
from typing import Any, Dict, List, Optional

__all__ = ["SpanProfiler", "hotspots_from_profile", "DEFAULT_PROFILE_TOP"]

#: Hotspot entries kept per profiled span when no explicit top-N is
#: configured (``ObservabilityConfig.profile_top``).
DEFAULT_PROFILE_TOP = 10

#: Internal frames of the profiling machinery itself; dropped from the
#: reported hotspots so a span's table starts at the user's code.
_NOISE_NAMES = frozenset(
    {"<method 'disable' of '_lsprof.Profiler' objects>"}
)


def hotspots_from_profile(
    profiler: cProfile.Profile, top: int = DEFAULT_PROFILE_TOP
) -> List[Dict[str, Any]]:
    """The profiler's top-``top`` entries by cumulative time.

    Each entry is one flat, JSON-able dictionary (the ``profile`` field
    of a ``span.profile`` event)::

        {"func": "pipeline.py:652(_acquire_trace_shard)",
         "calls": 3, "tottime_s": 0.012, "cumtime_s": 1.234}

    ``calls`` counts primitive (non-recursive) calls; times are rounded
    to microseconds so the event diffs cleanly.
    """
    import pstats

    stats = pstats.Stats(profiler)
    entries = []
    for (filename, lineno, name), (cc, nc, tt, ct, _callers) in stats.stats.items():
        if filename == "~" and name in _NOISE_NAMES:
            continue
        # Keep the label short: the file's basename locates the module,
        # the line and function name locate the code.
        basename = filename.rsplit("/", 1)[-1].rsplit("\\", 1)[-1]
        label = f"{basename}:{lineno}({name})" if lineno else f"{basename}({name})"
        entries.append(
            {
                "func": label,
                "calls": int(cc),
                "tottime_s": round(float(tt), 6),
                "cumtime_s": round(float(ct), 6),
            }
        )
    entries.sort(key=lambda entry: (-entry["cumtime_s"], entry["func"]))
    return entries[: max(1, int(top))]


class SpanProfiler:
    """One cProfile session bracketing a span body.

    ``start()`` enables the profiler; ``stop()`` disables it and returns
    the top-N hotspot list (empty when the profiler never ran --
    ``start`` is a no-op while another profiler owns the interpreter,
    which the observer guards against before constructing one).
    """

    __slots__ = ("top", "_profiler")

    def __init__(self, top: int = DEFAULT_PROFILE_TOP) -> None:
        self.top = top
        self._profiler: Optional[cProfile.Profile] = None

    def start(self) -> None:
        profiler = cProfile.Profile()
        try:
            profiler.enable()
        except ValueError:  # another profiler is active; run unprofiled
            self._profiler = None
            return
        self._profiler = profiler

    def stop(self) -> List[Dict[str, Any]]:
        if self._profiler is None:
            return []
        self._profiler.disable()
        hotspots = hotspots_from_profile(self._profiler, self.top)
        self._profiler = None
        return hotspots
