"""In-memory spans around the calls the flow makes into each module.

The benchmark's traced run installs wrappers -- from this file, not from
the program -- on the public functions each layer exposes.  Every call
records a span (layer, start, end, parent span, op id) in a list that
stays in memory until the run ends.  A span's self time is its duration
minus the time its child spans cover.

Only calls made in the benchmark process are seen: shard work inside
engine workers is invisible here, which is why the sharded workload
replays a sample of its ops in-process (see ``run.py``).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Span recorder plus the wrapper bookkeeping to install and remove it."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []  # [layer, start, end, parent, op]
        self.counts: Dict[str, float] = defaultdict(float)
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------ recording

    def begin(self, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([layer, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, layer: str, after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``layer`` span per call; ``after(args, result)``
        may add counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    # ------------------------------------------------------------ patching

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        own = name in vars(owner)
        self._patched.append((owner, name, vars(owner).get(name), own))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every layer's public entry points (see ``_entry_points``)."""
        for layer, owner, name in _entry_points():
            self.patch(owner, name, self.wrap(getattr(owner, name), layer, self._after(name)))
        from repro.flow import pipeline

        get_attack = pipeline.get_attack
        self.patch(
            pipeline, "get_attack", lambda name: self.wrap(get_attack(name), "power.dpa")
        )

    def uninstall(self) -> None:
        while self._patched:
            owner, name, original, own = self._patched.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)

    def _after(self, name: str) -> Optional[Callable]:
        """The count hook of the wrapped function ``name``, if it has one."""
        counts = self.counts

        def simulated(args, result) -> None:
            counts["kernel.traces"] += len(result)
            plan = getattr(args[0], "_plan", None)
            if plan is not None and plan.constant_fold is not None:
                counts["kernel.folded"] += len(result)

        def shards(args, result) -> None:
            counts["engine.shards"] += result[1]["shards"]

        def lookup(args, result) -> None:
            counts["store.lookups"] += 1
            counts["store.hits"] += result is not None

        hooks = {
            "energies": simulated,
            "run_trace_campaign": shards,
            "run_assessment_campaign": shards,
            "get_traceset": lookup,
            "get_json": lookup,
        }
        return hooks.get(name)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> Dict[str, float]:
        """Total self seconds per layer."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for index, (layer, start, end, _, _) in enumerate(self.spans):
            totals[layer] += end - start - child_time[index]
        return totals

    def durations(self, layer: str) -> Dict[Any, float]:
        """Total duration of ``layer`` spans per op id."""
        per_op: Dict[Any, float] = defaultdict(float)
        for name, start, end, _, op in self.spans:
            if name == layer:
                per_op[op] += end - start
        return per_op

    def write(self, path: str, phase: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for index, (layer, start, end, parent, op) in enumerate(self.spans):
                record = {
                    "phase": phase,
                    "id": index,
                    "name": layer,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op,
                }
                handle.write(json.dumps(record) + "\n")


def _entry_points():
    """``(layer, owner, attribute)`` of every wrapped public call.

    Functions the pipeline imported by name are patched where the
    pipeline looks them up; lazily imported ones on their home package.
    """
    import repro.engine.runner as runner
    import repro.kernel as kernel
    import repro.layout as layout
    from repro.assess.ttest import TVLATTest
    from repro.engine.store import ArtifactStore
    from repro.flow import pipeline
    from repro.kernel.bitslice import BitslicedCircuitEnergyModel
    from repro.kernel.compile import CompiledProgram
    from repro.sabl.simulator import BatchedCircuitEnergyModel

    return (
        ("core.synthesis", pipeline, "synthesize_fc_dpdn"),
        ("core.synthesis", pipeline, "transform_to_fc"),
        ("core.verify", pipeline, "verify_gate"),
        ("sabl.map", pipeline, "map_expressions"),
        ("layout.place_route", layout, "layout_circuit"),
        ("kernel.compile", kernel, "compile_circuit"),
        ("kernel.compile", CompiledProgram, "plan"),
        ("kernel.energies", BatchedCircuitEnergyModel, "energies"),
        ("kernel.energies", BitslicedCircuitEnergyModel, "energies"),
        ("power.acquire", pipeline, "acquire_circuit_traces"),
        ("assess.update", TVLATTest, "update"),
        ("assess.update", TVLATTest, "merge"),
        ("assess.finalize", TVLATTest, "finalize"),
        ("engine.map", runner, "run_trace_campaign"),
        ("engine.map", runner, "run_assessment_campaign"),
        ("store.get", ArtifactStore, "get_traceset"),
        ("store.get", ArtifactStore, "get_details"),
        ("store.get", ArtifactStore, "get_json"),
        ("store.put", ArtifactStore, "put_traceset"),
        ("store.put", ArtifactStore, "put_json"),
    )
