"""The campaign runner: map shards in process or on a pool, reduce.

Every ``traces`` and ``assessment`` stage runs here, as a deterministic
map-reduce over the campaign's fixed block stream:

1. **plan** -- the campaign's blocks (:func:`repro.power.trace.campaign_blocks`,
   each with its own spawned ``SeedSequence``) are grouped into shards
   of whole consecutive blocks (:mod:`repro.engine.sharding`);
2. **map** -- :func:`repro.engine.executors.map_payloads` runs each
   shard in an in-process loop or on the warm process pool.  A run
   that sets no shard size is one task covering every block in
   process, and one shard per worker on a pool
   (:meth:`~repro.flow.config.ExecutionConfig.effective_shard_size`).
   Worker processes rebuild the flow from its config dict and build the
   circuit themselves -- the parent of an unrouted campaign maps none,
   and a routed campaign's parent ships its layout with the shard
   tasks, so no worker places and routes --
   caching the flow per process (the pools are *persistent*, so a
   repeated campaign finds its circuit warm, sweep cell after sweep
   cell);
3. **reduce** -- trace blocks are concatenated in block order; an
   assessment shard yields one fresh set of method accumulators per
   block, and the parent ``merge()``-s them left to right in block
   order (a pool worker lists its shard's sets, while in process each
   set is merged as it is yielded).

Every shard result -- trace blocks and assessment accumulators alike --
comes back through the pool's ordinary result pipe.

The runner only computes: with a store configured, the flow's stages
call it on a store miss only (:mod:`repro.engine.stored`).

Worker failures follow one contract on both paths: a shard task that
raises surfaces in the parent as :class:`ShardTaskError` carrying the
shard identity and the flow it belonged to, and a shard that exceeds
``ExecutionConfig.shard_timeout`` fails the campaign loudly instead of
hanging the map.

Because the blocks own every random draw and every kernel energy
depends on its own input vector alone, the reduced result -- down to
the floating-point order of the accumulator merges -- is the same at
every shard size, worker count, executor and start method; the engine
tests pin that.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..flow.config import ExecutionConfig, FlowConfig
from ..flow.pipeline import DesignFlow, FlowError
from ..obs import capture_events
from .executors import _sample_gauges, map_payloads
from .sharding import Shard, plan_shards

__all__ = [
    "ShardTaskError",
    "run_trace_campaign",
    "run_assessment_campaign",
]


class ShardTaskError(FlowError):
    """A shard task failed; the message carries shard and flow context.

    Worker-side failures would otherwise surface as a bare re-pickled
    exception with no hint of *which* shard of *which* campaign died.
    The runner wraps them -- in the in-process loop exactly like on the
    process pool -- so the parent always sees the shard identity, the
    flow name and the original error.  ``__reduce__`` keeps the context
    attributes intact across the pool's exception pickling.
    """

    def __init__(
        self,
        message: str,
        shard_index: Optional[int] = None,
        flow_name: Optional[str] = None,
    ) -> None:
        super().__init__(message)
        self.shard_index = shard_index
        self.flow_name = flow_name

    def __reduce__(self):
        return (type(self), (self.args[0], self.shard_index, self.flow_name))


# ------------------------------------------------------------------ worker side

#: A flow as a worker receives it: the config as canonical JSON and the
#: custom expressions (``None`` for a scenario flow) as sorted
#: ``(name, str(expr))`` pairs.
_FlowSpec = Tuple[str, Optional[Tuple[Tuple[str, str], ...]]]

#: Per-process cache of reconstructed flows, keyed by the flow spec.
#: A pool worker may execute several shards of the same campaign (an
#: explicit small ``shard_size``, or a long campaign past the default
#: plan's 16-block cap) -- and, the pools being persistent, the same
#: campaign again later; caching the flow means the circuit is mapped
#: (and its ``CompiledProgram`` built) once per worker process, not once
#: per shard or once per ``map``.
_WORKER_FLOWS: Dict[_FlowSpec, DesignFlow] = {}

#: Upper bound on cached worker flows (sweeps cycle through many
#: configs; old entries are evicted FIFO).
_WORKER_FLOW_CACHE_SIZE = 8


def _flow_spec(flow: DesignFlow) -> _FlowSpec:
    """A picklable, hashable spec a worker rebuilds the flow from.

    The config travels as canonical JSON; custom expressions travel as
    their parseable string form (``parse(str(expr)) == expr``), since
    :class:`~repro.boolexpr.ast.Expr` objects deliberately do not
    pickle.  The execution config is *not* stripped here -- the worker
    resets it so shard tasks never re-enter the engine recursively.
    """
    config_json = json.dumps(flow.config.to_dict(), sort_keys=True)
    spec = flow._expression_spec
    expressions = (
        None
        if spec is None
        else tuple(sorted((name, str(expr)) for name, expr in spec.items()))
    )
    return config_json, expressions


def _flow_from_spec(spec: _FlowSpec) -> DesignFlow:
    flow = _WORKER_FLOWS.get(spec)
    if flow is None:
        config_json, expressions = spec
        config = FlowConfig.from_dict(json.loads(config_json))
        # Shard tasks must never fan out again from inside a worker.
        config = config.replace(execution=ExecutionConfig())
        flow = DesignFlow(
            dict(expressions) if expressions is not None else None, config
        )
        while len(_WORKER_FLOWS) >= _WORKER_FLOW_CACHE_SIZE:
            _WORKER_FLOWS.pop(next(iter(_WORKER_FLOWS)))
        _WORKER_FLOWS[spec] = flow
    return flow


#: A shard task's payload: the stage (``"traces"`` or
#: ``"assessment"``), the flow spec, the shard and the parent's routed
#: :class:`~repro.layout.CircuitLayout` (``None`` when the campaign is
#: not routed), so a worker never places and routes.
_ShardPayload = Tuple[str, _FlowSpec, Shard, Any]


def _shard_error(payload: _ShardPayload, exc: BaseException) -> ShardTaskError:
    """Wrap a shard's failure with shard and flow identity."""
    stage, (config_json, _), shard, _ = payload
    name: Any = "?"
    key: Any = None
    try:
        config = json.loads(config_json)
        name = config.get("name", "?")
        key = config.get("campaign", {}).get("key")
    except Exception:  # pragma: no cover - spec is always our own JSON
        pass
    campaign = f"flow {name!r}"
    if isinstance(key, int):
        campaign += f" (campaign key 0x{key:X})"
    return ShardTaskError(
        f"{stage} {shard.describe()} of {campaign} failed: "
        f"{type(exc).__name__}: {exc}",
        shard_index=shard.index,
        flow_name=name if isinstance(name, str) else None,
    )


def _shard_task(
    payload: _ShardPayload,
) -> Tuple[Any, Optional[List[Dict[str, Any]]]]:
    """Executed on a pool worker: run one shard of the payload's stage.

    A trace shard returns its ``(plaintexts, traces)`` arrays, an
    assessment shard the list of its per-block method sets.
    Observability events are buffered and returned *with* the result
    (see :func:`repro.obs.capture_events`): workers cannot share the
    parent's sinks, and piggybacking on the result keeps the map
    protocol -- and with it the determinism contract -- untouched.
    """
    stage, spec, shard, layout = payload
    flow = _flow_from_spec(spec)
    flow._adopt_layout(layout)
    with capture_events(flow.config.obs) as (_, events):
        if stage == "traces":
            result = flow._acquire_trace_shard(shard)
        else:
            result = list(flow._run_assessment_shard(shard))
    return result, events


# ------------------------------------------------------------------ map-reduce


def _map_stage(
    flow: DesignFlow, stage: str, shards, local, consume, total: int, unit: str
) -> None:
    """Map ``stage``'s shards through :func:`map_payloads`, in shard order.

    In process ``local(shard)`` runs against the *local* flow object
    (reusing its cached circuit); the pool ships the flow spec to the
    workers, which run :func:`_shard_task`.  A failed shard surfaces as
    :class:`ShardTaskError` with the same context on both paths.
    """
    spec = _flow_spec(flow)
    layout = flow._routed_layout()
    map_payloads(
        [(stage, spec, shard, layout) for shard in shards],
        _shard_task,
        lambda payload: local(payload[2]),
        consume,
        flow.config.execution,
        fail=_shard_error,
        observer=flow._observer(),
        obs_config=flow.config.obs,
        total=total,
        unit=unit,
    )


def _engine_details(execution: ExecutionConfig, shards) -> Dict[str, Any]:
    return {
        "executor": execution.resolved_executor,
        "workers": execution.workers,
        "shards": len(shards),
        "shard_size": shards[0].count,
    }


def run_trace_campaign(flow: DesignFlow) -> Tuple[Any, Dict[str, Any]]:
    """Acquire the flow's trace campaign as a sharded map-reduce.

    Returns ``(trace_set, details)``; the trace arrays are concatenated
    in block order, so the result is independent of the shard size,
    executor backend and worker count.
    """
    from ..power.trace import TraceSet

    campaign = flow.config.campaign
    execution = flow.config.execution
    shards = plan_shards(
        campaign.trace_count,
        execution.effective_shard_size(campaign.trace_count),
        campaign.seed,
    )
    with flow._observer().span(
        "engine.traces",
        shards=len(shards),
        executor=execution.resolved_executor,
        workers=execution.workers,
    ):
        parts: List[Tuple[np.ndarray, np.ndarray]] = []
        _map_stage(
            flow,
            "traces",
            shards,
            flow._acquire_trace_shard,
            parts.append,
            total=campaign.trace_count,
            unit="traces",
        )
        plaintexts = np.concatenate([part[0] for part in parts])
        traces = np.concatenate([part[1] for part in parts])
        _sample_gauges(flow._observer())
    trace_set = TraceSet(
        plaintexts=plaintexts,
        traces=traces,
        key=campaign.key,
        description=f"{flow.config.name} campaign",
    )
    return trace_set, _engine_details(execution, shards)


def run_assessment_campaign(
    flow: DesignFlow,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run the flow's assessment campaign as a sharded map-reduce.

    The result is the left fold, in block order, of one set of method
    accumulators per block, finalized once -- the same floating-point
    reduction at every shard size.  The parent merges each shard's
    per-block sets into the running methods: a pool shard returns them
    as a list, and in process each set is merged as the shard yields
    it.  Either way the parent holds the running methods and the shards
    in flight, never the whole campaign.  Returns ``(outcomes,
    details)``.
    """
    config = flow.config.assessment
    execution = flow.config.execution
    total = 2 * config.traces_per_class
    shards = plan_shards(total, execution.effective_shard_size(total), config.seed)
    methods = flow._fresh_assessment_methods()
    for name, method in methods.items():
        if not hasattr(method, "merge"):
            raise FlowError(
                f"assessment method {name!r} does not implement merge(); "
                f"every campaign block streams into its own accumulators, "
                f"so add a merge() to the method"
            )

    def merge_blocks(per_block: Iterable[Dict[str, Any]]) -> None:
        for other in per_block:
            for name, method in methods.items():
                method.merge(other[name])

    with flow._observer().span(
        "engine.assessment",
        shards=len(shards),
        executor=execution.resolved_executor,
        workers=execution.workers,
    ):
        _map_stage(
            flow,
            "assessment",
            shards,
            flow._run_assessment_shard,
            merge_blocks,
            total=len(shards),
            unit="shards",
        )
        _sample_gauges(flow._observer())
    outcomes = {name: method.finalize() for name, method in methods.items()}
    details = _engine_details(execution, shards)
    details["blocks"] = shards[-1].stop
    return outcomes, details
