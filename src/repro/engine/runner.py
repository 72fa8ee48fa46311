"""The campaign runner: map shards in process or on a pool, reduce.

Every ``traces`` and ``assessment`` stage runs here, as a deterministic
map-reduce over the campaign's fixed block stream:

1. **plan** -- the campaign's blocks (:func:`repro.power.trace.campaign_blocks`,
   each with its own spawned ``SeedSequence``) are grouped into shards
   of whole consecutive blocks (:mod:`repro.engine.sharding`);
2. **map** -- each shard runs in an in-process loop or on the warm
   process pool (:mod:`repro.engine.executors`).  A run that sets no
   shard size is one task covering every block in process, and one
   shard per worker on a pool
   (:meth:`~repro.flow.config.ExecutionConfig.effective_shard_size`).
   Worker processes rebuild the flow from its config dict and build the
   circuit themselves -- the parent of an unrouted campaign maps none,
   and a routed campaign's parent ships its layout with the shard
   tasks, so no worker places and routes --
   caching the flow per process (the pools are *persistent*, so a
   repeated campaign finds its circuit warm, sweep cell after sweep
   cell);
3. **reduce** -- trace blocks are concatenated in block order; an
   assessment shard on the pool returns one set of method accumulators
   per block, and the parent ``merge()``-s them left to right in block
   order as they arrive (in process each block updates the running
   accumulators directly, the same arithmetic).

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
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..flow.config import ExecutionConfig, FlowConfig
from ..flow.pipeline import DesignFlow, FlowError
from ..obs import capture_events, rss_bytes
from .executors import ShardTimeoutError, _map_on_pool, warm_pool_stats
from .sharding import Shard, plan_shards

__all__ = [
    "ShardTaskError",
    "run_trace_campaign",
    "run_assessment_campaign",
    "sample_resource_gauges",
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

#: Per-process cache of reconstructed flows, keyed by the flow spec.
#: A pool worker may execute several shards of the same campaign (an
#: explicit small ``shard_size``, or a long campaign past the default
#: plan's 16-block cap) -- and, the pools being persistent, the same
#: campaign again later; caching the flow means the circuit is mapped
#: (and its ``CompiledProgram`` built) once per worker process, not once
#: per shard or once per ``map``.
_WORKER_FLOWS: Dict[Tuple[str, Optional[Tuple[Tuple[str, str], ...]]], DesignFlow] = {}

#: Upper bound on cached worker flows (sweeps cycle through many
#: configs; old entries are evicted FIFO).
_WORKER_FLOW_CACHE_SIZE = 8


def _flow_spec(flow: DesignFlow) -> Tuple[str, Optional[Tuple[Tuple[str, str], ...]]]:
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


def _flow_from_spec(
    spec: Tuple[str, Optional[Tuple[Tuple[str, str], ...]]]
) -> DesignFlow:
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


def _shard_error(
    stage: str, spec: Tuple[str, Any], shard, exc: BaseException
) -> ShardTaskError:
    """Wrap a worker-side failure with shard and flow identity."""
    config_json, _ = spec
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


#: A shard task's payload: the flow spec, the shard and the parent's
#: routed :class:`~repro.layout.CircuitLayout` (``None`` when the
#: campaign is not routed), so a worker never places and routes.
_ShardPayload = Tuple[Tuple[str, Optional[Tuple[Tuple[str, str], ...]]], Shard, Any]


def _trace_shard_task(
    payload: _ShardPayload,
) -> Tuple[Tuple[np.ndarray, np.ndarray], Optional[List[Dict[str, Any]]]]:
    """Executed on a pool worker: acquire one trace shard.

    Observability events are buffered and returned *with* the shard
    payload (see :func:`repro.obs.capture_events`): workers cannot share
    the parent's sinks, and piggybacking on the result keeps the
    executor protocol -- and with it the determinism contract --
    untouched.  Any failure is re-raised as :class:`ShardTaskError`
    with the shard's identity.
    """
    spec, shard, layout = payload
    try:
        flow = _flow_from_spec(spec)
        flow._adopt_layout(layout)
        with capture_events(flow.config.obs) as (_, events):
            result = flow._acquire_trace_shard(shard)
    except Exception as exc:
        raise _shard_error("traces", spec, shard, exc) from exc
    return result, events


def _assessment_shard_task(
    payload: _ShardPayload,
) -> Tuple[List[Dict[str, Any]], Optional[List[Dict[str, Any]]]]:
    """Executed on a pool worker: stream one assessment shard.

    Like :func:`_trace_shard_task`, buffered observability events ride
    back with the result and failures wrap into :class:`ShardTaskError`.
    """
    spec, shard, layout = payload
    try:
        flow = _flow_from_spec(spec)
        flow._adopt_layout(layout)
        with capture_events(flow.config.obs) as (_, events):
            result = flow._run_assessment_shard(shard)
    except Exception as exc:
        raise _shard_error("assessment", spec, shard, exc) from exc
    return result, events


# ------------------------------------------------------------------ map-reduce


def _sample_gauges(obs: Any) -> None:
    """Sample engine resource state into ``obs`` (no-op when inactive)."""
    if not obs.active:
        return
    pools, pool_workers = warm_pool_stats()
    obs.gauge("executor.pools", pools)
    obs.gauge("executor.pool_workers", pool_workers)
    obs.gauge("proc.rss_mb", round(rss_bytes() / 1e6, 1))


def sample_resource_gauges(flow: DesignFlow) -> None:
    """Sample the engine's resource state into the flow observer.

    It emits gauge events for the warm pool state (``executor.pools`` /
    ``executor.pool_workers``) and the parent's RSS (``proc.rss_mb``),
    all O(1) reads.  The artifact store is not sampled: its on-disk
    size takes a walk of every entry (``repro store stats``), and its
    accesses already reach the trace as ``store.hit`` / ``store.miss``
    / ``store.write`` counters.  Observability only -- reads engine
    state, never changes it; a no-op when the flow's observer is
    inactive.
    """
    _sample_gauges(flow._observer())


def _map_shards(flow: DesignFlow, task, local, shards, consume) -> None:
    """Run shard tasks in shard order: in process or on the warm pool.

    In process ``local(shard)`` runs against the *local* flow object
    (reusing its cached circuit); the pool ships the flow spec to the
    workers, which run ``task``.  Each shard's result goes to
    ``consume`` as soon as it is next in shard order, so a fold holds
    only the shards in flight.  Both paths surface a failed shard as
    :class:`ShardTaskError` with the same context.
    """
    execution = flow.config.execution
    stage = "traces" if task is _trace_shard_task else "assessment"
    if not execution.pooled:
        for shard in shards:
            try:
                result = local(shard)
            except Exception as exc:
                raise _shard_error(stage, _flow_spec(flow), shard, exc) from exc
            consume(result)
        return
    spec = _flow_spec(flow)
    layout = flow._routed_layout()
    if task is _trace_shard_task:
        total, unit = sum(shard.count for shard in shards), "traces"
    else:
        total, unit = len(shards), "shards"
    try:
        _map_on_pool(
            task,
            [(spec, shard, layout) for shard in shards],
            execution,
            flow.config.obs,
            flow._observer(),
            total=total,
            unit=unit,
            resource_sampler=lambda: sample_resource_gauges(flow),
            consume=lambda result: consume(result[0]),
        )
    except ShardTimeoutError as exc:
        raise _shard_error(stage, spec, shards[exc.payload_index], exc) from exc


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
        _map_shards(
            flow, _trace_shard_task, flow._acquire_trace_shard, shards, parts.append
        )
        plaintexts = np.concatenate([part[0] for part in parts])
        traces = np.concatenate([part[1] for part in parts])
        sample_resource_gauges(flow)
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
    reduction at every shard size.  A pool shard returns its per-block
    sets and the parent merges them into the running methods as they
    arrive; in process each block updates the running methods directly,
    which is the same arithmetic.  Either way the parent holds the
    running methods and the shards in flight, never the whole campaign.
    Returns ``(outcomes, details)``.
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

    def merge_blocks(per_block: List[Dict[str, Any]]) -> None:
        for other in per_block:
            for name, method in methods.items():
                method.merge(other[name])

    with flow._observer().span(
        "engine.assessment",
        shards=len(shards),
        executor=execution.resolved_executor,
        workers=execution.workers,
    ):
        _map_shards(
            flow,
            _assessment_shard_task,
            lambda shard: flow._run_assessment_shard(shard, methods),
            shards,
            merge_blocks,
        )
        sample_resource_gauges(flow)
    outcomes = {name: method.finalize() for name, method in methods.items()}
    details = _engine_details(execution, shards)
    details["blocks"] = shards[-1].stop
    return outcomes, details
