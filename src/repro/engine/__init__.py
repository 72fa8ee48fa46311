"""Sharded campaign execution: parallel runner, artifact store, sweeps.

The engine is the layer between the :mod:`repro.flow` pipeline API and
the compute kernels.  It splits campaigns into deterministic shards
(per-shard random streams via ``numpy.random.SeedSequence.spawn``),
executes them in an in-process loop or on a warm ``multiprocessing``
pool, map-reduces the shard outputs -- trace blocks
concatenate in shard order, assessment accumulators ``merge()`` -- and
caches stage results in a content-addressed disk store so sweeps and
re-runs skip acquisition.

It is driven from three places:

* transparently by :meth:`repro.flow.DesignFlow.run`, once
  :class:`repro.flow.ExecutionConfig` activates it::

      config = FlowConfig(execution=ExecutionConfig(workers=4, store="./artifacts"))
      DesignFlow.sbox(0xB, config=config).run()   # traces + assessment fan out

* by the sweep driver, :func:`run_sweep`, which runs grids of flow
  configs across worker processes against one shared store;
* by the ``repro`` console script (:mod:`repro.engine.cli`).

Parallel execution is *bit-identical* to serial execution of the same
shard plan: the plan depends only on the config, never on the worker
count, and the reduce preserves shard order.
"""

from .executors import (
    ExecutorError,
    ProcessPoolExecutor,
    ShardTimeoutError,
    default_start_method,
    shutdown_pools,
    warm_pool,
    warm_pool_stats,
)
from .runner import (
    ShardTaskError,
    assessment_store_record,
    run_assessment_campaign,
    run_trace_campaign,
    sample_resource_gauges,
    trace_store_record,
)
from .sharding import AssessmentShard, Shard, plan_assessment_shards, plan_shards
from .store import ArtifactStore, content_key
from .sweep import SweepReport, build_grid, run_sweep

__all__ = [
    # sharding
    "Shard",
    "AssessmentShard",
    "plan_shards",
    "plan_assessment_shards",
    # executors
    "ExecutorError",
    "ShardTimeoutError",
    "ProcessPoolExecutor",
    "default_start_method",
    "warm_pool",
    "warm_pool_stats",
    "shutdown_pools",
    # runner
    "ShardTaskError",
    "run_trace_campaign",
    "run_assessment_campaign",
    "trace_store_record",
    "assessment_store_record",
    "sample_resource_gauges",
    # store
    "ArtifactStore",
    "content_key",
    # sweep
    "SweepReport",
    "build_grid",
    "run_sweep",
]
