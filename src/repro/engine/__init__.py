"""Sharded campaign execution: parallel runner, artifact store, sweeps.

The engine is the layer between the :mod:`repro.flow` pipeline API and
the compute kernels.  It groups a campaign's fixed block stream (one
``numpy.random.SeedSequence.spawn`` child per block) into shards,
executes them in an in-process loop or on a warm ``multiprocessing``
pool, map-reduces the shard outputs -- trace blocks concatenate in
block order, per-block assessment accumulators ``merge()`` in block
order -- and caches stage results in a content-addressed disk store so
sweeps and re-runs skip acquisition.

It is driven from three places:

* by :meth:`repro.flow.DesignFlow.run`, whose ``traces`` and
  ``assessment`` stages always run through the runner, shaped by
  :class:`repro.flow.ExecutionConfig`::

      config = FlowConfig(execution=ExecutionConfig(workers=4, store="./artifacts"))
      DesignFlow.sbox(0xB, config=config).run()   # traces + assessment fan out

* by the sweep driver, :func:`run_sweep`, which runs grids of flow
  configs across worker processes against one shared store;
* by the ``repro`` console script (:mod:`repro.engine.cli`).

Every execution of a campaign is *bit-identical*: the blocks own every
random draw, so neither the shard size nor the worker count, executor
or start method changes a result or a store key.
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
    run_assessment_campaign,
    run_trace_campaign,
    sample_resource_gauges,
)
from .sharding import Shard, plan_shards
from .store import ArtifactStore, content_key
from .stored import store_record
from .sweep import SweepReport, build_grid, run_sweep

__all__ = [
    # sharding
    "Shard",
    "plan_shards",
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
    "sample_resource_gauges",
    # store
    "ArtifactStore",
    "content_key",
    # stored stages
    "store_record",
    # sweep
    "SweepReport",
    "build_grid",
    "run_sweep",
]
