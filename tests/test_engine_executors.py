"""Executor hardening: persistent pools, failure injection, start methods.

Pins the contracts of the one map path,
:func:`repro.engine.executors.map_payloads`:

* worker pools are persistent (same worker pids across maps) and
  reclaimable via ``shutdown_pools``;
* a shard task that raises surfaces as :class:`ShardTaskError` with
  shard and flow context both in process and on the pool;
* a worker that dies mid-shard trips the per-shard timeout
  (:class:`ShardTimeoutError`) instead of hanging the map, and the
  broken pool is evicted so the next map starts fresh;
* an empty payload list maps to nothing on both paths;
* spawn-started pools match fork-started pools bit for bit.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro
from repro.engine import (
    ShardTaskError,
    ShardTimeoutError,
    default_start_method,
    shutdown_pools,
    warm_pool,
    warm_pool_stats,
)
from repro.engine.executors import _WARM_POOLS, map_payloads
from repro.flow import (
    ASSESSMENTS,
    AssessmentConfig,
    CampaignConfig,
    ConfigError,
    DesignFlow,
    ExecutionConfig,
    FlowConfig,
    ObservabilityConfig,
    TechnologyConfig,
)
from repro.obs import NULL_OBSERVER, BufferSink, Observer

TRACES = 48
SHARD = 16


def _sbox_flow(execution, technology=TechnologyConfig(), **campaign):
    config = FlowConfig(
        name="executor_test",
        technology=technology,
        campaign=CampaignConfig(
            key=0xB, trace_count=TRACES, noise_std=0.01, **campaign
        ),
        execution=execution,
    )
    return DesignFlow.sbox(config=config)


POOLED = ExecutionConfig(workers=2)
IN_PROCESS = ExecutionConfig()


# Module-level so they pickle into pool workers.  A task returns
# ``(result, events)``; these buffer no events.


def _echo(payload):
    return payload, None


def _boom(payload):
    raise ValueError(f"injected failure for {payload!r}")


def _die(_payload):
    # Simulates a worker killed mid-shard (OOM killer, segfault): the
    # process vanishes without returning a result or an exception.
    os._exit(13)


def _pid_slow(_payload):
    # Slow enough that one worker cannot swallow the whole map before
    # its sibling finishes booting -- pid-set comparisons across maps
    # need every worker to actually participate.
    time.sleep(0.1)
    return os.getpid(), None


class PayloadFailed(RuntimeError):
    pass


def _fail(payload, exc):
    return PayloadFailed(f"payload {payload!r} failed: {exc}")


def _map(task, payloads, execution=POOLED, observer=NULL_OBSERVER):
    """``map_payloads`` over ``payloads``, its results as a list."""
    results = []
    map_payloads(
        payloads,
        task,
        lambda payload: task(payload)[0],
        results.append,
        execution,
        fail=_fail,
        observer=observer,
        obs_config=ObservabilityConfig(),
        total=len(payloads),
        unit="payloads",
    )
    return results


class TestExecutorBasics:
    def test_empty_payload_map_is_empty_on_every_backend(self):
        assert _map(_echo, [], IN_PROCESS) == []
        assert _map(_echo, [], POOLED) == []

    def test_results_come_back_in_payload_order(self):
        assert _map(_echo, list(range(7))) == list(range(7))
        assert _map(_echo, list(range(7)), IN_PROCESS) == list(range(7))

    def test_task_exception_reraises_in_parent(self):
        # ``fail`` wraps the error in the worker, naming the payload, and
        # in process the same way.
        for execution in (POOLED, IN_PROCESS):
            with pytest.raises(PayloadFailed, match="payload 1 failed: injected"):
                _map(_boom, [1, 2], execution)
        # The pool survives a task error and stays warm.
        assert _map(_echo, [3]) == [3]

    def test_invalid_construction_is_rejected(self, monkeypatch):
        with pytest.raises(ConfigError, match="workers"):
            ExecutionConfig(workers=0)
        with pytest.raises(ConfigError, match="start_method"):
            ExecutionConfig(workers=2, start_method="warp-drive")
        with pytest.raises(ConfigError, match="shard_timeout"):
            ExecutionConfig(workers=2, shard_timeout=0.0)
        # A known start method this platform lacks fails when the pool
        # would be built, so configs stay portable.
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(ValueError, match="not available on this platform"):
            _map(_echo, [1], ExecutionConfig(workers=2, start_method="fork"))

    def test_default_start_method_is_explicit(self):
        method = default_start_method()
        assert method in multiprocessing.get_all_start_methods()
        buffer = []
        _map(_echo, [1, 2], observer=Observer((BufferSink(buffer),)))
        (span,) = [
            event
            for event in buffer
            if event["kind"] == "span.end" and event["name"] == "executor.map"
        ]
        assert span["attrs"]["start_method"] == method
        assert (method, 2) in _WARM_POOLS


_SERIAL_THEN_POOLED = textwrap.dedent(
    """
    import sys
    from repro.engine import run_sweep
    from repro.flow import AssessmentConfig, CampaignConfig, DesignFlow
    from repro.flow import ExecutionConfig, FlowConfig

    def config(execution):
        return FlowConfig(
            campaign=CampaignConfig(trace_count=300),
            assessment=AssessmentConfig(enabled=True, traces_per_class=150),
            execution=execution,
        )

    def run(execution):
        if sys.argv[1] == "sweep":
            run_sweep(config(execution), {"gate_style": ["sabl", "cvsl"]})
        else:
            DesignFlow.sbox(0xB, config=config(execution)).run()

    run(ExecutionConfig(shard_size=256))
    print("multiprocessing.pool" in sys.modules)
    run(ExecutionConfig(workers=2))
    print("multiprocessing.pool" in sys.modules)
    """
)


class TestImports:
    @pytest.mark.parametrize("entry", ["run", "sweep"])
    def test_a_serial_campaign_imports_no_pool(self, entry):
        # ``multiprocessing.pool`` is imported where a pool starts, so a
        # process that only runs in-process campaigns or sweeps never
        # pays for it; the pooled run that follows does import it.
        source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, PYTHONPATH=source)
        done = subprocess.run(
            [sys.executable, "-c", _SERIAL_THEN_POOLED, entry],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "True"]


class TestPersistentPools:
    def test_pool_persists_across_map_calls(self):
        first = set(_map(_pid_slow, range(8)))
        second = set(_map(_pid_slow, range(8)))
        assert first == second  # same worker processes, not a new pool
        assert not first & {os.getpid()}  # and actually out of process

    def test_two_configs_of_one_shape_share_one_pool(self):
        a = set(_map(_pid_slow, range(8)))
        b = set(_map(_pid_slow, range(8), POOLED.replace(shard_timeout=60.0)))
        assert a == b

    def test_warm_pool_and_shutdown(self):
        shutdown_pools()
        assert _WARM_POOLS == {}
        assert warm_pool_stats() == (0, 0)
        warm_pool(2)
        assert (default_start_method(), 2) in _WARM_POOLS
        assert warm_pool_stats() == (1, 2)
        warm_pool(1)  # no pool needed for one worker
        assert (default_start_method(), 1) not in _WARM_POOLS
        shutdown_pools()
        assert _WARM_POOLS == {}
        assert warm_pool_stats() == (0, 0)


class TestWorkerDeath:
    def test_dead_worker_times_out_instead_of_hanging(self):
        with pytest.raises(PayloadFailed, match="payload 0 failed") as excinfo:
            _map(_die, [0, 1], POOLED.replace(shard_timeout=3.0))
        timeout = excinfo.value.__cause__
        assert isinstance(timeout, ShardTimeoutError)
        assert timeout.payload_index == 0
        assert timeout.timeout == 3.0
        # The broken pool was evicted: a fresh map works again.
        assert _map(_echo, [7]) == [7]

    def test_timeout_error_pickles_with_context(self):
        import pickle

        error = pickle.loads(pickle.dumps(ShardTimeoutError(3, 2.5)))
        assert error.payload_index == 3 and error.timeout == 2.5
        assert "payload 3 did not complete within 2.5s" in str(error)


class TestShardTaskFailureInjection:
    """A shard task that raises, on both backends, with shard context."""

    @pytest.fixture()
    def boom_method(self, monkeypatch):
        class BoomMethod:
            def update(self, chunk):
                raise RuntimeError("injected assessment failure")

            def merge(self, other):  # pragma: no cover - never reached
                pass

            def finalize(self):  # pragma: no cover - never reached
                return {}

        monkeypatch.setitem(ASSESSMENTS, "boom", lambda config: BoomMethod())

    def _assessed_flow(self, execution):
        config = FlowConfig(
            name="boom_flow",
            campaign=CampaignConfig(key=0xB, trace_count=TRACES),
            assessment=AssessmentConfig(
                enabled=True, methods=("boom",), traces_per_class=40
            ),
            execution=execution,
        )
        return DesignFlow.sbox(config=config)

    def test_serial_backend_wraps_with_shard_context(self, boom_method):
        flow = self._assessed_flow(ExecutionConfig(workers=1, shard_size=20))
        with pytest.raises(ShardTaskError) as excinfo:
            flow.assessment()
        assert excinfo.value.shard_index == 0
        assert excinfo.value.flow_name == "boom_flow"
        assert "assessment shard 0" in str(excinfo.value)

    def test_process_backend_wraps_with_shard_context(self, boom_method):
        # Persistent pools forked before the fixture ran do not know the
        # "boom" method; pools forked after do.  Either way the task
        # fails *in the worker* and must surface as a ShardTaskError
        # carrying the shard identity -- that indifference is the point.
        flow = self._assessed_flow(ExecutionConfig(workers=2, shard_size=20))
        with pytest.raises(ShardTaskError) as excinfo:
            flow.assessment()
        assert excinfo.value.shard_index is not None
        assert excinfo.value.flow_name == "boom_flow"
        assert "assessment shard" in str(excinfo.value)

    def test_in_process_failure_names_the_campaign_without_a_flow_spec(
        self, boom_method, monkeypatch
    ):
        import repro.engine.runner as runner

        def refuse(flow):
            raise AssertionError("an in-process map must not build a flow spec")

        monkeypatch.setattr(runner, "_flow_spec", refuse)
        flow = self._assessed_flow(ExecutionConfig(workers=1, shard_size=20))
        with pytest.raises(ShardTaskError) as excinfo:
            flow.assessment()
        assert "of flow 'boom_flow' (campaign key 0xB) failed" in str(excinfo.value)

    def test_shard_task_error_pickles_with_context(self):
        import pickle

        error = pickle.loads(
            pickle.dumps(ShardTaskError("msg", shard_index=4, flow_name="f"))
        )
        assert error.shard_index == 4 and error.flow_name == "f"


class TestStartMethods:
    def test_spawn_matches_fork_and_serial_bitwise(self):
        # A custom card is a built-in plus overrides: config pickles into
        # the workers, so it reaches spawn-started ones too.
        custom = TechnologyConfig(name="generic_65nm", overrides={"vdd": 0.9})
        runs = {}
        for technology in (TechnologyConfig(), custom):
            serial = _sbox_flow(
                ExecutionConfig(workers=1, shard_size=SHARD), technology
            ).traces()
            fork = _sbox_flow(
                ExecutionConfig(workers=2, shard_size=SHARD, start_method="fork"),
                technology,
            ).traces()
            spawn = _sbox_flow(
                ExecutionConfig(workers=2, shard_size=SHARD, start_method="spawn"),
                technology,
            ).traces()
            assert np.array_equal(serial.traces, fork.traces)
            assert np.array_equal(serial.traces, spawn.traces)
            assert np.array_equal(serial.plaintexts, spawn.plaintexts)
            runs[technology.name] = serial.traces
        assert not np.array_equal(runs["generic_180nm"], runs["generic_65nm"])

    def test_execution_config_validates_the_start_method(self):
        with pytest.raises(ConfigError, match="start_method"):
            ExecutionConfig(start_method="threads")
        with pytest.raises(ConfigError, match="'serial', 'process'"):
            ExecutionConfig(executor="threads")
        with pytest.raises(ConfigError, match="shard_timeout"):
            ExecutionConfig(shard_timeout=-1.0)
        # Round-trips like every other config field.
        config = ExecutionConfig(workers=2, start_method="spawn", shard_timeout=30.0)
        assert ExecutionConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ConfigError, match="shared_memory"):
            ExecutionConfig.from_dict({"shared_memory": True})
