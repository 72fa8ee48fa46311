"""The built-in benchmarks: engine, kernel, layout, scenarios.

These absorb the four ad-hoc drivers that used to live only under
``benchmarks/`` -- same campaigns, same keys, same recorded shapes (the
``results`` block of each :class:`~repro.perf.registry.BenchResult`
matches the committed ``BENCH_<name>.json`` files) -- but named in one
table, :data:`BENCHMARKS`, so ``repro bench run engine --quick`` and the
history store see them through one interface.  The pytest drivers remain
as thin wrappers that run the named benchmark and assert its acceptance
numbers.

``--quick`` shrinks trace counts (and the event backend's wide-circuit
cap) so a smoke run finishes in seconds; the *structure* -- worker
counts, S-box counts, routers -- never changes between modes, so quick
and full records share metric names and compare cleanly.
``$REPRO_BENCH_TRACES`` still overrides the full-mode trace count.

Correctness guards that must hold for the numbers to mean anything
(parallel campaigns bit-identical to serial) are checked *inside* the
runners and raise :class:`~repro.perf.registry.PerfError`; perf
acceptance thresholds (bitslice width-independence, store hit < miss)
stay in the pytest drivers, where a failure is a test failure rather
than a corrupted record.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from ..registry import lookup
from .registry import Benchmark, BenchResult, MetricSpec, PerfError

__all__ = ["BENCHMARKS", "get_benchmark", "benchmark_names"]


def _trace_count(full_default: int, quick_default: int, quick: bool) -> int:
    override = os.environ.get("REPRO_BENCH_TRACES")
    if override:
        return int(override)
    return quick_default if quick else full_default


# ---------------------------------------------------------------------------
# engine: sharded campaign execution and the artifact store


ENGINE_KEY = 0xB
ENGINE_SHARD_SIZE = 512
ENGINE_WORKER_COUNTS = (1, 2, 4)


def _run_engine(quick: bool) -> BenchResult:
    from ..engine import warm_pool
    from ..flow import CampaignConfig, DesignFlow, ExecutionConfig, FlowConfig

    traces = _trace_count(16000, 2000, quick)

    def campaign(workers: int, store=None):
        config = FlowConfig(
            name="bench_engine",
            campaign=CampaignConfig(
                key=ENGINE_KEY,
                trace_count=traces,
                network_style="fc",
                noise_std=0.002,
            ),
            execution=ExecutionConfig(
                workers=workers, shard_size=ENGINE_SHARD_SIZE, store=store
            ),
        )
        flow = DesignFlow.sbox(config=config)
        start = time.perf_counter()
        result = flow.traces()
        return result, time.perf_counter() - start

    elapsed: Dict[int, float] = {}
    reference = None
    for workers in ENGINE_WORKER_COUNTS:
        # The pools are persistent: warming one first keeps process
        # startup (paid once per interpreter, not once per map) out of
        # the campaign timing, which measures steady-state throughput.
        warm_pool(workers)
        result, seconds = campaign(workers)
        if reference is None:
            reference = result
        elif not np.array_equal(reference.traces, result.traces):
            raise PerfError(
                f"{workers}-worker campaign is not bit-identical to serial"
            )
        elapsed[workers] = seconds

    store_dir = tempfile.mkdtemp(prefix="bench_engine_store_")
    try:
        _, miss = campaign(1, store=store_dir)
        cached, hit = campaign(1, store=store_dir)
        if not np.array_equal(reference.traces, cached.traces):
            raise PerfError("store-cached campaign differs from the original")
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    serial = elapsed[1]
    metrics: Dict[str, float] = {}
    for workers, seconds in elapsed.items():
        metrics[f"tps_w{workers}"] = round(traces / seconds, 1)
        if workers != 1:
            metrics[f"speedup_w{workers}"] = round(serial / seconds, 3)
    metrics["store_miss_s"] = round(miss, 4)
    metrics["store_hit_s"] = round(hit, 4)
    metrics["store_speedup"] = round(miss / hit, 1)

    results = {
        "trace_count": traces,
        "shard_size": ENGINE_SHARD_SIZE,
        "traces_per_second": {
            str(workers): round(traces / seconds, 1)
            for workers, seconds in elapsed.items()
        },
        "speedup_vs_serial": {
            str(workers): round(serial / seconds, 3)
            for workers, seconds in elapsed.items()
        },
        "store_seconds": {
            "miss": round(miss, 4),
            "hit": round(hit, 4),
            "speedup": round(miss / hit, 1),
        },
    }
    params = {"trace_count": traces, "shard_size": ENGINE_SHARD_SIZE, "quick": quick}
    return BenchResult(metrics=metrics, results=results, params=params)


ENGINE_BENCHMARK = Benchmark(
    name="engine",
    description="sharded campaign throughput (1/2/4 workers) and "
    "artifact-store miss vs hit",
    metrics=(
        MetricSpec("tps_w1", "traces/s", description="serial acquisition rate"),
        MetricSpec("tps_w2", "traces/s", workers=2),
        MetricSpec("tps_w4", "traces/s", workers=4),
        MetricSpec("speedup_w2", "x", workers=2),
        MetricSpec("speedup_w4", "x", workers=4),
        MetricSpec(
            "store_miss_s", "s", higher_is_better=False,
            description="cold campaign: acquire + save",
        ),
        MetricSpec(
            "store_hit_s", "s", higher_is_better=False,
            description="warm campaign: load from store",
        ),
        MetricSpec("store_speedup", "x"),
    ),
    run=_run_engine,
)


# ---------------------------------------------------------------------------
# kernel: compiled-simulator throughput vs circuit width


KERNEL_SBOX_COUNTS = (1, 4, 16)
KERNEL_MODELS = ("event", "bitslice")
KERNEL_KEYS = {1: 0xB, 4: 0x2B51, 16: 0x0123_4567_89AB_CDEF}
KERNEL_BATCH_SIZE = 1024


def _run_kernel(quick: bool) -> BenchResult:
    from ..kernel import BitslicedCircuitEnergyModel, compile_circuit
    from ..power.trace import nibble_matrix
    from ..sabl.circuit import map_expressions
    from ..sabl.simulator import BatchedCircuitEnergyModel
    from ..scenarios import make_scenario

    traces = _trace_count(20000, 4000, quick)
    event_wide_cap = 200 if quick else 2000

    results: Dict[int, Dict[str, Any]] = {}
    for sboxes in KERNEL_SBOX_COUNTS:
        scenario = make_scenario(
            "present_round", key=KERNEL_KEYS[sboxes], params={"sboxes": sboxes}
        )
        circuit = map_expressions(
            scenario.expressions(),
            primary_inputs=[f"p{i}" for i in range(scenario.input_width)],
            network_style="fc",
            name=f"bench_kernel_{sboxes}",
        )
        width = scenario.input_width
        compile_start = time.perf_counter()
        program = compile_circuit(circuit)
        program.plan()  # include the bitslice plan in the compile cost
        compile_seconds = time.perf_counter() - compile_start
        rng = np.random.default_rng(2005)
        dtype = np.uint64 if width >= 64 else np.int64
        per_simulator: Dict[str, Dict[str, Any]] = {}
        for simulator in KERNEL_MODELS:
            count = (
                min(traces, event_wide_cap)
                if simulator == "event" and sboxes == max(KERNEL_SBOX_COUNTS)
                else traces
            )
            stimuli = rng.integers(0, 1 << min(width, 62), size=count).astype(dtype)
            matrix = nibble_matrix(stimuli, width)
            if simulator == "event":
                # The reference model the kernel is pinned against.
                model = BatchedCircuitEnergyModel(
                    circuit, technology=program.technology, tables=program.tables
                )
            else:
                model = BitslicedCircuitEnergyModel(program)
            model.energies(matrix[:64], batch_size=KERNEL_BATCH_SIZE)  # warm up
            start = time.perf_counter()
            energies = model.energies(matrix, batch_size=KERNEL_BATCH_SIZE)
            seconds = time.perf_counter() - start
            if energies.shape != (count,):
                raise PerfError(
                    f"{simulator} kernel returned {energies.shape}, "
                    f"expected ({count},)"
                )
            per_simulator[simulator] = {
                "traces": count,
                "seconds": seconds,
                "traces_per_second": count / seconds,
            }
        results[sboxes] = {
            "gates": len(circuit.gates),
            "compile_seconds": compile_seconds,
            "by_simulator": per_simulator,
        }

    narrow, wide = min(KERNEL_SBOX_COUNTS), max(KERNEL_SBOX_COUNTS)
    metrics: Dict[str, float] = {}
    ratios: Dict[str, float] = {}
    for simulator in KERNEL_MODELS:
        rate = {
            sboxes: results[sboxes]["by_simulator"][simulator]["traces_per_second"]
            for sboxes in KERNEL_SBOX_COUNTS
        }
        ratios[simulator] = rate[narrow] / rate[wide]
        for sboxes in KERNEL_SBOX_COUNTS:
            metrics[f"tps_{simulator}_{sboxes}sbox"] = round(rate[sboxes], 1)
    metrics["bitslice_narrow_over_wide"] = round(ratios["bitslice"], 3)
    metrics[f"compile_ms_{wide}sbox"] = round(
        results[wide]["compile_seconds"] * 1e3, 2
    )

    record = {
        "scenario": "present_round",
        "trace_count": traces,
        "batch_size": KERNEL_BATCH_SIZE,
        "event_wide_cap": event_wide_cap,
        "narrow_over_wide_ratio": {
            simulator: round(ratios[simulator], 3)
            for simulator in KERNEL_MODELS
        },
        "by_sbox_count": {
            str(sboxes): {
                "width_bits": 4 * sboxes,
                "gates": results[sboxes]["gates"],
                "compile_ms": round(results[sboxes]["compile_seconds"] * 1e3, 2),
                "traces_per_second": {
                    simulator: round(
                        results[sboxes]["by_simulator"][simulator][
                            "traces_per_second"
                        ],
                        1,
                    )
                    for simulator in KERNEL_MODELS
                },
            }
            for sboxes in KERNEL_SBOX_COUNTS
        },
    }
    params = {
        "trace_count": traces,
        "batch_size": KERNEL_BATCH_SIZE,
        "event_wide_cap": event_wide_cap,
        "quick": quick,
    }
    return BenchResult(metrics=metrics, results=record, params=params)


KERNEL_BENCHMARK = Benchmark(
    name="kernel",
    description="event vs bit-sliced simulator throughput across "
    "present_round widths",
    metrics=(
        MetricSpec("tps_event_1sbox", "traces/s"),
        MetricSpec("tps_event_4sbox", "traces/s"),
        MetricSpec("tps_event_16sbox", "traces/s"),
        MetricSpec("tps_bitslice_1sbox", "traces/s"),
        MetricSpec("tps_bitslice_4sbox", "traces/s"),
        MetricSpec("tps_bitslice_16sbox", "traces/s"),
        MetricSpec(
            "bitslice_narrow_over_wide", "x", higher_is_better=False,
            description="1-S-box rate over 16-S-box rate; ~1 means "
            "width-independent",
        ),
        MetricSpec("compile_ms_16sbox", "ms", higher_is_better=False),
    ),
    run=_run_kernel,
)


# ---------------------------------------------------------------------------
# layout: place+route cost and routed-campaign throughput


LAYOUT_ROUTERS = ("fat", "diffpair", "unbalanced")
LAYOUT_CIRCUITS: Tuple[Tuple[str, str, Dict[str, Any], int], ...] = (
    ("sbox", "sbox", {}, 0xB),
    ("present_round_2x", "present_round", {"sboxes": 2}, 0x6B),
)


def _run_layout(quick: bool) -> BenchResult:
    from ..flow import (
        CampaignConfig,
        DesignFlow,
        FlowConfig,
        LayoutConfig,
        ScenarioConfig,
    )

    traces = _trace_count(4000, 800, quick)
    circuits = LAYOUT_CIRCUITS[:1] if quick else LAYOUT_CIRCUITS

    def flow(name, scenario, params, key, router):
        return DesignFlow(
            None,
            FlowConfig(
                name=f"bench_layout_{name}_{router or 'none'}",
                campaign=CampaignConfig(
                    key=key, scenario=scenario, trace_count=traces
                ),
                scenario=ScenarioConfig(params=params),
                layout=LayoutConfig(router=router),
            ),
        )

    metrics: Dict[str, float] = {}
    record: Dict[str, Any] = {}
    for name, scenario, params, key in circuits:
        baseline_flow = flow(name, scenario, params, key, None)
        start = time.perf_counter()
        baseline_flow.traces()
        baseline = time.perf_counter() - start
        gates = baseline_flow.circuit().gate_count()
        per_router: Dict[str, Dict[str, Any]] = {
            "none": {
                "place_route_s": 0.0,
                "traces_per_second": round(traces / baseline, 1),
                "relative_throughput": 1.0,
            }
        }
        metrics[f"tps_none_{name}"] = round(traces / baseline, 1)
        for router in LAYOUT_ROUTERS:
            routed = flow(name, scenario, params, key, router)
            routed.circuit()  # keep synthesis out of the layout timing
            start = time.perf_counter()
            layout = routed.result("layout").value
            layout_elapsed = time.perf_counter() - start
            start = time.perf_counter()
            routed.traces()
            campaign_elapsed = time.perf_counter() - start
            per_router[router] = {
                "place_route_s": round(layout_elapsed, 4),
                "traces_per_second": round(traces / campaign_elapsed, 1),
                "relative_throughput": round(baseline / campaign_elapsed, 3),
                "wirelength_um": round(
                    layout.parasitics.total_wirelength_um(), 1
                ),
                "max_mismatch_fF": round(
                    layout.parasitics.max_mismatch() * 1e15, 4
                ),
            }
            metrics[f"place_route_s_{router}_{name}"] = round(layout_elapsed, 4)
            metrics[f"tps_{router}_{name}"] = round(traces / campaign_elapsed, 1)
        record[name] = {"gates": gates, "routers": per_router}

    results = {"trace_count": traces, "circuits": record}
    params = {
        "trace_count": traces,
        "circuits": [name for name, _, _, _ in circuits],
        "quick": quick,
    }
    return BenchResult(metrics=metrics, results=results, params=params)


def _layout_metric_specs() -> Tuple[MetricSpec, ...]:
    specs = []
    for name, _, _, _ in LAYOUT_CIRCUITS:
        specs.append(MetricSpec(f"tps_none_{name}", "traces/s"))
        for router in LAYOUT_ROUTERS:
            specs.append(
                MetricSpec(
                    f"place_route_s_{router}_{name}", "s", higher_is_better=False
                )
            )
            specs.append(MetricSpec(f"tps_{router}_{name}", "traces/s"))
    return tuple(specs)


LAYOUT_BENCHMARK = Benchmark(
    name="layout",
    description="place+route+extract seconds per router and routed-campaign "
    "throughput vs layout-free",
    metrics=_layout_metric_specs(),
    run=_run_layout,
)


# ---------------------------------------------------------------------------
# obs: observability overhead -- traced and live-channel vs untraced


OBS_KEY = 0xB
OBS_WORKERS = 2
OBS_SHARD_SIZE = 256


def _run_obs(quick: bool) -> BenchResult:
    from ..flow import (
        CampaignConfig,
        DesignFlow,
        ExecutionConfig,
        FlowConfig,
        ObservabilityConfig,
    )
    from ..engine import warm_pool
    from ..obs import observer_from_config, use_observer

    traces = _trace_count(8000, 1000, quick)

    def campaign(obs: "ObservabilityConfig"):
        config = FlowConfig(
            name="bench_obs",
            campaign=CampaignConfig(
                key=OBS_KEY, trace_count=traces, noise_std=0.002
            ),
            execution=ExecutionConfig(
                workers=OBS_WORKERS, shard_size=OBS_SHARD_SIZE
            ),
            obs=obs,
        )
        flow = DesignFlow.sbox(config=config)
        observer = observer_from_config(config.obs)
        start = time.perf_counter()
        try:
            with use_observer(observer):
                result = flow.traces()
        finally:
            observer.close()
        return result, time.perf_counter() - start

    warm_pool(OBS_WORKERS)  # keep pool startup out of every timing
    trace_dir = tempfile.mkdtemp(prefix="bench_obs_")
    try:
        untraced, untraced_s = campaign(ObservabilityConfig())
        traced, traced_s = campaign(
            ObservabilityConfig(
                trace=os.path.join(trace_dir, "buffered.jsonl"), verbosity=0
            )
        )
        live, live_s = campaign(
            ObservabilityConfig(
                trace=os.path.join(trace_dir, "live.jsonl"),
                verbosity=0,
                live=True,
                heartbeat_s=0.25,
            )
        )
        # The cardinal rule is part of what the numbers certify.
        if not np.array_equal(untraced.traces, traced.traces):
            raise PerfError("traced campaign is not bit-identical to untraced")
        if not np.array_equal(untraced.traces, live.traces):
            raise PerfError(
                "live-channel campaign is not bit-identical to untraced"
            )
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)

    metrics = {
        "untraced_tps": round(traces / untraced_s, 1),
        "traced_tps": round(traces / traced_s, 1),
        "live_tps": round(traces / live_s, 1),
        "overhead_ratio": round(traced_s / untraced_s, 3),
        "live_overhead_ratio": round(live_s / untraced_s, 3),
    }
    results = {
        "trace_count": traces,
        "workers": OBS_WORKERS,
        "shard_size": OBS_SHARD_SIZE,
        "seconds": {
            "untraced": round(untraced_s, 4),
            "traced": round(traced_s, 4),
            "live": round(live_s, 4),
        },
        "traces_per_second": {
            "untraced": metrics["untraced_tps"],
            "traced": metrics["traced_tps"],
            "live": metrics["live_tps"],
        },
        "overhead_ratio": {
            "traced": metrics["overhead_ratio"],
            "live": metrics["live_overhead_ratio"],
        },
    }
    params = {
        "trace_count": traces,
        "workers": OBS_WORKERS,
        "shard_size": OBS_SHARD_SIZE,
        "quick": quick,
    }
    return BenchResult(metrics=metrics, results=results, params=params)


OBS_BENCHMARK = Benchmark(
    name="obs",
    description="observability overhead: buffered-trace and live-channel "
    "campaign throughput vs untraced (bit-identity checked)",
    metrics=(
        MetricSpec("untraced_tps", "traces/s", workers=OBS_WORKERS),
        MetricSpec("traced_tps", "traces/s", workers=OBS_WORKERS),
        MetricSpec("live_tps", "traces/s", workers=OBS_WORKERS),
        MetricSpec(
            "overhead_ratio", "x", higher_is_better=False,
            description="traced seconds over untraced seconds; ~1 means "
            "tracing is free",
        ),
        MetricSpec(
            "live_overhead_ratio", "x", higher_is_better=False,
            description="live-channel seconds over untraced seconds",
        ),
    ),
    run=_run_obs,
)


# ---------------------------------------------------------------------------
# scenarios: round-datapath throughput vs width and workers


SCENARIO_SBOX_COUNTS = (1, 2, 4)
SCENARIO_WORKER_COUNTS = (1, 4)
SCENARIO_KEYS = {1: 0xB, 2: 0x6B, 4: 0x2B51}
SCENARIO_SHARD_SIZE = 256
SCENARIO_MIN_SHARD_SIZE = 500


def _run_scenarios(quick: bool) -> BenchResult:
    from ..engine import warm_pool
    from ..flow import (
        CampaignConfig,
        DesignFlow,
        ExecutionConfig,
        FlowConfig,
        ScenarioConfig,
    )

    traces = _trace_count(4000, 1000, quick)

    def flow(sboxes, workers):
        return DesignFlow(
            None,
            FlowConfig(
                name=f"bench_scenario_{sboxes}",
                campaign=CampaignConfig(
                    key=SCENARIO_KEYS[sboxes],
                    scenario="present_round",
                    trace_count=traces,
                    noise_std=0.002,
                ),
                scenario=ScenarioConfig(params={"sboxes": sboxes}),
                execution=ExecutionConfig(
                    workers=workers,
                    shard_size=SCENARIO_SHARD_SIZE,
                    min_shard_size=SCENARIO_MIN_SHARD_SIZE,
                ),
            ),
        )

    metrics: Dict[str, float] = {}
    record: Dict[str, Any] = {}
    for sboxes in SCENARIO_SBOX_COUNTS:
        per_worker: Dict[int, float] = {}
        reference = None
        for workers in SCENARIO_WORKER_COUNTS:
            warm_pool(workers)  # keep pool startup out of the timing
            start = time.perf_counter()
            traces_result = flow(sboxes, workers).traces()
            seconds = time.perf_counter() - start
            if reference is None:
                reference = traces_result
            elif not np.array_equal(reference.traces, traces_result.traces):
                raise PerfError(
                    f"{workers}-worker {sboxes}-S-box campaign is not "
                    f"bit-identical to serial"
                )
            per_worker[workers] = seconds
        serial = per_worker[SCENARIO_WORKER_COUNTS[0]]
        for workers, seconds in per_worker.items():
            metrics[f"tps_{sboxes}sbox_w{workers}"] = round(traces / seconds, 1)
            if workers != 1:
                metrics[f"speedup_{sboxes}sbox_w{workers}"] = round(
                    serial / seconds, 3
                )
        record[str(sboxes)] = {
            "width_bits": 4 * sboxes,
            "traces_per_second": {
                str(workers): round(traces / seconds, 1)
                for workers, seconds in per_worker.items()
            },
            "speedup_vs_serial": {
                str(workers): round(serial / seconds, 3)
                for workers, seconds in per_worker.items()
            },
        }

    results = {
        "scenario": "present_round",
        "trace_count": traces,
        "shard_size": SCENARIO_SHARD_SIZE,
        "min_shard_size": SCENARIO_MIN_SHARD_SIZE,
        "by_sbox_count": record,
    }
    params = {"trace_count": traces, "quick": quick}
    return BenchResult(metrics=metrics, results=results, params=params)


def _scenario_metric_specs() -> Tuple[MetricSpec, ...]:
    specs = []
    for sboxes in SCENARIO_SBOX_COUNTS:
        for workers in SCENARIO_WORKER_COUNTS:
            spec_workers = workers if workers != 1 else None
            specs.append(
                MetricSpec(
                    f"tps_{sboxes}sbox_w{workers}", "traces/s",
                    workers=spec_workers,
                )
            )
            if workers != 1:
                specs.append(
                    MetricSpec(
                        f"speedup_{sboxes}sbox_w{workers}", "x", workers=workers
                    )
                )
    return tuple(specs)


SCENARIOS_BENCHMARK = Benchmark(
    name="scenarios",
    description="present_round campaign throughput per S-box count at "
    "1 and 4 workers",
    metrics=_scenario_metric_specs(),
    run=_run_scenarios,
)


#: The built-in benchmarks, keyed by name.
BENCHMARKS: Dict[str, Benchmark] = {
    benchmark.name: benchmark
    for benchmark in (
        ENGINE_BENCHMARK,
        KERNEL_BENCHMARK,
        LAYOUT_BENCHMARK,
        OBS_BENCHMARK,
        SCENARIOS_BENCHMARK,
    )
}


def get_benchmark(name: str) -> Benchmark:
    """The benchmark named ``name``."""
    return lookup(BENCHMARKS, "benchmark", name)


def benchmark_names() -> List[str]:
    """Benchmark names, sorted."""
    return sorted(BENCHMARKS)
