"""Extension E -- sharded campaign execution and the artifact store.

The engine's pitch is throughput: campaigns map-reduce over worker
processes (bit-identical to serial execution of the same shard plan)
and sweeps skip re-acquisition through the content-addressed artifact
store.  The measurement itself lives in the built-in ``engine``
benchmark (:mod:`repro.perf.builtin`); this driver runs it under
pytest-benchmark, prints the record, refreshes ``BENCH_engine.json``,
appends the run to ``PERF_HISTORY.jsonl`` and asserts the acceptance
numbers.

Campaign size scales with ``$REPRO_BENCH_TRACES``; ``REPRO_BENCH_QUICK=1``
switches to the benchmark's quick mode.  The parallel speedup assertion
only applies when the host actually has the cores (>= 4); the records
keep whatever was measured either way.
"""

import os

from repro.perf import append_history, cpus_available, get_benchmark, run_benchmark
from repro.reporting import format_bench_record, write_benchmark_json

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"


def test_engine_scaling_and_store(benchmark):
    bench = get_benchmark("engine")
    record = benchmark.pedantic(
        lambda: run_benchmark(bench, quick=QUICK), rounds=1, iterations=1
    )
    print()
    print(format_bench_record(record))
    write_benchmark_json("engine", record["results"])
    append_history(record)

    metrics = {name: entry["value"] for name, entry in record["metrics"].items()}
    assert metrics["store_hit_s"] < metrics["store_miss_s"], (
        "a store hit must beat re-acquisition"
    )
    if cpus_available() >= 4:
        assert metrics["speedup_w4"] > 1.5, (
            f"4 workers should beat serial by >1.5x on a >=4-core host, "
            f"got {metrics['speedup_w4']:.2f}x"
        )
