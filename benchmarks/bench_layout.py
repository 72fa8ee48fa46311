"""Extension G -- back-end cost: place+route seconds and routed traces/s.

The layout stage runs once per flow and its parasitics ride along with
every trace; the built-in ``layout`` benchmark
(:mod:`repro.perf.builtin`) measures both sides of that bargain --
place+route+extract wall clock per router, and routed-campaign
throughput against the layout-free campaign.  This driver runs it under
pytest-benchmark, prints the record, refreshes ``BENCH_layout.json``
and appends the run to ``PERF_HISTORY.jsonl``.

Campaign size scales with ``$REPRO_BENCH_TRACES``; ``REPRO_BENCH_QUICK=1``
switches to the benchmark's quick mode (S-box circuit only).
"""

import os

from repro.perf import append_history, get_benchmark, run_benchmark
from repro.reporting import format_bench_record, write_benchmark_json

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"


def test_layout_throughput(benchmark):
    bench = get_benchmark("layout")
    record = benchmark.pedantic(
        lambda: run_benchmark(bench, quick=QUICK), rounds=1, iterations=1
    )
    print()
    print(format_bench_record(record))
    write_benchmark_json("layout", record["results"])
    append_history(record)

    # Back-annotated loads are table lookups; routed campaigns must not
    # collapse the acquisition rate (allow 2x headroom for jitter).
    metrics = {name: entry["value"] for name, entry in record["metrics"].items()}
    assert metrics["tps_fat_sbox"] > metrics["tps_none_sbox"] / 2.0, (
        "routed-campaign throughput collapsed vs the layout-free campaign"
    )
