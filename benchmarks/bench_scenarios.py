"""Extension F -- scenario throughput: traces/second vs datapath width.

The scenario table opened the engine to round datapaths; the
built-in ``scenarios`` benchmark (:mod:`repro.perf.builtin`) measures
what that costs: one ``present_round`` campaign per S-box count (1, 2,
4 -- widths 4, 8, 16 bits) at 1 and 4 workers, bit-identity checked
inside the runner.  This driver runs it under pytest-benchmark, prints
the record, refreshes ``BENCH_scenarios.json`` and appends the run to
``PERF_HISTORY.jsonl``.

Campaign size scales with ``$REPRO_BENCH_TRACES``; ``REPRO_BENCH_QUICK=1``
switches to the benchmark's quick mode.
"""

import os

from repro.perf import append_history, get_benchmark, run_benchmark
from repro.reporting import format_bench_record, write_benchmark_json

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"


def test_scenario_throughput(benchmark):
    bench = get_benchmark("scenarios")
    record = benchmark.pedantic(
        lambda: run_benchmark(bench, quick=QUICK), rounds=1, iterations=1
    )
    print()
    print(format_bench_record(record))
    write_benchmark_json("scenarios", record["results"])
    append_history(record)

    # Wider slices synthesise more gates per trace: throughput must fall
    # monotonically-ish with width, not collapse outright at 4 S-boxes.
    metrics = {name: entry["value"] for name, entry in record["metrics"].items()}
    assert metrics["tps_4sbox_w1"] > 0
