"""Extension G -- compiled-kernel throughput: traces/second vs width.

The event-table reference model walks every gate's event table per
batch, so trace throughput collapses roughly linearly with gate count;
the bit-sliced kernel packs 64 traces per uint64 word and stays
essentially width-independent.  The measurement lives in the built-in
``kernel`` benchmark (:mod:`repro.perf.builtin`); this driver runs it
under pytest-benchmark, prints the record, refreshes
``BENCH_kernel.json``, appends the run to ``PERF_HISTORY.jsonl`` and
asserts the kernel's acceptance number: the 16-S-box rate stays within
~2x of the 1-S-box rate.

Campaign size scales with ``$REPRO_BENCH_TRACES``; ``REPRO_BENCH_QUICK=1``
switches to the benchmark's quick mode.
"""

import os

from repro.perf import append_history, get_benchmark, run_benchmark
from repro.reporting import format_bench_record, write_benchmark_json

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") == "1"


def test_kernel_throughput(benchmark):
    bench = get_benchmark("kernel")
    record = benchmark.pedantic(
        lambda: run_benchmark(bench, quick=QUICK), rounds=1, iterations=1
    )
    print()
    print(format_bench_record(record))
    write_benchmark_json("kernel", record["results"])
    append_history(record)

    ratio = record["metrics"]["bitslice_narrow_over_wide"]["value"]
    assert ratio <= 2.5, (
        f"bitslice throughput must be nearly width-independent, got "
        f"{ratio:.2f}x narrow/wide"
    )
