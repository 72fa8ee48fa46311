"""Extension D -- throughput of the streaming leakage-assessment stage.

Certification-grade TVLA campaigns run millions of traces, far beyond
what fits in memory as a single array.  The assessment stage streams the
campaign's 256-trace blocks (128 fixed and 128 random traces each),
a few blocks per kernel call, straight into moment accumulators
(:mod:`repro.assess.accumulators`), so its memory does not grow with
the campaign; this benchmark records

* the pure accumulator throughput on synthetic data (the ceiling of the
  streaming layer itself),
* the end-to-end assessed-traces/s through the flow pipeline's
  ``assessment`` stage for both implementations, and
* that the streamed t statistics match the one-shot NumPy computation on
  the materialised campaign (the constant-memory path costs no
  accuracy).
"""

import time

import numpy as np

from repro.assess import StreamingMoments, ttest_fixed_vs_random
from repro.flow import AssessmentConfig, CampaignConfig, DesignFlow, FlowConfig
from repro.power.trace import BLOCK_SIZE
from repro.reporting import format_table

KEY = 0xB
TRACES_PER_CLASS = 2000
CHUNK_SIZE = 1024
SYNTHETIC_SAMPLES = 2_000_000


def _flow(name, gate_style, network_style):
    return DesignFlow.sbox(config=FlowConfig(
        name=name,
        campaign=CampaignConfig(
            key=KEY, gate_style=gate_style, network_style=network_style,
            trace_count=64,
        ),
        assessment=AssessmentConfig(
            enabled=True,
            traces_per_class=TRACES_PER_CLASS,
            noise=({"name": "gaussian", "std": 0.01},),
        ),
    ))


def test_streaming_assessment_throughput(benchmark):
    def run():
        results = {}

        # Ceiling: fold synthetic Gaussian samples through one accumulator.
        rng = np.random.default_rng(7)
        samples = rng.normal(1.0, 0.1, size=SYNTHETIC_SAMPLES)
        moments = StreamingMoments()
        start = time.perf_counter()
        for begin in range(0, SYNTHETIC_SAMPLES, CHUNK_SIZE):
            moments.update(samples[begin:begin + CHUNK_SIZE])
        results["accumulator"] = SYNTHETIC_SAMPLES / (time.perf_counter() - start)
        assert moments.count == SYNTHETIC_SAMPLES
        assert np.isclose(moments.mean, samples.mean(), rtol=1e-12)

        # End to end: the pipeline's streaming assessment stage.
        for name, gate_style, network_style in (
            ("cvsl_genuine", "cvsl", "genuine"),
            ("sabl_fc", "sabl", "fc"),
        ):
            flow = _flow(name, gate_style, network_style)
            start = time.perf_counter()
            flow.run(["assessment"])
            elapsed = time.perf_counter() - start
            results[name] = 2 * TRACES_PER_CLASS / elapsed
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    print()
    print(format_table(
        ["stream", "assessed traces/s"],
        [[name, f"{rate:,.0f}"] for name, rate in results.items()],
        title=f"Extension D -- streaming leakage assessment "
              f"({2 * TRACES_PER_CLASS} traces/implementation, "
              f"{BLOCK_SIZE}-trace blocks)",
    ))

    # The streaming layer must not be the bottleneck of an assessment.
    assert results["accumulator"] > results["cvsl_genuine"]


def test_streaming_matches_one_shot():
    """Chunked accumulation reproduces the one-shot t statistics."""
    rng = np.random.default_rng(11)
    count = 50_000
    labels = rng.random(count) < 0.5
    energies = rng.normal(1.0, 0.05, size=count) + 0.01 * labels

    reference = ttest_fixed_vs_random(energies, labels)
    for chunk_size in (64, 1000, 4096):
        streamed = ttest_fixed_vs_random(energies, labels, chunk_size=chunk_size)
        for order in (1, 2):
            assert np.isclose(
                streamed.test(order).statistic,
                reference.test(order).statistic,
                rtol=1e-10,
                atol=0.0,
            ), f"chunk {chunk_size}, order {order}"
