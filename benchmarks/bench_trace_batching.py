"""Extension C -- throughput of the batched trace-acquisition kernel.

Production-scale campaigns run tens of thousands of traces; the seed's
per-trace Python loop walked every gate's connectivity graph once per
cycle.  :func:`repro.power.acquire_circuit_traces` now runs every
campaign through the compiled bit-sliced kernel
(:class:`repro.kernel.BitslicedCircuitEnergyModel`), which evaluates the
gate logic 64 traces per machine word and accumulates the steady-state
per-cycle energies as NumPy array operations.  This benchmark records the speedup over stepping the
per-trace :class:`repro.sabl.simulator.CircuitPowerSimulator` on a
1000-trace campaign of the S-box circuit, and checks that the two agree
trace for trace.
"""

import time

import numpy as np
import pytest

from repro.power import acquire_circuit_traces, build_sbox_circuit
from repro.power.trace import BLOCK_SIZE, nibble_matrix
from repro.reporting import format_table
from repro.sabl.simulator import CircuitPowerSimulator

KEY = 0xB
TRACES = 1000
MAX_FANIN = 3
NOISE = 0.002
SEED = 7


def _time_batched(circuit):
    start = time.perf_counter()
    traces = acquire_circuit_traces(circuit, KEY, TRACES, noise_std=NOISE, seed=SEED)
    return traces.traces, time.perf_counter() - start


def _time_per_trace_loop(circuit):
    """The same campaign (same block stream) stepped one cycle at a time."""
    start = time.perf_counter()
    simulator = CircuitPowerSimulator(circuit)
    # Stepping every plaintext once drives each gate through every input
    # event it can see: the steady state the kernel evaluates from.
    simulator.run(
        [dict(zip(circuit.primary_inputs, row)) for row in nibble_matrix(np.arange(16))]
    )
    blocks = np.random.SeedSequence(SEED).spawn(-(-TRACES // BLOCK_SIZE))
    parts = []
    for index, child in enumerate(blocks):
        rng = np.random.default_rng(child)
        count = min(BLOCK_SIZE, TRACES - index * BLOCK_SIZE)
        plaintexts = rng.integers(0, 16, size=count)
        energies = np.array(
            [
                simulator.step(dict(zip(circuit.primary_inputs, row))).total_energy
                for row in nibble_matrix(plaintexts)
            ]
        )
        parts.append(energies + rng.normal(0.0, NOISE * float(np.mean(energies)), count))
    return np.concatenate(parts), time.perf_counter() - start


def test_batched_acquisition_speedup(benchmark):
    def run():
        results = {}
        for style in ("genuine", "fc"):
            circuit = build_sbox_circuit(KEY, style, max_fanin=MAX_FANIN)
            sequential, sequential_time = _time_per_trace_loop(circuit)
            batched, batched_time = _time_batched(circuit)
            assert np.allclose(
                sequential, batched, rtol=1e-9, atol=0.0
            ), "the kernel and the per-trace loop must agree trace for trace"
            results[style] = (sequential_time, batched_time)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for style, (sequential_time, batched_time) in results.items():
        rows.append([
            style,
            f"{sequential_time * 1e3:.1f}",
            f"{batched_time * 1e3:.1f}",
            f"{sequential_time / batched_time:.1f}x",
            f"{TRACES / batched_time:,.0f}",
        ])
    print()
    print(format_table(
        ["implementation", "per-trace loop [ms]", "batched [ms]", "speedup",
         "batched traces/s"],
        rows,
        title=f"Extension C -- batched trace acquisition, {TRACES} traces "
              f"(PRESENT S-box, max fan-in {MAX_FANIN})",
    ))

    for style, (sequential_time, batched_time) in results.items():
        assert batched_time < sequential_time, (
            f"batched acquisition should beat the per-trace loop for {style} "
            f"({batched_time:.3f}s vs {sequential_time:.3f}s)"
        )
