"""Reference trace campaigns for checking the bit-sliced kernel.

Every circuit campaign runs through
:class:`repro.kernel.BitslicedCircuitEnergyModel`.  These helpers replay
the random stream of :func:`repro.power.trace.acquire_circuit_traces`
(plaintext draws, then warm-up draws, then the optional Gaussian noise)
through the slow reference models of :mod:`repro.sabl.simulator`, so a
test can compare a campaign against an oracle trace for trace.
"""

from __future__ import annotations

import numpy as np

from repro.power.trace import nibble_matrix
from repro.sabl.simulator import BatchedCircuitEnergyModel, CircuitPowerSimulator


def oracle_traces(
    circuit,
    trace_count,
    seed=2005,
    warmup_cycles=4,
    noise_std=0.0,
    stepped=True,
    batch_size=1024,
    **model_kwargs,
):
    """``(plaintexts, traces)`` of an oracle campaign over ``circuit``.

    ``stepped=True`` steps a :class:`CircuitPowerSimulator` one cycle at
    a time (the per-trace oracle); ``stepped=False`` feeds a
    :class:`BatchedCircuitEnergyModel` in ``batch_size`` chunks.
    ``model_kwargs`` (``technology``, ``gate_style``, ``net_loads``,
    ``tables``) go to the model's constructor.
    """
    width = len(circuit.primary_inputs)
    rng = np.random.default_rng(seed)
    draw_dtype = {"dtype": np.uint64} if width >= 64 else {}
    plaintexts = rng.integers(0, 1 << width, size=trace_count, **draw_dtype)
    warmup = rng.integers(0, 1 << width, size=warmup_cycles, **draw_dtype)
    if stepped:
        simulator = CircuitPowerSimulator(circuit, **model_kwargs)
        rows = nibble_matrix(np.concatenate([warmup, plaintexts]), width)
        energies = np.array(
            [
                simulator.step(dict(zip(circuit.primary_inputs, row))).total_energy
                for row in rows
            ]
        )[warmup_cycles:]
    else:
        model = BatchedCircuitEnergyModel(circuit, **model_kwargs)
        if warmup_cycles:
            model.energies(nibble_matrix(warmup, width), batch_size=batch_size)
        energies = model.energies(nibble_matrix(plaintexts, width), batch_size=batch_size)
    if noise_std > 0.0:
        sigma = noise_std * float(np.mean(energies))
        energies = energies + rng.normal(0.0, sigma, size=trace_count)
    # TraceSet stores plaintexts as int64 (full-width draws wrap).
    return plaintexts.astype(np.int64), energies
