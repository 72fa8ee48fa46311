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


# --------------------------------------------------------------------------- attacks
#
# Per-guess reference attacks: each guess's hypothesis is built trace by
# trace, the way the attacks of Kocher et al. (DoM) and Brier et al.
# (CPA) read.  They follow the rules of :mod:`repro.power.dpa` that are
# not about speed: a campaign of identical traces scores 0 for every
# guess, a one-sided partition scores 0, and a CPA hypothesis is first
# brought to its tie-canonical form (shifted to 0 on the first trace,
# negated if its first non-zero entry is negative), so complementary
# hypotheses score bit-identically.


def _oracle_centred(measurements):
    """Mean-centred traces, all zero for a campaign of identical traces."""
    measurements = np.asarray(measurements, dtype=float)
    if measurements.size == 0 or measurements.min() == measurements.max():
        return np.zeros_like(measurements)
    return measurements - measurements.mean()


def _oracle_pearson(centred, hypothesis):
    denominator_m = float(np.sqrt(np.sum(centred**2)))
    if denominator_m == 0.0:
        return 0.0
    hypothesis = hypothesis - hypothesis.mean()
    denominator_h = float(np.sqrt(np.sum(hypothesis**2)))
    if denominator_h == 0.0:
        return 0.0
    return abs(float(np.sum(centred * hypothesis)) / (denominator_m * denominator_h))


def _oracle_canonical(hypothesis):
    shifted = hypothesis - hypothesis[:1]
    nonzero = np.flatnonzero(shifted)
    if nonzero.size and shifted[nonzero[0]] < 0:
        shifted = -shifted
    return shifted + 0.0


def _oracle_result(scores, key):
    from repro.power.dpa import AttackResult

    return AttackResult(scores=tuple(scores), best_guess=int(np.argmax(scores)), correct_key=key)


def oracle_dom(traces, sbox, target_bit=0, key_space=None):
    """Difference-of-means DPA, one selection vector per guess."""
    key_space = key_space or len(sbox)
    measurements = _oracle_centred(traces.traces)
    scores = []
    for guess in range(key_space):
        selection = np.array(
            [(sbox[int(p) ^ guess] >> target_bit) & 1 for p in traces.plaintexts],
            dtype=bool,
        )
        ones = measurements[selection]
        zeros = measurements[~selection]
        if ones.size == 0 or zeros.size == 0:
            scores.append(0.0)
            continue
        scores.append(abs(float(np.mean(ones)) - float(np.mean(zeros))))
    return _oracle_result(scores, traces.key)


def oracle_cpa(traces, sbox, key_space=None, model=None):
    """CPA, one per-trace hypothesis vector per guess."""
    from repro.power.crypto import hamming_weight

    key_space = key_space or len(sbox)
    leakage_model = model or (lambda value: float(hamming_weight(value)))
    centred = _oracle_centred(traces.traces)
    scores = []
    for guess in range(key_space):
        hypothesis = np.array(
            [leakage_model(sbox[int(p) ^ guess]) for p in traces.plaintexts], dtype=float
        )
        scores.append(_oracle_pearson(centred, _oracle_canonical(hypothesis)))
    return _oracle_result(scores, traces.key)


def oracle_profiled_cpa(traces, predictor, key_space=16):
    """Profiled CPA, one predictor call and one correlation per guess."""
    centred = _oracle_centred(traces.traces)
    scores = [
        _oracle_pearson(centred, predictor(traces.plaintexts, guess).astype(float))
        for guess in range(key_space)
    ]
    return _oracle_result(scores, traces.key)
