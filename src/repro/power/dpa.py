"""Differential power analysis and correlation power analysis.

Two classic attacks are implemented against the single-sample traces
produced by :mod:`repro.power.trace`:

* **Difference-of-means DPA** (Kocher et al., CRYPTO'99): for every key
  guess, traces are partitioned by a predicted target bit of
  ``S(p XOR k_guess)``; the guess with the largest absolute difference
  between the two partitions' mean power wins.
* **CPA** (Brier et al., CHES 2004): the predicted Hamming weight of the
  S-box output is correlated against the measured energy; the guess with
  the largest absolute correlation wins.

Both return full per-guess score vectors so the benchmarks can report key
ranks, and :func:`measurements_to_disclosure` sweeps the trace count to
find the smallest campaign that stably reveals the key -- the standard
way to quantify how much protection the fully connected networks buy.

**Cost.**  A DoM or CPA hypothesis depends on the trace only through its
plaintext, so both attacks reduce the campaign once (``np.bincount``) to
per-plaintext-class trace counts and sums of the mean-centred traces,
then score every guess from the small ``(guess x class)`` table
``S[class XOR guess]`` (passed through the CPA leakage model once per
output value).  An attack costs O(N + K*P) for N traces, K guesses and P
plaintext classes, and never holds a ``(guess x trace)`` matrix.
:func:`profiled_cpa` still calls its predictor once per guess (the
predictor simulates a device whose state runs through the whole
plaintext sequence) and shares the Pearson scoring.

**Ties.**  Two guesses whose class vectors (their DoM selection bits or
CPA hypotheses over the plaintext classes present in the campaign) are
identical or complementary partition, or correlate with, the traces the
same way: they are scored by one computation and get bit-identical
scores.  At ``target_bit=0`` the PRESENT S-box has four such DoM groups,
{0,1,8,9}, {2,3,10,11}, {4,5,12,13} and {6,7,14,15}.  Ties count against
the attacker: :attr:`AttackResult.correct_key_rank` counts the other
guesses scoring at least as high as the correct key, an attack
:attr:`~AttackResult.succeeded` only at rank 0, and
:attr:`~AttackResult.best_guess` is the lowest guess among the maximal
scores.  A campaign of identical traces scores 0 for every guess, and so
does a guess whose partition leaves one side empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .crypto import hamming_weight
from .trace import TraceSet

__all__ = [
    "AttackResult",
    "dpa_difference_of_means",
    "cpa_correlation",
    "profiled_cpa",
    "key_rank",
    "measurements_to_disclosure",
]


@dataclass(frozen=True)
class AttackResult:
    """Scores of every key guess for one attack run."""

    scores: Tuple[float, ...]
    best_guess: int
    correct_key: int

    @property
    def succeeded(self) -> bool:
        """True when the correct key alone has the top score."""
        return self.correct_key_rank == 0

    @property
    def correct_key_rank(self) -> int:
        """Other guesses scoring at least as high as the correct key (0 = best)."""
        scores = np.asarray(self.scores)
        others = np.delete(scores, self.correct_key)
        return int(np.count_nonzero(others >= scores[self.correct_key]))

    def margin(self) -> float:
        """Score gap between the best guess and the runner-up."""
        ordered = sorted(self.scores, reverse=True)
        if len(ordered) < 2:
            return float(ordered[0]) if ordered else 0.0
        return float(ordered[0] - ordered[1])


def _result(scores: np.ndarray, key: int) -> AttackResult:
    return AttackResult(
        scores=tuple(scores.tolist()), best_guess=int(np.argmax(scores)), correct_key=key
    )


def _centred(measurements: np.ndarray) -> Tuple[np.ndarray, float]:
    """Mean-centred traces and their norm; all zero for identical traces."""
    if measurements.size == 0 or measurements.min() == measurements.max():
        return np.zeros(measurements.shape), 0.0
    centred = measurements - measurements.mean()
    return centred, float(np.sqrt(np.sum(centred**2)))


class _ClassSums(NamedTuple):
    """A campaign reduced to its plaintext classes."""

    classes: np.ndarray  # plaintext values present, ascending
    counts: np.ndarray  # traces per class
    sums: np.ndarray  # sum of the mean-centred traces per class
    norm: float  # norm of the mean-centred traces


def _class_sums(traces: TraceSet) -> _ClassSums:
    centred, norm = _centred(traces.traces)
    counts = np.bincount(traces.plaintexts)
    sums = np.bincount(traces.plaintexts, weights=centred, minlength=counts.size)
    classes = np.flatnonzero(counts)
    return _ClassSums(classes, counts[classes].astype(float), sums[classes], norm)


def _class_table(sbox: Sequence[int], classes: np.ndarray, key_space: int) -> np.ndarray:
    """``S[class XOR guess]`` as a ``(guess x class)`` array."""
    return np.asarray(sbox, dtype=np.int64)[classes[None, :] ^ np.arange(key_space)[:, None]]


def _canonical_rows(vectors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct tie-canonical class vectors, and each guess's row.

    A vector is shifted to 0 on its first class and negated if its first
    non-zero entry is negative, so a vector and its complement map to
    one row: complementary guesses are scored by one computation.
    """
    shifted = vectors.astype(float) - vectors[:, :1]
    lead = shifted[np.arange(len(shifted)), np.argmax(shifted != 0, axis=1)]
    canonical = np.where(lead[:, None] < 0, -shifted, shifted) + 0.0
    rows, guess_row = np.unique(canonical, axis=0, return_inverse=True)
    return rows, guess_row.reshape(-1)


def _abs_pearson(numerators: np.ndarray, norm_m: float, norms_h: np.ndarray) -> np.ndarray:
    """``|r|`` per hypothesis; 0 where either side has no variance."""
    scores = np.zeros(numerators.shape)
    valid = norms_h != 0.0
    if norm_m != 0.0:
        scores[valid] = np.abs(numerators[valid]) / (norm_m * norms_h[valid])
    return scores


def dpa_difference_of_means(
    traces: TraceSet,
    sbox: Sequence[int],
    target_bit: int = 0,
    key_space: Optional[int] = None,
) -> AttackResult:
    """Single-bit difference-of-means DPA over all key guesses."""
    key_space = key_space or len(sbox)
    reduced = _class_sums(traces)
    if reduced.classes.size == 0:
        return _result(np.zeros(key_space), traces.key)
    table = _class_table(sbox, reduced.classes, key_space)
    # Canonical selections are 0/1 and 0 on the first class, so the zero
    # side of every partition holds traces.
    rows, guess_row = _canonical_rows((table >> target_bit) & 1)
    ones = rows @ reduced.counts
    zeros = len(traces) - ones
    ones_sum = rows @ reduced.sums
    zeros_sum = (1.0 - rows) @ reduced.sums
    scores = np.zeros(len(rows))
    split = ones > 0
    scores[split] = np.abs(ones_sum[split] / ones[split] - zeros_sum[split] / zeros[split])
    return _result(scores[guess_row], traces.key)


def cpa_correlation(
    traces: TraceSet,
    sbox: Sequence[int],
    key_space: Optional[int] = None,
    model: Optional[Callable[[int], float]] = None,
) -> AttackResult:
    """Correlation power analysis with a Hamming-weight (or custom) model."""
    key_space = key_space or len(sbox)
    leakage_model = model or (lambda value: float(hamming_weight(value)))
    reduced = _class_sums(traces)
    if reduced.classes.size == 0:
        return _result(np.zeros(key_space), traces.key)
    table = _class_table(sbox, reduced.classes, key_space)
    outputs, output_index = np.unique(table, return_inverse=True)
    leakage = np.array([leakage_model(int(value)) for value in outputs], dtype=float)
    rows, guess_row = _canonical_rows(leakage[output_index.reshape(table.shape)])
    # Centre each hypothesis over the traces (class-weighted), then
    # correlate it with the per-class sums of the centred traces.
    hypotheses = rows - ((rows @ reduced.counts) / len(traces))[:, None]
    numerators = hypotheses @ reduced.sums
    norms_h = np.sqrt((hypotheses**2) @ reduced.counts)
    scores = _abs_pearson(numerators, reduced.norm, norms_h)
    return _result(scores[guess_row], traces.key)


def profiled_cpa(
    traces: TraceSet,
    predictor: Callable[[np.ndarray, int], np.ndarray],
    key_space: int = 16,
) -> AttackResult:
    """Profiled (template-style) correlation attack.

    ``predictor(plaintexts, guess)`` returns the per-cycle energies a
    clone of the implementation keyed with ``guess`` would draw for the
    given plaintext sequence (see
    :func:`repro.power.trace.simulated_energy_predictor`).  This is the
    strongest attack the benchmarks run: it assumes the adversary has a
    perfect power model of the logic style -- and it still fails against
    the fully connected implementation, whose measured power carries no
    data dependence to correlate with.
    """
    centred, norm = _centred(traces.traces)
    numerators = np.zeros(key_space)
    norms_h = np.zeros(key_space)
    for guess in range(key_space):
        hypothesis = predictor(traces.plaintexts, guess).astype(float)
        hypothesis = hypothesis - hypothesis.mean()
        numerators[guess] = centred @ hypothesis
        norms_h[guess] = np.sqrt(hypothesis @ hypothesis)
    return _result(_abs_pearson(numerators, norm, norms_h), traces.key)


def key_rank(result: AttackResult) -> int:
    """Rank of the correct key in an attack result (0 = recovered)."""
    return result.correct_key_rank


def measurements_to_disclosure(
    traces: TraceSet,
    sbox: Sequence[int],
    attack: Callable[[TraceSet, Sequence[int]], AttackResult] = cpa_correlation,
    steps: Optional[Sequence[int]] = None,
    stability: int = 2,
) -> Optional[int]:
    """Smallest trace count at which the attack stably recovers the key.

    The attack is run on growing prefixes of the campaign; the returned
    value is the first step from which the correct key stays ranked first
    for ``stability`` consecutive steps (and through the full set).
    Returns ``None`` when the key is never stably recovered -- the desired
    outcome for a protected implementation.  Each step costs one class
    reduction of its prefix plus the O(K*P) guess scoring of the attack.
    """
    total = len(traces)
    if steps is None:
        steps = sorted({max(4, int(round(total * fraction))) for fraction in np.linspace(0.05, 1.0, 20)})
    steps = [step for step in steps if step <= total]
    successes: List[bool] = []
    for step in steps:
        result = attack(traces.subset(step), sbox)
        successes.append(result.succeeded)
    for index, step in enumerate(steps):
        window = successes[index:]
        if len(window) >= stability and all(window):
            return step
    return None
