"""Measurements-to-disclosure and attack success-rate curves.

A t-test says *whether* leakage is detectable; the security engineer's
follow-up question is *how many measurements an attacker needs*.  This
module answers it empirically: for a grid of trace counts, the attack is
repeated on bootstrapped subsamples of the campaign and the fraction of
repetitions that recover the key becomes the **success rate** at that
count.  The **measurements to disclosure** (MTD) is the smallest count
from which the success rate stays at or above a confidence threshold
through the end of the grid -- a stability requirement that filters out
the lucky one-off recoveries small subsamples produce.

Unlike :func:`repro.power.dpa.measurements_to_disclosure` (a single
prefix sweep), the bootstrap gives a success *probability* per count, so
protected implementations report a near-chance floor instead of a noisy
binary outcome, and the curves of two implementations can be compared at
equal trace budgets.

**Cost.**  Every repetition re-runs the attack on its subsample.  The
default attacks of :mod:`repro.power.dpa` reduce a subsample of n traces
to per-plaintext-class sums in O(n) and score all K guesses from a
``(guess x class)`` table in O(K*P), so a curve costs O(R*(n + K*P)) per
step for R repetitions, with no per-trace Python work.

**Ties.**  A repetition counts as a recovery only when the correct key
ranks alone at the top: guesses whose class vectors are identical or
complementary to the key's score bit-identically and count against the
attacker (see :mod:`repro.power.dpa`).  DoM at ``target_bit=0`` on the
PRESENT S-box, whose guesses fall into four such groups, therefore never
recovers the key, and its ``mean_rank`` counts the key's group mates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..power.dpa import AttackResult, cpa_correlation
from ..power.trace import TraceSet

__all__ = [
    "SuccessRatePoint",
    "MTDCurve",
    "bootstrap_success_rate",
    "success_rate_curve",
]

#: An attack callable: ``(traces, sbox) -> AttackResult`` (the signature
#: of :func:`repro.power.dpa.cpa_correlation` and friends).
AttackCallable = Callable[[TraceSet, Sequence[int]], AttackResult]


@dataclass(frozen=True)
class SuccessRatePoint:
    """Bootstrapped attack outcome at one trace count."""

    trace_count: int
    success_rate: float
    mean_rank: float
    repetitions: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_count": self.trace_count,
            "success_rate": self.success_rate,
            "mean_rank": self.mean_rank,
            "repetitions": self.repetitions,
        }


@dataclass(frozen=True)
class MTDCurve:
    """A success-rate curve plus its measurements-to-disclosure estimate."""

    points: Tuple[SuccessRatePoint, ...]
    success_threshold: float
    attack_name: str = ""
    description: str = ""

    @property
    def mtd(self) -> Optional[int]:
        """Smallest trace count whose success rate stays at or above the
        threshold through the rest of the curve (``None`` = undisclosed)."""
        disclosed: Optional[int] = None
        for point in self.points:
            if point.success_rate >= self.success_threshold:
                if disclosed is None:
                    disclosed = point.trace_count
            else:
                disclosed = None
        return disclosed

    @property
    def disclosed(self) -> bool:
        return self.mtd is not None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "method": "mtd",
            "attack": self.attack_name,
            "description": self.description,
            "success_threshold": self.success_threshold,
            "mtd": self.mtd,
            "points": [point.to_dict() for point in self.points],
        }

    def summary_rows(self) -> List[List[str]]:
        """Rows for :func:`repro.reporting.format_leakage_assessment`."""
        label = f"mtd[{self.attack_name}]" if self.attack_name else "mtd"
        rows = [
            [
                label,
                f"success rate @ {point.trace_count}",
                f"{point.success_rate:.2f}",
                "",
            ]
            for point in self.points
        ]
        mtd = self.mtd
        rows.append(
            [
                label,
                "measurements to disclosure",
                str(mtd) if mtd is not None else "> campaign",
                "DISCLOSED" if mtd is not None else "resists",
            ]
        )
        return rows

    def describe(self) -> str:
        mtd = self.mtd
        verdict = (
            f"key disclosed from {mtd} traces"
            if mtd is not None
            else "key not disclosed within the campaign"
        )
        return (
            f"MTD ({self.attack_name or 'attack'}, success >= "
            f"{self.success_threshold:.0%}): {verdict}"
        )


def _subsample(traces: TraceSet, indices: np.ndarray) -> TraceSet:
    return TraceSet(
        plaintexts=traces.plaintexts[indices],
        traces=traces.traces[indices],
        key=traces.key,
        description=traces.description,
    )


def bootstrap_success_rate(
    traces: TraceSet,
    sbox: Sequence[int],
    trace_count: int,
    attack: AttackCallable = cpa_correlation,
    repetitions: int = 20,
    rng: Optional[np.random.Generator] = None,
) -> SuccessRatePoint:
    """Attack ``repetitions`` random subsamples of ``trace_count`` traces.

    Each repetition draws a subsample without replacement from the
    campaign, runs the attack and records whether the correct key alone
    ranks first; the success rate is the fraction of recoveries and
    ``mean_rank`` the average rank of the correct key (0 = recovered).
    """
    total = len(traces)
    if not 1 <= trace_count <= total:
        raise ValueError(
            f"trace_count must be in 1..{total} (the campaign size), "
            f"got {trace_count}"
        )
    if repetitions < 1:
        raise ValueError(f"repetitions must be positive, got {repetitions}")
    rng = rng or np.random.default_rng()
    successes = 0
    ranks = 0.0
    for _ in range(repetitions):
        indices = rng.choice(total, size=trace_count, replace=False)
        result = attack(_subsample(traces, indices), sbox)
        successes += int(result.succeeded)
        ranks += result.correct_key_rank
    return SuccessRatePoint(
        trace_count=trace_count,
        success_rate=successes / repetitions,
        mean_rank=ranks / repetitions,
        repetitions=repetitions,
    )


def success_rate_curve(
    traces: TraceSet,
    sbox: Sequence[int],
    attack: AttackCallable = cpa_correlation,
    steps: Optional[Sequence[int]] = None,
    repetitions: int = 20,
    success_threshold: float = 0.9,
    seed: Optional[int] = None,
    attack_name: str = "",
) -> MTDCurve:
    """Bootstrapped success-rate curve (and MTD) over a trace-count grid.

    ``steps`` defaults to a logarithmic grid from a handful of traces up
    to the campaign size.  The returned :class:`MTDCurve` exposes the
    stability-filtered MTD estimate; ``None`` (``curve.disclosed`` False)
    is the desired outcome for a protected implementation.
    """
    total = len(traces)
    if not 0.0 < success_threshold <= 1.0:
        raise ValueError(
            f"success_threshold must be in (0, 1], got {success_threshold}"
        )
    if steps is None:
        grid = np.unique(
            np.round(np.geomspace(min(8, total), total, num=8)).astype(int)
        )
        steps = [int(step) for step in grid]
    steps = sorted({int(step) for step in steps})
    rng = np.random.default_rng(seed)
    points = tuple(
        bootstrap_success_rate(
            traces,
            sbox,
            trace_count=step,
            attack=attack,
            repetitions=repetitions,
            rng=rng,
        )
        for step in steps
    )
    return MTDCurve(
        points=points,
        success_threshold=success_threshold,
        attack_name=attack_name or getattr(attack, "__name__", ""),
        description=traces.description,
    )
