"""Power-variation metrics.

The side-channel hardware literature summarises how data dependent a
gate's (or circuit's) energy is with two standard figures of merit, both
of which the benchmarks report next to the paper's qualitative claims:

* **NED** (normalised energy deviation): ``(E_max - E_min) / E_max`` --
  the paper's "variation on the power consumption can be as large as
  50 %" statement is an NED of 0.5;
* **NSD** (normalised standard deviation): ``sigma(E) / mean(E)``.

Both are 0 for a perfectly constant-power gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

__all__ = ["EnergyStatistics", "energy_statistics", "normalized_energy_deviation", "normalized_std_deviation"]


@dataclass(frozen=True)
class EnergyStatistics:
    """Summary statistics of a set of per-event (or per-cycle) energies."""

    count: int
    minimum: float
    maximum: float
    mean: float
    std: float

    @property
    def ned(self) -> float:
        """Normalised energy deviation (max - min) / max."""
        if self.maximum == 0.0:
            return 0.0
        return (self.maximum - self.minimum) / self.maximum

    @property
    def nsd(self) -> float:
        """Normalised standard deviation std / mean."""
        if self.mean == 0.0:
            return 0.0
        return self.std / self.mean

    def describe(self, scale: float = 1e15, unit: str = "fJ") -> str:
        return (
            f"n={self.count}  min={self.minimum * scale:.3f} {unit}  "
            f"max={self.maximum * scale:.3f} {unit}  mean={self.mean * scale:.3f} {unit}  "
            f"NED={self.ned * 100:.2f}%  NSD={self.nsd * 100:.2f}%"
        )


def energy_statistics(energies: Union[np.ndarray, Iterable[float]]) -> EnergyStatistics:
    """Compute :class:`EnergyStatistics` over a 1-D collection of energies.

    The mean and the variance are plain left folds (``np.cumsum`` adds
    strictly in order) over exact IEEE operations -- squares are
    products, not the C library's ``pow`` -- so the figures depend
    neither on NumPy's pairwise summation, nor on the interpreter's
    ``sum()`` (compensated from Python 3.12 on), nor on the platform.
    """
    if not isinstance(energies, np.ndarray):
        energies = list(energies)
    values = np.asarray(energies, dtype=float)
    if values.ndim != 1:
        raise ValueError("expected a 1-D collection of energies")
    if not values.size:
        raise ValueError("cannot compute statistics of an empty energy collection")
    count = values.size
    mean = float(np.cumsum(values)[-1] / count)
    deviations = values - mean
    variance = float(np.cumsum(deviations * deviations)[-1] / count)
    return EnergyStatistics(
        count=count,
        minimum=float(values.min()),
        maximum=float(values.max()),
        mean=mean,
        std=math.sqrt(variance),
    )


def normalized_energy_deviation(energies: Iterable[float]) -> float:
    """NED of a collection of energies."""
    return energy_statistics(energies).ned


def normalized_std_deviation(energies: Iterable[float]) -> float:
    """NSD of a collection of energies."""
    return energy_statistics(energies).nsd
