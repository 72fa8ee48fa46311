"""Structured experiment records.

The benchmark drivers record, for every reproduced figure, what the
paper reports and what this implementation measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["ExperimentResult", "format_experiment_results"]


@dataclass
class ExperimentResult:
    """One reproduced figure or table."""

    experiment_id: str
    description: str
    paper_value: str
    measured_value: str
    matches_shape: bool
    notes: str = ""

    def describe(self) -> str:
        status = "shape reproduced" if self.matches_shape else "MISMATCH"
        lines = [
            f"[{self.experiment_id}] {self.description}",
            f"  paper    : {self.paper_value}",
            f"  measured : {self.measured_value}",
            f"  status   : {status}",
        ]
        if self.notes:
            lines.append(f"  notes    : {self.notes}")
        return "\n".join(lines)


def format_experiment_results(results: List[ExperimentResult]) -> str:
    """Multi-experiment summary block."""
    return "\n\n".join(result.describe() for result in results)
