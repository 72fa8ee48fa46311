"""Stage results and reports of a design flow run.

Each pipeline stage produces a :class:`FlowResult`: the stage's value
(networks, circuits, traces, attack results, ...) plus a JSON-friendly
``details`` summary and the wall-clock time the stage took.  A completed
run is collected into a :class:`FlowReport`, which wires into
:mod:`repro.reporting` for table rendering and experiment records and
serialises to JSON next to the flow config that produced it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from ..reporting.layout import format_routing_imbalance
from ..reporting.leakage import format_leakage_assessment
from ..reporting.results import ExperimentResult
from ..reporting.tables import format_table
from .config import FlowConfig

__all__ = ["FlowResult", "FlowReport", "RoutedLayout"]


@dataclass
class FlowResult:
    """The outcome of one pipeline stage.

    Attributes:
        stage: stage name, one of :data:`repro.flow.STAGES`
            (``"expressions"``, ``"synthesis"``, ``"library"``,
            ``"circuit"``, ``"verification"``, ``"layout"``,
            ``"traces"``, ``"analysis"``, ``"assessment"``).
        value: the stage's Python value (not serialised).
        details: JSON-friendly summary of the value.
        elapsed: wall-clock seconds the stage took to compute.
    """

    stage: str
    value: Any
    details: Dict[str, Any] = field(default_factory=dict)
    elapsed: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        """Serializable record of the stage (summary only, not the value)."""
        return {
            "stage": self.stage,
            "elapsed_s": round(self.elapsed, 6),
            "details": self.details,
        }

    def details_text(self) -> str:
        """The details dict rendered as ``key=value`` pairs."""
        return ", ".join(f"{key}={value}" for key, value in self.details.items())

    def summary(self) -> str:
        """One-line human-readable summary."""
        return f"[{self.stage}] {self.details_text()} ({self.elapsed * 1e3:.1f} ms)"


class RoutedLayout:
    """The value of a routed flow's ``layout`` stage.

    The traces and assessment stages read only the rail loads of the
    circuit's gate-output nets (:meth:`rail_loads`); the whole
    :class:`repro.layout.CircuitLayout` (placement, routing, parasitics)
    is for reports and :meth:`repro.flow.DesignFlow.layout`, which read
    it through :meth:`layout`.  A store hit holds the rail loads and
    builds the layout from its stored record on the first such call.
    """

    __slots__ = ("_rail_loads", "_build", "_layout")

    def __init__(
        self,
        rail_loads: Dict[str, Tuple[float, float]],
        build: Optional[Callable[[], Any]],
    ) -> None:
        self._rail_loads = rail_loads
        self._build = build
        self._layout = None

    @classmethod
    def of(cls, layout) -> "RoutedLayout":
        """The stage value of a computed ``layout``."""
        routed = cls(layout.parasitics.rail_loads(), None)
        routed._layout = layout
        return routed

    def rail_loads(self) -> Dict[str, Tuple[float, float]]:
        """``net -> (c_true, c_false)`` of every gate-output net, the
        ``net_loads`` of the energy models."""
        return self._rail_loads

    def layout(self):
        """The whole :class:`repro.layout.CircuitLayout` (built once)."""
        if self._layout is None:
            self._layout, self._build = self._build(), None
        return self._layout


class FlowReport:
    """Ordered collection of stage results from one flow run."""

    def __init__(
        self, config: FlowConfig, results: Mapping[str, FlowResult]
    ) -> None:
        self.config = config
        self._results: Dict[str, FlowResult] = dict(results)

    @property
    def name(self) -> str:
        return self.config.name

    def stages(self) -> List[str]:
        """Names of the stages the run computed, in execution order."""
        return list(self._results)

    def __getitem__(self, stage: str) -> FlowResult:
        return self._results[stage]

    def __contains__(self, stage: str) -> bool:
        return stage in self._results

    def __iter__(self) -> Iterator[FlowResult]:
        return iter(self._results.values())

    # -------------------------------------------------------------- exports

    def to_dict(self) -> Dict[str, Any]:
        """Serializable record of the whole run (config + stage summaries).

        When the run includes the assessment stage, the per-method
        verdicts (t statistics, class statistics, ...) are serialised in
        full under ``"assessment"`` -- the stage summary alone would drop
        the per-order evidence the verdict rests on.
        """
        record = {
            "flow": self.name,
            "config": self.config.to_dict(),
            "stages": [result.to_dict() for result in self],
        }
        layout = self._results.get("layout")
        if layout is not None and layout.value is not None:
            # The full per-pair imbalance evidence (rail capacitances,
            # |dC|, worst pair), not just the stage summary.
            record["layout"] = layout.value.layout().parasitics.to_dict()
        if "assessment" in self._results:
            record["assessment"] = {
                name: outcome.to_dict()
                for name, outcome in self["assessment"].value.items()
            }
        return record

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def format_summary(self) -> str:
        """Stage-by-stage text table (via :mod:`repro.reporting`)."""
        rows = [
            [result.stage, f"{result.elapsed * 1e3:.1f}", result.details_text()]
            for result in self
        ]
        return format_table(
            ["stage", "time [ms]", "details"],
            rows,
            title=f"DesignFlow {self.name!r}",
        )

    def format_layout(self, limit: int = 12) -> str:
        """Per-pair routing imbalance table (via :mod:`repro.reporting`).

        Raises :class:`KeyError` when the run did not include the layout
        stage and :class:`ValueError` when the flow is layout-free.
        """
        routed = self["layout"].value
        if routed is None:
            raise ValueError(
                f"flow {self.name!r} is layout-free (no router configured)"
            )
        layout = routed.layout()
        return format_routing_imbalance(
            layout.parasitics,
            title=f"Routing imbalance of flow {self.name!r} "
            f"({layout.routing.router})",
            limit=limit,
        )

    def format_assessment(self) -> str:
        """Per-method leakage-assessment table (via :mod:`repro.reporting`).

        Raises :class:`KeyError` when the run did not include the
        assessment stage.
        """
        return format_leakage_assessment(
            self["assessment"].value,
            title=f"Leakage assessment of flow {self.name!r}",
        )

    def to_experiment_results(self) -> List[ExperimentResult]:
        """Experiment records for the analysis and assessment stages.

        The paper's claim is binary: the fully connected implementation
        resists the attacks that recover the key from a conventional
        one.  Each configured attack becomes one
        :class:`~repro.reporting.results.ExperimentResult` whose
        ``matches_shape`` records whether the outcome matches that claim
        for the configured network style; each assessment method
        likewise records whether its leakage verdict matches the
        configuration's protection claim.
        """
        records: List[ExperimentResult] = []
        campaign = self.config.campaign
        protected = campaign.source == "circuit" and campaign.network_style == "fc"
        model_labels = {
            "hamming": "Hamming-weight model",
            "bit": "selection-bit model",
            "distance": "Hamming-distance model",
        }
        implementation = (
            model_labels.get(campaign.model_leakage, "leakage model")
            if campaign.source == "model"
            else campaign.network_style
        )
        if campaign.scenario != "sbox":
            implementation = f"{campaign.scenario} {implementation}"
        records.extend(self._analysis_records(protected, implementation))
        records.extend(self._assessment_records(protected, implementation))
        return records

    def _analysis_records(
        self, protected: bool, implementation: str
    ) -> List[ExperimentResult]:
        if "analysis" not in self._results:
            return []
        campaign = self.config.campaign
        expected = "key not recovered" if protected else "key recovered"
        records: List[ExperimentResult] = []
        for attack_name, attack in self["analysis"].value.items():
            measured = (
                f"best guess {attack.best_guess:#x} "
                f"(correct key rank {attack.correct_key_rank})"
            )
            matches = attack.succeeded != protected
            records.append(
                ExperimentResult(
                    experiment_id=f"{self.name}/{attack_name}",
                    description=(
                        f"{attack_name} attack on the {implementation} "
                        f"implementation ({campaign.trace_count} traces)"
                    ),
                    paper_value=expected,
                    measured_value=measured,
                    matches_shape=matches,
                )
            )
        return records

    def _assessment_records(
        self, protected: bool, implementation: str
    ) -> List[ExperimentResult]:
        if "assessment" not in self._results:
            return []
        assessment = self.config.assessment
        expected = (
            "no leakage detected" if protected else "leakage detected"
        )
        records: List[ExperimentResult] = []
        for method_name, outcome in self["assessment"].value.items():
            if getattr(outcome, "leaks", None) is None:
                continue  # descriptive method without a pass/fail verdict
            describe = getattr(outcome, "describe", None)
            measured = describe() if describe else str(outcome)
            records.append(
                ExperimentResult(
                    experiment_id=f"{self.name}/assess/{method_name}",
                    description=(
                        f"{method_name} assessment of the {implementation} "
                        f"implementation ({2 * assessment.traces_per_class} "
                        f"traces)"
                    ),
                    paper_value=expected,
                    measured_value=measured,
                    matches_shape=bool(getattr(outcome, "leaks", False))
                    != protected,
                )
            )
        return records
