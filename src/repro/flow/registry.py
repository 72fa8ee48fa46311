"""The closed backend tables behind the flow configs' name fields.

Five tables, each a plain ``dict`` of the built-ins, back the
string-valued fields of the flow configs:

* :data:`TECHNOLOGIES` -- technology-card factories
  (``generic_180nm``, ``generic_130nm``, ``generic_65nm``); a custom card
  is a built-in plus :attr:`~repro.flow.config.TechnologyConfig.overrides`;
* :data:`GATE_STYLES` -- differential gate styles (``sabl``, ``cvsl``):
  the gate class used for single-gate views plus the discharge rule the
  charge models use, built from the energy module's one table of rules;
* :data:`ATTACKS` -- side-channel analysis methods (``dom``
  difference-of-means DPA and ``cpa``);
* :data:`SBOXES` -- substitution boxes for the crypto workload
  (``present``, ``aes``);
* :data:`ASSESSMENTS` -- streaming leakage-assessment methods (``ttest``
  fixed-vs-random TVLA and ``stats`` per-class energy statistics, see
  :mod:`repro.assess`).

The ``get_*`` functions are the read path; an unknown name raises
:class:`~repro.registry.UnknownBackendError` listing the available ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

from ..registry import UnknownBackendError, lookup
from ..electrical import energy as _energy
from ..electrical.technology import (
    Technology,
    generic_130nm,
    generic_180nm,
    generic_65nm,
)
from ..network.netlist import DifferentialPullDownNetwork
from ..power.crypto import AES_SBOX, PRESENT_SBOX
from ..power.dpa import AttackResult, cpa_correlation, dpa_difference_of_means
from ..power.trace import TraceSet
from ..assess.accumulators import ClassEnergyStats
from ..assess.ttest import TVLATTest
from ..sabl.cvsl import CVSLGate
from ..sabl.gate import SABLGate
from .config import AnalysisConfig, AssessmentConfig

__all__ = [
    "UnknownBackendError",
    "GateStyleBackend",
    "TECHNOLOGIES",
    "GATE_STYLES",
    "ATTACKS",
    "SBOXES",
    "ASSESSMENTS",
    "AssessmentMethod",
    "get_technology",
    "get_gate_style",
    "get_attack",
    "get_sbox",
    "get_assessment",
]


# ------------------------------------------------------------------ technologies

#: Technology-card factories, keyed by card name.
TECHNOLOGIES: Dict[str, Callable[[], Technology]] = {
    "generic_180nm": generic_180nm,
    "generic_130nm": generic_130nm,
    "generic_65nm": generic_65nm,
}


def get_technology(name: str) -> Technology:
    """A fresh instance of the technology card named ``name``."""
    return lookup(TECHNOLOGIES, "technology", name)()


# ------------------------------------------------------------------- gate styles


@dataclass(frozen=True)
class GateStyleBackend:
    """One differential gate style.

    ``gate_cls`` wraps a DPDN for the single-gate views (charge sweep and
    transient simulation); ``discharge_roots`` is the charge-model rule:
    which DPDN nodes are pulled low during evaluation.
    """

    name: str
    gate_cls: Callable[..., object]
    discharge_roots: Callable[[DifferentialPullDownNetwork], Tuple[str, ...]]

    def make_gate(self, dpdn: DifferentialPullDownNetwork, **kwargs):
        """Instantiate the style's gate around ``dpdn``."""
        return self.gate_cls(dpdn, **kwargs)


#: Differential gate styles, keyed by style name.  Each discharge rule
#: comes from the energy module's table, which the charge models read.
GATE_STYLES: Dict[str, GateStyleBackend] = {
    name: GateStyleBackend(name, gate_cls, _energy._DISCHARGE_ROOTS[name])
    for name, gate_cls in (("sabl", SABLGate), ("cvsl", CVSLGate))
}


def get_gate_style(name: str) -> GateStyleBackend:
    """The gate style backend named ``name``."""
    return lookup(GATE_STYLES, "gate style", name)


# ----------------------------------------------------------------------- attacks

#: An attack backend: ``(traces, sbox, analysis_config) -> AttackResult``.
AttackFn = Callable[[TraceSet, Sequence[int], AnalysisConfig], AttackResult]

def _dom_attack(
    traces: TraceSet, sbox: Sequence[int], config: AnalysisConfig
) -> AttackResult:
    return dpa_difference_of_means(
        traces, sbox, target_bit=config.target_bit, key_space=config.key_space
    )


def _cpa_attack(
    traces: TraceSet, sbox: Sequence[int], config: AnalysisConfig
) -> AttackResult:
    return cpa_correlation(traces, sbox, key_space=config.key_space)


#: Side-channel attack methods, keyed by short name.
ATTACKS: Dict[str, AttackFn] = {"dom": _dom_attack, "cpa": _cpa_attack}


def get_attack(name: str) -> AttackFn:
    """The attack backend named ``name``."""
    return lookup(ATTACKS, "attack", name)


# ------------------------------------------------------------------------ sboxes

#: Substitution boxes (permutations of a power-of-two size), keyed by
#: cipher name.
SBOXES: Dict[str, Tuple[int, ...]] = {
    "present": PRESENT_SBOX,
    "aes": AES_SBOX,
}


def get_sbox(name: str) -> Tuple[int, ...]:
    """The S-box named ``name``."""
    return lookup(SBOXES, "sbox", name)


# ------------------------------------------------------------------- assessments


class AssessmentMethod:
    """Structural interface of a streaming assessment method.

    The pipeline's assessment stage feeds every configured method the
    same stream of :class:`repro.assess.accumulators.AssessmentChunk`
    objects through ``update`` and collects each method's result object
    (anything with ``to_dict()``, ``summary_rows()`` and a ``leaks``
    attribute) from ``finalize``.  Duck typing suffices; this class just
    documents the contract.
    """

    def update(self, chunk) -> None:  # pragma: no cover - interface only
        raise NotImplementedError

    def finalize(self):  # pragma: no cover - interface only
        raise NotImplementedError


#: An assessment factory: ``(AssessmentConfig) -> AssessmentMethod``.
AssessmentFactory = Callable[[AssessmentConfig], AssessmentMethod]


def _ttest_assessment(config: AssessmentConfig) -> TVLATTest:
    return TVLATTest(orders=config.orders, threshold=config.threshold)


def _stats_assessment(config: AssessmentConfig) -> ClassEnergyStats:
    return ClassEnergyStats()


#: Streaming leakage-assessment methods, keyed by short name.  Each
#: factory receives the flow's :class:`~repro.flow.config.AssessmentConfig`
#: and returns a fresh method (see :class:`AssessmentMethod`) per campaign.
ASSESSMENTS: Dict[str, AssessmentFactory] = {
    "ttest": _ttest_assessment,
    "stats": _stats_assessment,
}


def get_assessment(name: str) -> AssessmentFactory:
    """The assessment factory named ``name``."""
    return lookup(ASSESSMENTS, "assessment", name)
