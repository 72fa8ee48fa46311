"""Composable pipeline API over the paper's design and evaluation chain.

:class:`DesignFlow` runs expr -> cell/library build -> differential
circuit -> verification of its gate templates -> trace campaign -> DPA
from one validated config; backends (technologies, gate styles, attacks,
S-boxes, assessments) are chosen by name from closed tables of built-ins.
Whole-output FC-DPDN synthesis (one verified network per output, shaped
by :class:`SynthesisConfig`) is the ``synthesis`` stage: part of an
expression flow's default run, on demand for a scenario flow.

Quick start::

    from repro.flow import DesignFlow

    flow = DesignFlow.sbox(key=0xB, trace_count=2000, noise_std=0.002)
    report = flow.run()
    print(report.format_summary())
    assert not flow.analysis()["dom"].succeeded   # protected circuit resists
"""

from .config import (
    AnalysisConfig,
    AssessmentConfig,
    CampaignConfig,
    CellConfig,
    ConfigError,
    ExecutionConfig,
    FlowConfig,
    LayoutConfig,
    ObservabilityConfig,
    ScenarioConfig,
    SynthesisConfig,
    TechnologyConfig,
)
from .pipeline import STAGES, DesignFlow, FlowError
from .registry import (
    ASSESSMENTS,
    ATTACKS,
    SBOXES,
    TECHNOLOGIES,
    AssessmentMethod,
    UnknownBackendError,
    get_assessment,
    get_attack,
    get_sbox,
    get_technology,
)
from .results import FlowReport, FlowResult, RoutedLayout

__all__ = [
    # config
    "ConfigError",
    "SynthesisConfig",
    "TechnologyConfig",
    "CellConfig",
    "LayoutConfig",
    "ScenarioConfig",
    "CampaignConfig",
    "AnalysisConfig",
    "AssessmentConfig",
    "ExecutionConfig",
    "ObservabilityConfig",
    "FlowConfig",
    # backend tables
    "UnknownBackendError",
    "TECHNOLOGIES",
    "ATTACKS",
    "SBOXES",
    "ASSESSMENTS",
    "AssessmentMethod",
    "get_technology",
    "get_attack",
    "get_sbox",
    "get_assessment",
    # pipeline
    "STAGES",
    "DesignFlow",
    "FlowError",
    # results
    "FlowResult",
    "RoutedLayout",
    "FlowReport",
]
