"""Composable pipeline API over the paper's design and evaluation chain.

:class:`DesignFlow` runs expr -> FC-DPDN synthesis -> verification ->
cell/library build -> differential circuit -> trace campaign -> DPA from
one validated config; backends (technologies, gate styles, attacks,
S-boxes, assessments) are chosen by name from closed tables of built-ins.

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
    GATE_STYLES,
    SBOXES,
    TECHNOLOGIES,
    AssessmentMethod,
    GateStyleBackend,
    UnknownBackendError,
    get_assessment,
    get_attack,
    get_gate_style,
    get_sbox,
    get_technology,
)
from .results import FlowReport, FlowResult

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
    # pipeline
    "STAGES",
    "DesignFlow",
    "FlowError",
    # results
    "FlowResult",
    "FlowReport",
]
