"""repro: fully connected differential pull-down networks for constant-power logic.

A from-scratch Python reproduction of "Design Method for Constant Power
Consumption of Differential Logic Circuits" (Tiri & Verbauwhede, DATE
2005): Boolean-expression and switch-level netlist substrates, the
paper's synthesis / transformation / enhancement methods, charge-based
and transient electrical models of SABL and CVSL gates, and a
differential-power-analysis harness that demonstrates the protection.

The canonical entry point is the :mod:`repro.flow` pipeline::

    from repro import DesignFlow

    flow = DesignFlow.sbox(key=0xB, trace_count=2000, noise_std=0.002)
    report = flow.run()
    print(report.format_summary())

The single-gate substrate remains available directly::

    from repro import parse, synthesize_fc_dpdn, verify_gate

    dpdn = synthesize_fc_dpdn(parse("(A | B) & C"))
    print(verify_gate(dpdn).describe())

The loose top-level stage functions (``synthesize_fc_dpdn``,
``verify_gate``, ...) are kept as thin delegating re-exports for
existing code; new code should compose stages through
:class:`~repro.flow.DesignFlow` and the config objects instead.
"""

from .boolexpr import Expr, Var, And, Or, Not, Xor, parse, truth_table, equivalent, vars_
from .network import (
    DifferentialPullDownNetwork,
    Literal,
    Transistor,
    build_genuine_dpdn,
    is_fully_connected,
    to_spice_subckt,
)
from .core import (
    STANDARD_CELL_SPECS,
    build_cell,
    build_library,
    enhance_fc_dpdn,
    synthesize_fc_dpdn,
    transform_to_fc,
    verify_gate,
)
from .electrical import Technology, generic_180nm, EventEnergyModel, CycleEnergySimulator
from .sabl import (
    SABLGate,
    CVSLGate,
    map_expressions,
    BatchedCircuitEnergyModel,
    CircuitPowerSimulator,
)
from .power import (
    PRESENT_SBOX,
    build_sbox_circuit,
    cpa_correlation,
    dpa_difference_of_means,
    energy_statistics,
)
from .assess import (
    MTDCurve,
    StreamingMoments,
    TVLAResult,
    make_noise_model,
    success_rate_curve,
    ttest_fixed_vs_random,
)
from .flow import (
    AnalysisConfig,
    AssessmentConfig,
    CampaignConfig,
    CellConfig,
    DesignFlow,
    ExecutionConfig,
    FlowConfig,
    FlowError,
    FlowReport,
    FlowResult,
    LayoutConfig,
    ObservabilityConfig,
    ScenarioConfig,
    SynthesisConfig,
    TechnologyConfig,
)
from .scenarios import (
    Scenario,
    ScenarioError,
    get_scenario,
    make_scenario,
)
from .kernel import CompiledProgram, compile_circuit
from .obs import (
    Observer,
    get_observer,
    summarize_trace_file,
    use_observer,
)

__version__ = "18.0.0"


__all__ = [
    "__version__",
    # flow (the canonical pipeline API)
    "DesignFlow",
    "ExecutionConfig",
    "FlowConfig",
    "FlowError",
    "FlowResult",
    "FlowReport",
    "SynthesisConfig",
    "TechnologyConfig",
    "CellConfig",
    "LayoutConfig",
    "ScenarioConfig",
    "CampaignConfig",
    "AnalysisConfig",
    "AssessmentConfig",
    "ObservabilityConfig",
    # scenarios
    "Scenario",
    "ScenarioError",
    "get_scenario",
    "make_scenario",
    # kernel (the compiled bit-sliced simulator)
    "CompiledProgram",
    "compile_circuit",
    # obs (observability)
    "Observer",
    "get_observer",
    "use_observer",
    "summarize_trace_file",
    # assess (leakage assessment)
    "StreamingMoments",
    "TVLAResult",
    "ttest_fixed_vs_random",
    "make_noise_model",
    "MTDCurve",
    "success_rate_curve",
    # boolexpr
    "Expr", "Var", "And", "Or", "Not", "Xor", "parse", "truth_table", "equivalent", "vars_",
    # network
    "DifferentialPullDownNetwork", "Literal", "Transistor", "build_genuine_dpdn",
    "is_fully_connected", "to_spice_subckt",
    # core
    "synthesize_fc_dpdn", "transform_to_fc", "enhance_fc_dpdn", "verify_gate",
    "build_cell", "build_library", "STANDARD_CELL_SPECS",
    # electrical
    "Technology", "generic_180nm", "EventEnergyModel", "CycleEnergySimulator",
    # sabl
    "SABLGate", "CVSLGate", "map_expressions", "CircuitPowerSimulator",
    "BatchedCircuitEnergyModel",
    # power
    "PRESENT_SBOX", "build_sbox_circuit",
    "dpa_difference_of_means", "cpa_correlation", "energy_statistics",
]
