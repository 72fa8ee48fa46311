"""Built-in multi-round cipher-datapath scenarios for the flow pipeline.

The evaluation chain is workload-agnostic from synthesis down to the
assessment statistics; this package supplies the workloads.  A scenario
bundles (a) per-output-bit Boolean expressions that feed the existing
synthesis/FC-DPDN/cell pipeline unchanged, (b) a pure-Python golden
``encrypt()`` reference the conformance suite checks the synthesized
circuit against, and (c) declared attack points (target round, S-box and
selection function) the analysis and assessment stages consume.

Select a scenario through the campaign config::

    from repro.flow import CampaignConfig, DesignFlow, FlowConfig, ScenarioConfig

    flow = DesignFlow.sbox(config=FlowConfig(
        campaign=CampaignConfig(key=0x6B, scenario="present_round"),
        scenario=ScenarioConfig(params={"sboxes": 2}),
    ))

or from the CLI: ``repro run --scenario present_round --scenario-param
sboxes=2`` and ``repro sweep --axis scenario=sbox,present_round``.
"""

from .base import (
    MAX_EXPRESSION_SUPPORT,
    MAX_STATE_TABLE_WIDTH,
    MODEL_LEAKAGES,
    AttackPoint,
    Scenario,
    ScenarioError,
    popcount,
)
from .present import (
    SUPPORTED_SBOX_COUNTS,
    PresentRoundScenario,
    PresentRoundsScenario,
    apply_bit_permutation,
    player_inverse,
    player_permutation,
    present80_encrypt,
    present80_round_keys,
    present_round_keys,
)
from .registry import (
    SCENARIOS,
    ScenarioFactory,
    get_scenario,
    make_scenario,
)
from .sbox import SboxScenario

__all__ = [
    # base
    "Scenario",
    "ScenarioError",
    "AttackPoint",
    "popcount",
    "MODEL_LEAKAGES",
    "MAX_STATE_TABLE_WIDTH",
    "MAX_EXPRESSION_SUPPORT",
    # present
    "SUPPORTED_SBOX_COUNTS",
    "player_permutation",
    "player_inverse",
    "apply_bit_permutation",
    "present_round_keys",
    "PresentRoundScenario",
    "PresentRoundsScenario",
    "present80_round_keys",
    "present80_encrypt",
    # sbox
    "SboxScenario",
    # name table
    "SCENARIOS",
    "ScenarioFactory",
    "get_scenario",
    "make_scenario",
]
