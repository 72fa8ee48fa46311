"""Tests for the closed backend tables of repro.flow and its siblings."""

import pytest

from repro.assess import make_noise_model
from repro.assess.noise import _NOISE_MODELS
from repro.electrical import GATE_STYLES as ENERGY_GATE_STYLES
from repro.electrical import EventEnergyModel, energy
from repro.flow import (
    ASSESSMENTS,
    ATTACKS,
    GATE_STYLES,
    SBOXES,
    TECHNOLOGIES,
    UnknownBackendError,
    get_assessment,
    get_gate_style,
    get_sbox,
    get_technology,
)
from repro.flow.registry import get_attack
from repro.layout import ROUTERS, get_router
from repro.obs import SINKS, get_sink
from repro.power import PRESENT_SBOX, acquire_model_traces
from repro.registry import lookup
from repro.sabl import SABLGate
from repro.scenarios import SCENARIOS, make_scenario


class TestRegistry:
    def test_unknown_name_lists_available(self):
        table = {"beta": 2, "alpha": 1}
        assert lookup(table, "widget", "alpha") == 1
        with pytest.raises(UnknownBackendError) as excinfo:
            lookup(table, "widget", "gamma")
        assert isinstance(excinfo.value, KeyError)
        assert str(excinfo.value) == "unknown widget 'gamma'; available: alpha, beta"


def _gate_styles_share_the_discharge_rules():
    # The flow's backends are built from the energy module's one table.
    assert set(GATE_STYLES) == set(energy._DISCHARGE_ROOTS)
    assert ENERGY_GATE_STYLES == tuple(energy._DISCHARGE_ROOTS)
    for name, backend in GATE_STYLES.items():
        assert backend.name == name
        assert backend.discharge_roots is energy._DISCHARGE_ROOTS[name]


def _sboxes_are_power_of_two_permutations():
    for name, table in SBOXES.items():
        size = len(table)
        assert size >= 2 and size & (size - 1) == 0, name
        assert sorted(table) == list(range(size)), name


#: kind -> (table, built-in names, unknown-name call, error type, message,
#: extra invariant or None).
TABLES = {
    "technology": (
        TECHNOLOGIES,
        {"generic_180nm", "generic_130nm", "generic_65nm"},
        lambda: get_technology("generic_45nm"),
        UnknownBackendError,
        "unknown technology 'generic_45nm'; available: "
        "generic_130nm, generic_180nm, generic_65nm",
        None,
    ),
    "gate_style": (
        GATE_STYLES,
        {"sabl", "cvsl"},
        lambda: get_gate_style("ecrl"),
        UnknownBackendError,
        "unknown gate style 'ecrl'; available: cvsl, sabl",
        _gate_styles_share_the_discharge_rules,
    ),
    "attack": (
        ATTACKS,
        {"dom", "cpa"},
        lambda: get_attack("template"),
        UnknownBackendError,
        "unknown attack 'template'; available: cpa, dom",
        None,
    ),
    "sbox": (
        SBOXES,
        {"present", "aes"},
        lambda: get_sbox("des"),
        UnknownBackendError,
        "unknown sbox 'des'; available: aes, present",
        _sboxes_are_power_of_two_permutations,
    ),
    "assessment": (
        ASSESSMENTS,
        {"ttest", "stats"},
        lambda: get_assessment("snr"),
        UnknownBackendError,
        "unknown assessment 'snr'; available: stats, ttest",
        None,
    ),
    "sink": (
        SINKS,
        {"null", "jsonl", "console"},
        lambda: get_sink("statsd"),
        UnknownBackendError,
        "unknown sink 'statsd'; available: console, jsonl, null",
        None,
    ),
    "router": (
        ROUTERS,
        {"fat", "diffpair", "unbalanced"},
        lambda: get_router("steiner"),
        UnknownBackendError,
        "unknown router 'steiner'; available: diffpair, fat, unbalanced",
        None,
    ),
    "scenario": (
        SCENARIOS,
        {"sbox", "present_round", "present_rounds"},
        lambda: make_scenario("aes_round", key=0x1),
        UnknownBackendError,
        "unknown scenario 'aes_round'; available: "
        "present_round, present_rounds, sbox",
        None,
    ),
    "noise_model": (
        _NOISE_MODELS,
        {"gaussian", "quantization", "jitter"},
        lambda: make_noise_model("drift"),
        ValueError,
        "unknown noise model 'drift'; available: gaussian, jitter, quantization",
        None,
    ),
}


class TestBuiltinTables:
    @pytest.mark.parametrize("kind", sorted(TABLES))
    def test_builtin_table(self, kind):
        table, names, unknown, error, message, invariant = TABLES[kind]
        assert isinstance(table, dict)
        assert set(table) == names
        with pytest.raises(error) as excinfo:
            unknown()
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message
        if invariant is not None:
            invariant()


class TestBuiltinBackends:
    def test_builtin_technologies(self):
        assert {"generic_180nm", "generic_130nm", "generic_65nm"} <= set(TECHNOLOGIES)
        assert get_technology("generic_130nm").name == "generic-130nm"

    def test_builtin_gate_styles(self):
        assert {"sabl", "cvsl"} <= set(GATE_STYLES)
        backend = get_gate_style("sabl")
        assert backend.gate_cls is SABLGate

    def test_builtin_attacks_run(self):
        from repro.flow import AnalysisConfig

        traces = acquire_model_traces(key=0x7, trace_count=200, noise_std=0.25, seed=5)
        for name in ("dom", "cpa"):
            result = get_attack(name)(traces, PRESENT_SBOX, AnalysisConfig())
            assert len(result.scores) == 16

    def test_builtin_sboxes(self):
        assert get_sbox("present") == PRESENT_SBOX
        assert len(get_sbox("aes")) == 256

    def test_unknown_gate_style_message(self):
        with pytest.raises(UnknownBackendError, match="sabl"):
            get_gate_style("ecrl")


class TestGateStyleRegistration:
    def test_unknown_style_rejected_by_models(self, and2_fc):
        with pytest.raises(ValueError, match="unknown gate style"):
            EventEnergyModel(and2_fc, style="nonsense")
