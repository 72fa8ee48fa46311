"""The routed layout as an artifact-store entry: codec, keys, hits, healing."""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

import repro.layout
from repro.engine import ArtifactStore, content_key, store_record
from repro.engine.stored import netlist_record
from repro.flow import (
    AssessmentConfig,
    CampaignConfig,
    DesignFlow,
    ExecutionConfig,
    FlowConfig,
    LayoutConfig,
    ScenarioConfig,
)
from repro.layout import CircuitLayout, LayoutError
from repro.obs import BufferSink, Observer, use_observer

ROUTERS = ("fat", "diffpair", "unbalanced")


def _flow(router="fat", sboxes=None, store=None, name="routed", assessment=False):
    """A routed S-box flow (``sboxes=None``) or PRESENT round slice."""
    if sboxes is None:
        campaign = CampaignConfig(key=0xB, trace_count=64)
        scenario = ScenarioConfig()
    else:
        campaign = CampaignConfig(
            key=0xB if sboxes == 1 else 0x6B,
            scenario="present_round",
            trace_count=64,
        )
        scenario = ScenarioConfig(params={"sboxes": sboxes})
    config = FlowConfig(
        name=name,
        campaign=campaign,
        scenario=scenario,
        layout=LayoutConfig(router=router),
        assessment=AssessmentConfig(enabled=assessment, traces_per_class=128),
        execution=ExecutionConfig(store=None if store is None else str(store)),
    )
    return DesignFlow(None, config)


def _events(compute):
    buffer = []
    with use_observer(Observer((BufferSink(buffer),))):
        compute()
    return buffer


def _refuse_place_and_route(monkeypatch):
    """Make any place-and-route from here on fail the test."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("a layout hit must not place the circuit")

    monkeypatch.setattr(repro.layout, "place_circuit", refuse)
    monkeypatch.setattr(repro.layout, "route_circuit", refuse)


def _store_counters(events, name):
    return [
        e["attrs"]["kind"]
        for e in events
        if e["kind"] == "counter" and e["name"] == name
    ]


class TestCodec:
    @pytest.mark.parametrize("sboxes", [None, 1, 2])
    @pytest.mark.parametrize("router", ROUTERS)
    def test_stored_then_loaded_layout_equals_the_computed_one(
        self, tmp_path, router, sboxes
    ):
        computed = _flow(router, sboxes, store=tmp_path / "store")
        original = computed.layout()
        assert computed.result("layout").details  # a routed stage reports
        # Through the JSON text, exactly as the store writes it.
        text = json.dumps(original.to_record(), sort_keys=True)
        assert CircuitLayout.from_record(json.loads(text)) == original
        # And through the store: a fresh flow loads the entry.
        loaded = _flow(router, sboxes, store=tmp_path / "store")
        events = _events(loaded.layout)
        assert _store_counters(events, "store.hit") == ["layout"]
        assert loaded.layout() == original
        assert loaded.layout().parasitics.rail_loads() == (
            original.parasitics.rail_loads()
        )
        assert list(loaded.layout().parasitics.rail_loads()) == list(
            original.parasitics.rail_loads()
        )

    def test_cell_sets_are_flat_site_indices(self):
        layout = _flow("diffpair").layout()
        record = layout.to_record()
        rows, cols = record["grid"]
        net, _, _, true_cells, false_cells = record["routing"]["nets"][0]
        routed = layout.routing.nets[net]
        assert true_cells == sorted(r * cols + c for r, c in routed.true_cells)
        assert false_cells == sorted(r * cols + c for r, c in routed.false_cells)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda record: record.update(grid="bogus"),
            lambda record: record.pop("parasitics"),
            lambda record: record["routing"]["nets"][0].__setitem__(3, [-1]),
            lambda record: record["routing"]["nets"][0].__setitem__(3, [10**6]),
            lambda record: record["placement"]["gates"][0].__setitem__(1, "x"),
            lambda record: record["parasitics"]["annotatable"].append("nowhere"),
        ],
    )
    def test_a_malformed_record_is_a_layout_error(self, damage):
        record = _flow("fat").layout().to_record()
        damage(record)
        with pytest.raises(LayoutError, match="malformed layout record"):
            CircuitLayout.from_record(record)


class TestKeys:
    def test_the_flow_name_is_part_of_the_layout_key(self):
        first = _flow(name="a")
        second = _flow(name="zzz")
        # Gate and net names embed the flow name, so the layouts differ...
        assert set(first.layout().routing.nets) != set(second.layout().routing.nets)
        assert content_key(store_record(first, "layout")) != content_key(
            store_record(second, "layout")
        )
        # ...while the traces those layouts back-annotate share one key.
        assert content_key(store_record(first, "traces")) == content_key(
            store_record(second, "traces")
        )

    def test_layout_keys_differ_from_the_other_stages(self):
        flow = _flow(assessment=True)
        keys = {
            content_key(store_record(flow, stage))
            for stage in ("layout", "traces", "assessment")
        }
        assert len(keys) == 3



def _section(section, **changes):
    """A config edit replacing fields of one config section."""
    return lambda config: config.replace(
        **{section: getattr(config, section).replace(**changes)}
    )


def _key_flow(edit=lambda config: config, store=None):
    """The routed 2-S-box PRESENT slice of :func:`_flow`, one config edit
    applied."""
    return DesignFlow(None, edit(_flow(sboxes=2, store=store, name="keys").config))


def _layout_key(flow):
    return content_key(store_record(flow, "layout"))


class TestKeyCompleteness:
    """The layout key holds exactly what place-and-route reads."""

    #: Edits that leave the mapped circuit's nets, the technology and the
    #: layout config alone: the campaign's key only swaps rails.
    INERT = {
        "campaign.key": _section("campaign", key=0xA4),
        "campaign.seed": _section("campaign", seed=99),
        "campaign.trace_count": _section("campaign", trace_count=300),
        "campaign.noise_std": _section("campaign", noise_std=0.05),
        "campaign.gate_style": _section("campaign", gate_style="cvsl"),
        "assessment": _section(
            "assessment", enabled=True, traces_per_class=128, seed=3
        ),
        "analysis": _section("analysis", attacks=("dom",), target_bit=2),
        "execution": _section("execution", workers=2, shard_size=512),
        "obs": _section("obs", trace=os.devnull, profile=True),
        "synthesis": _section("synthesis", enhance=True),
    }

    #: Edits that change what place-and-route reads.
    KEYED = {
        "campaign.network_style": _section("campaign", network_style="genuine"),
        "campaign.max_fanin": _section("campaign", max_fanin=3),
        "scenario.sboxes": lambda config: config.replace(
            campaign=config.campaign.replace(key=0xB),
            scenario=ScenarioConfig(params={"sboxes": 1}),
        ),
        "campaign.scenario": _section("campaign", scenario="present_rounds"),
        "name": lambda config: config.replace(name="other"),
        "technology.name": _section("technology", name="generic_130nm"),
        "technology.overrides": _section(
            "technology", overrides={"c_wire_per_um": 1e-16}
        ),
        "layout.router": _section("layout", router="unbalanced"),
        "layout.seed": _section("layout", seed=7),
        "layout.grid": _section("layout", grid=(20, 21)),
        "layout.anneal_moves": _section("layout", anneal_moves=200),
    }

    @pytest.mark.parametrize("field", sorted(INERT))
    def test_an_inert_field_keeps_the_key_and_the_layout(self, field):
        base = _key_flow()
        edited = _key_flow(self.INERT[field])
        assert edited.config != base.config
        assert _layout_key(edited) == _layout_key(base)
        assert edited.layout().to_record() == base.layout().to_record()

    @pytest.mark.parametrize("field", sorted(KEYED))
    def test_a_keyed_field_changes_the_key(self, field):
        assert _layout_key(_key_flow(self.KEYED[field])) != _layout_key(_key_flow())

    def test_every_layout_field_is_keyed(self):
        fields = {f"layout.{f.name}" for f in dataclasses.fields(LayoutConfig)}
        assert fields <= set(self.KEYED)

    def test_the_netlist_digest_reads_wires_not_rails(self):
        circuit = _key_flow().circuit()
        record = netlist_record(circuit)
        circuit.gate_inverted[:, 0] ^= True
        assert netlist_record(circuit) == record
        circuit.gate_inputs[-1, [0, 1]] = circuit.gate_inputs[-1, [1, 0]]
        assert netlist_record(circuit) != record

    def test_scenarios_that_map_one_netlist_share_one_layout(self):
        # The paper's S-box and a one-S-box PRESENT slice map to the same
        # nets, so they place and route to one layout under one key.
        slice_flow = _flow(sboxes=1)
        sbox_flow = _flow()
        assert slice_flow.config.campaign.scenario != sbox_flow.config.campaign.scenario
        assert _layout_key(slice_flow) == _layout_key(sbox_flow)
        assert slice_flow.layout().to_record() == sbox_flow.layout().to_record()

    def test_a_new_campaign_on_a_routed_circuit_runs_no_place_and_route(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "store"
        first = _key_flow(store=store)
        first.layout()
        campaign = _section(
            "campaign", key=0x3C, seed=17, trace_count=200, gate_style="cvsl"
        )
        unstored = _key_flow(campaign).traces()
        _refuse_place_and_route(monkeypatch)
        second = _key_flow(campaign, store=store)
        events = _events(second.traces)
        assert _store_counters(events, "store.hit") == ["layout"]
        assert _store_counters(events, "store.miss") == ["traces"]
        assert second.layout() == first.layout()
        traces = second.traces()
        assert np.array_equal(traces.plaintexts, unstored.plaintexts)
        assert np.array_equal(traces.traces, unstored.traces)


class TestRoutedHits:
    def test_a_hit_runs_no_place_and_route(self, tmp_path, monkeypatch):
        _flow(store=tmp_path / "store").layout()
        _refuse_place_and_route(monkeypatch)
        hit = _flow(store=tmp_path / "store")
        events = _events(hit.layout)
        assert _store_counters(events, "store.hit") == ["layout"]
        assert _store_counters(events, "store.miss") == []
        spans = [e["name"] for e in events if e["kind"] == "span.end"]
        assert spans == ["stage.expressions", "stage.circuit", "stage.layout"]

    def test_a_hit_reports_what_the_miss_reported(self, tmp_path):
        miss = _flow(store=tmp_path / "store", assessment=True)
        miss_report = miss.run()
        hit = _flow(store=tmp_path / "store", assessment=True)
        hit_report = hit.run()
        assert hit.layout() == miss.layout()
        miss_details = miss_report["layout"].details
        hit_details = hit_report["layout"].details
        assert "store" not in hit_details
        assert list(hit_details.items()) == list(miss_details.items())
        assert json.dumps(hit_report.to_dict()["layout"]) == json.dumps(
            miss_report.to_dict()["layout"]
        )
        assert hit_report["traces"].details["store"] == "hit"
        assert hit_report["assessment"].details["store"] == "hit"

    def test_loaded_rail_loads_reacquire_bit_identical_traces(self, tmp_path):
        store_path = tmp_path / "store"
        miss = _flow("unbalanced", 2, store=store_path)
        original = miss.traces()
        store = ArtifactStore(store_path)
        store._discard(content_key(store_record(miss, "traces")))

        reacquired = _flow("unbalanced", 2, store=store_path)
        events = _events(reacquired.traces)
        assert _store_counters(events, "store.hit") == ["layout"]
        assert _store_counters(events, "store.miss") == ["traces"]
        traces = reacquired.traces()
        assert np.array_equal(traces.traces, original.traces)
        assert np.array_equal(traces.plaintexts, original.plaintexts)


class TestHealing:
    #: A payload each stage's decoder refuses, keyed by entry kind.
    BAD_PAYLOADS = {
        "assessment": {"ttest": {"method": "bogus"}},
        "layout": {"layout": {"grid": "bogus"}, "details": []},
    }

    @staticmethod
    def _key(flow, kind):
        return content_key(store_record(flow, kind))

    @pytest.mark.parametrize("kind", ["assessment", "layout"])
    def test_an_undecodable_entry_is_removed_and_rewritten(self, tmp_path, kind):
        store_path = tmp_path / "store"
        first = _flow(store=store_path, assessment=True)
        first.assessment()
        key = self._key(first, kind)
        store = ArtifactStore(store_path)
        meta_path = store.path(key) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["payload"] = self.BAD_PAYLOADS[kind]
        meta_path.write_text(json.dumps(meta))

        bad_read = _flow(store=store_path, assessment=True)
        events = _events(bad_read.assessment)
        assert kind in _store_counters(events, "store.miss")
        assert kind not in _store_counters(events, "store.hit")
        # The bad entry went on read; the recompute wrote a good one.
        assert json.loads(meta_path.read_text())["payload"] != self.BAD_PAYLOADS[kind]
        if kind == "assessment":
            assert bad_read.result("assessment").details["store"] == "miss"
        else:
            assert bad_read.layout() == first.layout()

        healed = _flow(store=store_path, assessment=True)
        events = _events(healed.assessment)
        assert kind in _store_counters(events, "store.hit")
        assert _store_counters(events, "store.miss") == []
        assert healed.result("assessment").details["store"] == "hit"

    @pytest.mark.parametrize("kind", ["assessment", "layout"])
    def test_one_bad_read_removes_the_entry(self, tmp_path, kind):
        store = ArtifactStore(tmp_path / "store")
        key = "7" * 64
        store.put_json(key, self.BAD_PAYLOADS[kind], {"stage": kind}, kind=kind)
        flow = _flow(assessment=True)
        decode = {
            "assessment": flow._decode_assessment,
            "layout": lambda payload: CircuitLayout.from_record(payload["layout"]),
        }[kind]
        assert store.get_json(key, kind=kind, decode=decode) is None
        assert key not in store
        assert store.misses == 1 and store.hits == 0
