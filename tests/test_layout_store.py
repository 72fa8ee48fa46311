"""The routed layout as an artifact-store entry: codec, keys, hits, healing."""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

import repro.layout
import repro.engine.runner as runner
from repro.engine import ArtifactStore, content_key, store_record
from repro.engine.store import _STORE_FORMAT
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


def _refuse_layout_decoding(monkeypatch):
    """Make any decode of a whole stored layout fail the test."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("a layout hit must not decode the whole layout")

    monkeypatch.setattr(CircuitLayout, "from_record", refuse)


def _assessment_record(flow):
    return {name: outcome.to_dict() for name, outcome in flow.assessment().items()}


class TestRailLoadsEntry:
    """A layout entry's payload is its rail loads and details; the whole
    layout is a part of its own, read only by ``flow.layout()``."""

    @staticmethod
    def _stored(store_path):
        """A routed 2-S-box slice whose layout entry is in the store."""
        miss = _flow("unbalanced", 2, store=store_path, assessment=True)
        miss.layout()
        key = content_key(store_record(miss, "layout"))
        return miss, ArtifactStore(store_path), key

    def test_the_entry_keeps_the_whole_layout_apart(self, tmp_path):
        miss, store, key = self._stored(tmp_path / "store")
        meta = json.loads((store.path(key) / "meta.json").read_text())
        assert meta["format"] == _STORE_FORMAT
        assert meta["parts"] == ["layout"]
        assert sorted(meta["payload"]) == ["details", "rail_loads"]
        loads = miss.layout().parasitics.rail_loads()
        assert meta["payload"]["rail_loads"] == {
            "nets": list(loads),
            "c_true": [pair[0] for pair in loads.values()],
            "c_false": [pair[1] for pair in loads.values()],
        }
        assert store.get_part(key, "layout") == miss.layout().to_record()

    @pytest.mark.parametrize("stage", ["traces", "assessment"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_routed_campaign_on_a_layout_hit_decodes_no_layout(
        self, tmp_path, monkeypatch, stage, workers
    ):
        miss, _, _ = self._stored(tmp_path / "store")
        unstored = _flow("unbalanced", 2, assessment=True)
        _refuse_layout_decoding(monkeypatch)
        shipped = []
        map_payloads = runner.map_payloads

        def recording(payloads, *args, **kwargs):
            shipped.extend(payload[3] for payload in payloads)
            return map_payloads(payloads, *args, **kwargs)

        monkeypatch.setattr(runner, "map_payloads", recording)
        hit = DesignFlow(
            None,
            _flow("unbalanced", 2, store=tmp_path / "store", assessment=True).config.replace(
                execution=ExecutionConfig(store=str(tmp_path / "store"), workers=workers)
            ),
        )
        events = _events(lambda: getattr(hit, stage)())
        assert _store_counters(events, "store.hit") == ["layout"]
        assert _store_counters(events, "store.miss") == [stage]
        if stage == "traces":
            assert np.array_equal(hit.traces().traces, unstored.traces().traces)
            assert np.array_equal(hit.traces().plaintexts, unstored.traces().plaintexts)
        else:
            assert _assessment_record(hit) == _assessment_record(unstored)
        # Every shard carries the rail loads, not a layout.
        loads = miss.layout().parasitics.rail_loads()
        assert shipped and all(payload == loads for payload in shipped)
        monkeypatch.undo()
        assert hit.layout() == miss.layout()

    def test_a_hit_and_a_miss_report_alike(self, tmp_path):
        store_path = tmp_path / "store"
        miss = _flow("unbalanced", 2, store=store_path, assessment=True)
        miss_report = miss.run()
        for stage in ("traces", "assessment"):
            ArtifactStore(store_path)._discard(content_key(store_record(miss, stage)))
        hit = _flow("unbalanced", 2, store=store_path, assessment=True)
        events = _events(hit.run)
        hit_report = hit.report()
        assert _store_counters(events, "store.hit") == ["layout"]

        def stages(report):
            return [
                {key: value for key, value in stage.items() if key != "elapsed_s"}
                for stage in report.to_dict()["stages"]
            ]

        assert stages(hit_report) == stages(miss_report)
        assert json.dumps(hit_report.to_dict()["layout"]) == json.dumps(
            miss_report.to_dict()["layout"]
        )
        assert hit_report.format_layout() == miss_report.format_layout()
        assert np.array_equal(hit.traces().traces, miss.traces().traces)

    @pytest.mark.parametrize(
        "rail_loads",
        [
            "damaged",
            {"nets": ["n"], "c_true": [1e-15]},
            {"nets": ["n"], "c_true": [1e-15], "c_false": []},
            {"nets": ["n"], "c_true": ["x"], "c_false": [1e-15]},
            {"nets": ["n"], "c_true": [-1e-15], "c_false": [1e-15]},
            {"nets": ["n"], "c_true": [1e-15], "c_false": [float("inf")]},
        ],
        ids=[
            "not-columns",
            "missing-column",
            "short-column",
            "not-a-number",
            "negative",
            "infinite",
        ],
    )
    def test_corrupt_rail_loads_are_removed_and_recomputed(self, tmp_path, rail_loads):
        store_path = tmp_path / "store"
        miss, store, key = self._stored(store_path)
        original = miss.traces()
        meta_path = store.path(key) / "meta.json"
        meta = json.loads(meta_path.read_text())
        good = meta["payload"]["rail_loads"]
        meta["payload"]["rail_loads"] = rail_loads
        meta_path.write_text(json.dumps(meta))
        store._discard(content_key(store_record(miss, "traces")))

        again = _flow("unbalanced", 2, store=store_path, assessment=True)
        events = _events(again.traces)
        assert _store_counters(events, "store.hit") == []
        assert _store_counters(events, "store.miss") == ["layout", "traces"]
        assert json.loads(meta_path.read_text())["payload"]["rail_loads"] == good
        assert np.array_equal(again.traces().traces, original.traces)

    @pytest.mark.parametrize("damage", ["missing", "garbled", "malformed"])
    def test_a_damaged_layout_part_is_placed_and_routed_again(
        self, tmp_path, monkeypatch, damage
    ):
        store_path = tmp_path / "store"
        miss, store, key = self._stored(store_path)
        part = store.path(key) / "layout.json"
        if damage == "missing":
            part.unlink()
        elif damage == "garbled":
            part.write_text('{"grid": [')
        else:
            part.write_text(json.dumps({"grid": "bogus"}))
        hit = _flow("unbalanced", 2, store=store_path)
        events = _events(hit.traces)
        assert _store_counters(events, "store.hit") == ["layout"]
        # The rail loads were intact; only the whole layout is rebuilt,
        # and the damaged entry goes.
        assert hit.layout() == miss.layout()
        assert key not in store
        healed = _flow("unbalanced", 2, store=store_path)
        events = _events(healed.layout)
        assert _store_counters(events, "store.miss") == ["layout"]
        _refuse_place_and_route(monkeypatch)
        assert _flow("unbalanced", 2, store=store_path).layout() == miss.layout()

    def test_an_entry_in_the_old_format_reads_as_a_miss(self, tmp_path):
        store_path = tmp_path / "store"
        flow = _flow("unbalanced", 2, store=store_path)
        store = ArtifactStore(store_path)
        record = store_record(flow, "layout")
        key = content_key(record)
        layout = _flow("unbalanced", 2).layout()
        # Format 2: the whole layout record inside meta.json's payload.
        store._write_entry(
            key,
            {
                "format": 2,
                "kind": "layout",
                "key": key,
                "config": record,
                "payload": {"layout": layout.to_record(), "details": []},
            },
            {},
        )
        events = _events(flow.layout)
        assert _store_counters(events, "store.miss") == ["layout"]
        assert flow.layout() == layout
        meta = json.loads((store.path(key) / "meta.json").read_text())
        assert meta["format"] == _STORE_FORMAT
