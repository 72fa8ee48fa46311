"""Extension B -- differential power analysis of a key-mixed S-box.

The paper's motivation is DPA resistance.  This benchmark closes the loop
through the ``repro.flow`` pipeline: one :class:`~repro.flow.DesignFlow`
per implementation (fully connected gates, conventional genuine gates,
and the unprotected Hamming-weight reference model) runs the whole
expr -> synthesis -> circuit -> trace campaign -> attack chain, and a
profiled CPA (perfect simulator of the genuine logic style) is layered on
the recorded campaigns.

Expected shape: the genuine implementation leaks (its traces are data
dependent and the profiled attack recovers the key), while the fully
connected implementation draws the same energy every cycle up to
measurement noise and resists every attack.
"""

import pytest

from repro.flow import AnalysisConfig, CampaignConfig, DesignFlow, FlowConfig
from repro.power import (
    energy_statistics,
    measurements_to_disclosure,
    profiled_cpa,
    simulated_energy_predictor,
)
from repro.power.crypto import PRESENT_SBOX
from repro.reporting import format_table

KEY = 0xB
TRACES = 160
NOISE = 0.002
MAX_FANIN = 3


def _campaign(**overrides):
    base = dict(
        key=KEY, trace_count=TRACES, noise_std=NOISE, seed=7, max_fanin=MAX_FANIN
    )
    base.update(overrides)
    return CampaignConfig(**base)


def test_dpa_attack_genuine_vs_fully_connected(benchmark):
    def run():
        results = {}
        predictor = simulated_energy_predictor("genuine", max_fanin=MAX_FANIN)
        analysis = AnalysisConfig(attacks=("dom", "cpa"), target_bit=0)
        for style in ("genuine", "fc"):
            flow = DesignFlow.sbox(config=FlowConfig(
                name=f"sbox_{style}",
                campaign=_campaign(network_style=style),
                analysis=analysis,
            ))
            flow.run(["circuit", "traces", "analysis"])
            traces = flow.traces()
            results[style] = {
                "stats": energy_statistics(traces.traces),
                "cpa": flow.analysis()["cpa"],
                "dom": flow.analysis()["dom"],
                "profiled": profiled_cpa(traces, predictor),
            }
        # Unprotected-CMOS reference: plain Hamming-weight leakage.
        reference_flow = DesignFlow.sbox(config=FlowConfig(
            name="sbox_hw_reference",
            campaign=_campaign(source="model", noise_std=0.25),
            analysis=analysis,
        ))
        reference_flow.run(["traces", "analysis"])
        reference = reference_flow.traces()
        results["hw reference"] = {
            "stats": energy_statistics(reference.traces.tolist()),
            "cpa": reference_flow.analysis()["cpa"],
            "dom": reference_flow.analysis()["dom"],
            "profiled": None,
            "mtd": measurements_to_disclosure(reference, PRESENT_SBOX),
        }
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for name, data in results.items():
        profiled = data.get("profiled")
        rows.append([
            name,
            f"{data['stats'].nsd * 100:.3f}%",
            "yes" if data["cpa"].succeeded else "no",
            data["cpa"].correct_key_rank,
            "yes" if data["dom"].succeeded else "no",
            ("yes" if profiled.succeeded else "no") if profiled else "-",
            f"{max(profiled.scores):.3f}" if profiled else "-",
        ])
    print()
    print(format_table(
        ["implementation", "trace NSD", "CPA ok", "CPA key rank", "DoM ok",
         "profiled CPA ok", "profiled peak corr"],
        rows,
        title=f"Extension B -- DPA of S(p XOR k), k={KEY:#x}, {TRACES} traces, "
              f"noise={NOISE * 100:.1f}% of mean",
    ))
    print("expected shape: the genuine implementation leaks (profiled CPA recovers "
          "the key); the fully connected implementation is constant-power and "
          "resists every attack; the unprotected Hamming-weight reference falls "
          "to plain CPA.")

    genuine, protected, reference = results["genuine"], results["fc"], results["hw reference"]
    assert reference["cpa"].succeeded
    assert genuine["profiled"].succeeded
    assert max(genuine["profiled"].scores) > 0.6
    assert not protected["profiled"].succeeded or max(protected["profiled"].scores) < 0.5
    assert protected["stats"].nsd < genuine["stats"].nsd
