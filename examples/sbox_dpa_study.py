"""Scenario: differential power analysis of a protected vs unprotected S-box.

Runs one :class:`~repro.flow.DesignFlow` per implementation of the
key-mixed PRESENT S-box -- conventional (genuine) differential gates and
fully connected gates -- through circuit mapping, a batched trace
campaign and the registered attacks (single-bit DoM and CPA), then
layers a profiled (perfect-model) CPA on the recorded campaigns.  The
fully connected implementation is the one that survives.

Run with::

    python examples/sbox_dpa_study.py [secret_key_nibble] [trace_count]
"""

import sys

from repro.flow import AnalysisConfig, CampaignConfig, DesignFlow, FlowConfig
from repro.power import (
    energy_statistics,
    profiled_cpa,
    simulated_energy_predictor,
)
from repro.reporting import ascii_plot, format_table


def main() -> None:
    key = int(sys.argv[1], 0) if len(sys.argv) > 1 else 0xB
    trace_count = int(sys.argv[2]) if len(sys.argv) > 2 else 200
    noise = 0.002
    max_fanin = 3

    print(f"Secret key nibble: {key:#x}; {trace_count} traces; "
          f"noise sigma = {noise * 100:.1f}% of mean cycle energy\n")

    predictor = simulated_energy_predictor("genuine", max_fanin=max_fanin)
    rows = []
    score_rows = {}
    for style, label in (("genuine", "conventional gates"), ("fc", "fully connected gates")):
        flow = DesignFlow.sbox(config=FlowConfig(
            name=f"sbox_{style}",
            campaign=CampaignConfig(
                key=key,
                trace_count=trace_count,
                network_style=style,
                max_fanin=max_fanin,
                noise_std=noise,
                seed=1,
            ),
            analysis=AnalysisConfig(attacks=("dom", "cpa"), target_bit=0),
        ))
        flow.run(["circuit", "traces", "analysis"])
        traces = flow.traces()
        attacks = flow.analysis()
        stats = energy_statistics(traces.traces)
        profiled = profiled_cpa(traces, predictor)
        score_rows[label] = profiled.scores
        rows.append([
            label,
            flow.circuit().gate_count(),
            f"{stats.mean * 1e12:.2f} pJ",
            f"{stats.nsd * 100:.3f}%",
            f"rank {attacks['cpa'].correct_key_rank}",
            "yes" if attacks["dom"].succeeded else "no",
            "KEY RECOVERED" if profiled.succeeded else "resists",
            f"{max(profiled.scores):.3f}",
        ])

    print(format_table(
        ["implementation", "gates", "mean cycle energy", "trace NSD",
         "CPA (HW model)", "DoM bit 0", "profiled CPA", "peak correlation"],
        rows,
        title="DPA study: S(p XOR k) with the PRESENT S-box",
    ))

    for label, scores in score_rows.items():
        print(f"\nProfiled-CPA correlation per key guess ({label}); "
              f"correct key = {key:#x}")
        print(ascii_plot(scores, width=64, height=8))


if __name__ == "__main__":
    main()
