"""Quickstart: the paper's design flow through the ``repro.flow`` pipeline.

Run with::

    python examples/quickstart.py "(A | B) & C"

One :class:`~repro.flow.DesignFlow` per synthesis recipe walks the whole
chain of the paper for the given Boolean function -- parse, build a fully
connected DPDN (Section 4.1 construction, Section 4.2 transformation and
the Section 5 enhancement are three configs over the same expression)
and verify every claimed property; the first also maps a differential
circuit, verifies its gate templates and records a small trace campaign.  The genuine (leaky) network is built alongside as
the baseline, the per-event energies are compared, and a SPICE
subcircuit of the protected network is dumped.
"""

import sys

from repro import (
    DesignFlow,
    FlowConfig,
    SABLGate,
    build_genuine_dpdn,
    parse,
    to_spice_subckt,
    verify_gate,
)
from repro.flow import CampaignConfig, SynthesisConfig
from repro.power import energy_statistics
from repro.reporting import format_table

RECIPES = {
    # Section 4.1: synthesise a fully connected network from the expression.
    "fully_connected": SynthesisConfig(method="synthesize"),
    # Section 4.2: alternatively, transform the existing genuine network.
    "transformed": SynthesisConfig(method="transform"),
    # Section 5: insert pass-gates for constant evaluation depth.
    "enhanced": SynthesisConfig(method="synthesize", enhance=True),
}


def main() -> None:
    expression = sys.argv[1] if len(sys.argv) > 1 else "(A | B) & C"
    function = parse(expression)
    print(f"Gate function: {function!r}\n")

    # 1. The conventional network a designer following the classical DCVS
    #    constraints would draw -- functionally correct but leaky.
    networks = {"genuine": build_genuine_dpdn(function, name="genuine")}

    # 2.-4. The paper's three recipes, each as a one-config design flow;
    # the synthesis stage verifies the network it builds.  The circuit,
    # template verification and trace stages depend on the expression
    # and campaign only, so just the first flow runs them (the
    # standard-cell library build is covered by the secure_cell_library
    # example).
    flows = {}
    for name, synthesis in RECIPES.items():
        flow = DesignFlow(
            {"F": expression},
            FlowConfig(
                name=name,
                synthesis=synthesis,
                campaign=CampaignConfig(trace_count=256, seed=1),
            ),
        )
        stages = ["expressions", "synthesis"]
        if not flows:
            stages += ["circuit", "verification", "traces"]
        flow.run(stages)
        flows[name] = flow
        networks[name] = flow.networks()["F"].copy(name=name)

    rows = []
    for name, network in networks.items():
        report = verify_gate(network, function, require_fully_connected=False)
        energies = [r.energy for r in SABLGate(network).energy_sweep()]
        stats = energy_statistics(energies)
        rows.append([
            name,
            network.device_count(),
            len(network.internal_nodes()),
            "yes" if verify_gate(network, function).passed else "no",
            "yes" if report.passed else "no",
            f"{stats.mean * 1e15:.2f}",
            f"{stats.ned * 100:.2f}%",
        ])
    print(format_table(
        ["network", "devices", "internal nodes", "fully connected + correct",
         "function correct", "mean energy [fJ]", "energy variation (NED)"],
        rows,
        title="Single-gate flow",
    ))

    print("\nPipeline stages (fully connected flow):")
    print(flows["fully_connected"].report().format_summary())

    print("\nNetwork detail (fully connected):")
    print(networks["fully_connected"].describe())

    print("\nSPICE subcircuit of the protected network:\n")
    print(to_spice_subckt(networks["fully_connected"], name="FC_GATE"))


if __name__ == "__main__":
    main()
