"""Scenario: attack and assess a PRESENT round datapath.

The paper's evaluation targets a single keyed S-box; real side-channel
evaluations target *round datapaths*, where parallel S-boxes contribute
algorithmic noise and the pLayer spreads every S-box output across the
round register.  This example runs the built-in ``present_round``
scenario (a two-S-box slice, so it finishes in seconds) three ways:

1. **DPA at round 1** against the unprotected leakage model: the
   selection function predicts one bit of S-box 1's output, and the
   difference of means recovers that S-box's subkey nibble -- not the
   whole key, exactly like a real divide-and-conquer DPA;
2. **TVLA on the full round**, protected vs unprotected circuit: the
   fixed-vs-random t-test sees the whole round register switch and
   flags the genuine CVSL implementation while the SABL FC-DPDN slice
   stays below threshold;
3. the same campaigns through a **4-worker sharded engine**, printing
   that the parallel traces are bit-identical to serial (PR 3's
   contract, now exercised by a multi-S-box workload);
4. the **full 16-S-box (64-bit) round on the compiled bit-sliced
   kernel**, which runs every circuit campaign: first pinned
   trace-for-trace against the event-table reference model on a small
   campaign, then timed on the full budget -- the width that makes the
   reference model impractical is routine for the compiled kernel.

Run with::

    python examples/present_round_attack.py [trace_count]

Equivalent CLI commands::

    repro run --scenario present_round --scenario-param sboxes=2 \
        --set trace_count=2000 --set source=model --set model_leakage=bit
    repro sweep --axis scenario=sbox,present_rounds --workers 2
    repro run --scenario present_round \
        --scenario-param sboxes=16 --set trace_count=20000
"""

import sys
import time

import numpy as np

from repro.flow import (
    AnalysisConfig,
    AssessmentConfig,
    CampaignConfig,
    DesignFlow,
    ExecutionConfig,
    FlowConfig,
    ScenarioConfig,
)
from repro.power.trace import nibble_matrix
from repro.reporting import format_table
from repro.sabl.simulator import BatchedCircuitEnergyModel
from repro.scenarios import make_scenario

KEY = 0x6B          # two subkey nibbles: S-box 0 gets 0xB, S-box 1 gets 0x6
SBOXES = 2          # a 2-S-box (8-bit) slice of the 16-S-box round
TARGET_SBOX = 1     # divide and conquer: attack S-box 1's nibble
TARGET_BIT = 2


def build_flow(name, **kwargs):
    campaign = dict(key=KEY, scenario="present_round")
    execution = kwargs.pop("execution", ExecutionConfig())
    assessment = kwargs.pop("assessment", AssessmentConfig())
    campaign.update(kwargs)
    return DesignFlow(
        None,
        FlowConfig(
            name=name,
            campaign=CampaignConfig(**campaign),
            scenario=ScenarioConfig(params={"sboxes": SBOXES}),
            analysis=AnalysisConfig(target_sbox=TARGET_SBOX, target_bit=TARGET_BIT),
            assessment=assessment,
            execution=execution,
        ),
    )


def main(trace_count=2000):
    scenario = make_scenario(
        "present_round", key=KEY, params={"sboxes": SBOXES}
    )
    print(f"scenario: {scenario.describe()}")
    print("declared attack points:")
    for point in scenario.attack_points():
        print(f"  {point.name}: {point.description}")
    print()

    # -- 1. round-1 DPA against the unprotected leakage model ------------
    model = build_flow(
        "present_round_model",
        source="model",
        model_leakage="bit",
        trace_count=trace_count,
        noise_std=0.25,
    )
    model.run(["traces", "analysis"])
    dom = model.analysis()["dom"]
    subkey = (KEY >> (4 * TARGET_SBOX)) & 0xF
    print(
        f"DPA at round 1, S-box {TARGET_SBOX} (true subkey {subkey:#x}): "
        f"best guess {dom.best_guess:#x}, "
        f"{'recovered' if dom.succeeded else 'resisted'} "
        f"(rank {dom.correct_key_rank}, {trace_count} traces)"
    )
    print()

    # -- 2. TVLA on the full round: protected vs unprotected -------------
    rows = []
    for label, gate_style, network_style in (
        ("cvsl_genuine", "cvsl", "genuine"),
        ("sabl_fc", "sabl", "fc"),
    ):
        flow = build_flow(
            f"present_round_{label}",
            gate_style=gate_style,
            network_style=network_style,
            noise_std=0.01,
            trace_count=16,
            assessment=AssessmentConfig(
                enabled=True, traces_per_class=max(200, trace_count // 4)
            ),
        )
        flow.result("assessment")
        ttest = flow.assessment()["ttest"]
        rows.append(
            [
                label,
                f"{2 * flow.config.assessment.traces_per_class}",
                f"{float(ttest.max_abs_t):.2f}",
                "LEAKS" if ttest.leaks else "pass",
            ]
        )
    print(
        format_table(
            ["implementation", "traces", "max |t|", "verdict"],
            rows,
            title=f"TVLA on the full {4 * SBOXES}-bit round register",
        )
    )
    print()

    # -- 3. sharded engine: 4 workers, bit-identical ----------------------
    serial = build_flow(
        "present_round_serial", trace_count=min(trace_count, 1024)
    )
    parallel = build_flow(
        "present_round_parallel",
        trace_count=min(trace_count, 1024),
        execution=ExecutionConfig(workers=4, shard_size=256),
    )
    identical = np.array_equal(serial.traces().traces, parallel.traces().traces)
    print(
        f"sharded engine: in process vs 4 workers over "
        f"{len(serial.traces())} circuit traces -- "
        f"{'bit-identical' if identical else 'MISMATCH'}"
    )
    print()

    # -- 4. the full 64-bit round on the compiled bit-sliced kernel -------
    full_key = 0x0123_4567_89AB_CDEF

    def full_round_flow(count):
        return DesignFlow(
            None,
            FlowConfig(
                name="present_round_full",
                campaign=CampaignConfig(
                    key=full_key, scenario="present_round", trace_count=count
                ),
                scenario=ScenarioConfig(params={"sboxes": 16}),
            ),
        )

    # The oracle replays the campaign's one block (child 0 of the seed's
    # spawned streams) through the reference model in the steady state.
    # Sixteen warm-up cycles that give every S-box each of its 16 input
    # nibbles drive every gate through every event it can see, which is
    # that steady state.
    pinned = full_round_flow(96)
    circuit = pinned.circuit()
    width = len(circuit.primary_inputs)
    (child,) = np.random.SeedSequence(pinned.config.campaign.seed).spawn(1)
    rng = np.random.default_rng(child)
    plaintexts = rng.integers(0, 1 << width, size=96, dtype=np.uint64)
    oracle = BatchedCircuitEnergyModel(circuit)
    every_nibble = np.arange(16, dtype=np.uint64) * np.uint64(0x1111_1111_1111_1111)
    oracle.energies(nibble_matrix(every_nibble, width))
    expected = oracle.energies(nibble_matrix(plaintexts, width))
    identical = np.array_equal(pinned.traces().traces, expected)
    print(
        f"full 16-S-box round, kernel vs reference model over 96 traces -- "
        f"{'bit-identical' if identical else 'MISMATCH'}"
    )
    budget = max(trace_count, 50_000)
    flow = full_round_flow(budget)
    flow.circuit()  # keep synthesis out of the acquisition timing
    start = time.perf_counter()
    traces = flow.traces()
    elapsed = time.perf_counter() - start
    print(
        f"compiled kernel: {len(traces):,} traces of the 64-bit round in "
        f"{elapsed * 1e3:.0f} ms including the one-off compile "
        f"({len(traces) / elapsed:,.0f} traces/s)"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2000)
