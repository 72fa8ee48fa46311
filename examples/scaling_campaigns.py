"""Scenario: scale the paper's evaluation to many configurations.

The single-flow examples answer one question about one design point; a
security evaluation sweeps a *grid* -- gate style x network style x
measurement noise x trace budget -- and wants the grid back in minutes,
not hours.  This example drives the :mod:`repro.engine` subsystem the
way a lab would:

1. one sharded campaign, demonstrating that a multi-process run is
   bit-identical to the serial run (any shard size gives the same
   campaign);
2. a parallel sweep over gate/network styles against a shared artifact
   store;
3. the same sweep again, now served from the store (no re-acquisition).

Run with::

    python examples/scaling_campaigns.py [workers] [traces]

Defaults: 2 workers, 2000 traces.  The equivalent shell commands are
printed at the end -- the whole flow is also available as the ``repro``
console script.
"""

import shutil
import sys
import tempfile
import time

import numpy as np

from repro.engine import run_sweep
from repro.flow import CampaignConfig, DesignFlow, ExecutionConfig, FlowConfig


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    traces = int(sys.argv[2]) if len(sys.argv) > 2 else 2000
    store = tempfile.mkdtemp(prefix="repro_store_")

    print(f"== 1. sharded campaign, serial vs {workers} workers ==")
    campaign = CampaignConfig(trace_count=traces, noise_std=0.002)
    serial_flow = DesignFlow.sbox(
        0xB,
        config=FlowConfig(
            name="sbox_dpa",
            campaign=campaign,
            execution=ExecutionConfig(shard_size=512),
        ),
    )
    start = time.perf_counter()
    serial = serial_flow.traces()
    serial_time = time.perf_counter() - start

    parallel_flow = DesignFlow.sbox(
        0xB,
        config=FlowConfig(
            name="sbox_dpa",
            campaign=campaign,
            execution=ExecutionConfig(workers=workers, shard_size=512),
        ),
    )
    start = time.perf_counter()
    parallel = parallel_flow.traces()
    parallel_time = time.perf_counter() - start

    identical = np.array_equal(serial.traces, parallel.traces)
    print(f"serial:   {traces} traces in {serial_time * 1e3:.0f} ms")
    print(f"parallel: {traces} traces in {parallel_time * 1e3:.0f} ms "
          f"({workers} workers)")
    print(f"bit-identical: {identical}")
    assert identical

    print(f"\n== 2. style grid, {workers} workers, shared store ==")
    base = FlowConfig(
        name="styles",
        campaign=campaign,
        execution=ExecutionConfig(workers=workers, store=store),
    )
    axes = {"gate_style": ["sabl", "cvsl"], "network_style": ["fc", "genuine"]}
    report = run_sweep(base, axes)
    print(report.format_table())

    print("\n== 3. the same grid, served from the artifact store ==")
    cached = run_sweep(base, axes)
    print(cached.format_table())
    hits = sum(
        1
        for cell in cached.cells
        if cell["stages"]["traces"]["details"].get("store") == "hit"
    )
    print(f"{hits}/{len(cached)} cells served from {store}")

    print("\nequivalent shell commands:")
    print(f"  repro sweep --set trace_count={traces} --set noise_std=0.002 \\")
    print("        --axis gate_style=sabl,cvsl --axis network_style=fc,genuine \\")
    print(f"        --workers {workers} --store {store}")
    print(f"  repro store ls --store {store}")

    shutil.rmtree(store, ignore_errors=True)


if __name__ == "__main__":
    main()
