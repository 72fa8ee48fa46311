"""The program names the benchmark in ``perfbench/`` relies on.

The benchmark wraps public entry points of the program by name and
builds its workloads from the flow's config classes.  A rename or a
removed option would otherwise only show when the benchmark itself
runs; these tests read the benchmark's own modules, without editing
them, and check that every name it uses still resolves.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.flow import FlowConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """``perfbench/<name>.py`` as a module of its own."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in ``sys.modules``.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    tracing = _load("tracing")
    entry_points = tracing._entry_points()
    assert entry_points
    for layer, owner, name in entry_points:
        assert callable(getattr(owner, name, None)), (layer, owner, name)


def test_the_tracer_installs_and_uninstalls_cleanly():
    tracing = _load("tracing")
    originals = [
        (owner, name, getattr(owner, name))
        for _, owner, name in tracing._entry_points()
    ]
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for owner, name, original in originals:
        assert getattr(owner, name) is original, (owner, name)


@pytest.mark.parametrize("workload", ["sbox_verdict", "sharded_wide", "design_sweep"])
def test_each_workload_builds_its_first_block(tmp_path, workload):
    workloads = _load("workloads")
    assert workload in workloads.WORKLOADS
    block = next(workloads.iter_blocks(workload, 1, str(tmp_path)))
    assert block
    for op in block:
        assert op.kind in ("run", "tvla", "traces")
        # Every field the benchmark sets is one the config still accepts.
        assert FlowConfig.from_dict(op.config.to_dict()) == op.config
