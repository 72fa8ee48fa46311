"""Stored stages: one key record and one get-or-compute path.

The flow's costly results -- the routed ``layout``, the ``traces`` and
the ``assessment`` verdict -- reach the artifact store
(:mod:`repro.engine.store`) only through :func:`get_or_compute`, under
the key of :func:`store_record`: the one place that decides which
inputs a stage's key holds.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from .store import content_key

__all__ = [
    "PHYSICS_FINGERPRINT",
    "netlist_record",
    "store_record",
    "get_or_compute",
    "layout_record",
]

STORED_STAGES = ("layout", "traces", "assessment")

#: Digest of the golden per-cycle energies of the paper's S-box (key
#: ``0xB``): every plaintext, SABL and CVSL gates, fully connected and
#: genuine networks, unrouted and ``fat``-routed.  It roots every store
#: key, so a change to the energy models, the placer, the router or the
#: extraction -- anything that moves a stored result without moving a
#: config field -- must bump it, and old entries then read as misses.
#: ``tests/test_kernel_bitslice.py::TestPhysicsFingerprint`` recomputes it.
PHYSICS_FINGERPRINT = "69cc627b6866ad77"


def netlist_record(circuit) -> Dict[str, Any]:
    """The net topology of ``circuit``: all that place-and-route reads.

    Gate and net names (which embed the flow name and network style)
    and the wiring arrays -- each port's source net id and each gate's
    output net id -- enter one digest; the rail each port reads
    (``gate_inverted``) and the gate networks do not, so campaign keys
    that only swap rails share one layout.
    """
    digest = hashlib.sha256(
        json.dumps([circuit.net_names, circuit.gate_names]).encode("utf-8")
    )
    for array in (circuit.gate_inputs, circuit.gate_output):
        digest.update(repr(array.shape).encode("ascii"))
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return {
        "primary_inputs": list(circuit.primary_inputs),
        "outputs": [[name, net] for name, net in circuit.outputs.items()],
        "nets": digest.hexdigest(),
    }


def store_record(flow, stage: str) -> Dict[str, Any]:
    """Everything that determines the stored ``stage`` result of ``flow``.

    Every record is rooted at :data:`PHYSICS_FINGERPRINT` and holds no
    execution field.  The ``layout`` record holds only what
    place-and-route reads: the mapped circuit's net topology
    (:func:`netlist_record`, whose gate and net names carry the flow
    name), the technology and the layout config.  The ``traces`` and
    ``assessment`` records hold the campaign; the ``assessment`` record
    also carries the assessment config.
    """
    if stage not in STORED_STAGES:
        raise ValueError(f"no stored stage {stage!r}; expected one of {STORED_STAGES}")
    config = flow.config
    if stage == "layout":
        return layout_record(flow.circuit(), config)
    spec = flow._expression_spec
    expressions = None if spec is None else {n: str(e) for n, e in sorted(spec.items())}
    record: Dict[str, Any] = {
        "stage": stage,
        "physics": PHYSICS_FINGERPRINT,
        "campaign": config.campaign.to_dict(),
        "technology": config.technology.to_dict(),
        # The campaign carries the scenario *name*; the parameters are
        # keyed too, so two present_round slices differing only in
        # S-box count never collide.
        "scenario": config.scenario.to_dict(),
        "expressions": expressions,
        # Routing changes a circuit campaign's energies; model campaigns
        # and layout-free flows key ``None``, so every pre-layout key
        # stays in one equivalence class.
        "layout": (
            config.layout.to_dict()
            if config.layout.routed and config.campaign.source != "model"
            else None
        ),
    }
    # A leakage-model campaign reads the analysis attack point.
    if config.campaign.source == "model":
        record["target_round"] = config.analysis.target_round
        if config.campaign.model_leakage == "bit":
            record["target_bit"] = config.analysis.target_bit
            record["target_sbox"] = config.analysis.target_sbox
    if stage == "assessment":
        record["assessment"] = config.assessment.to_dict()
    return record


def layout_record(circuit, config) -> Dict[str, Any]:
    """The ``layout`` record of :func:`store_record`, from the mapped
    ``circuit`` and the flow ``config``."""
    return {
        "stage": "layout",
        "physics": PHYSICS_FINGERPRINT,
        "netlist": netlist_record(circuit),
        "technology": config.technology.to_dict(),
        "layout": config.layout.to_dict(),
    }


def get_or_compute(
    flow, stage: str, compute: Callable, encode: Callable, decode: Callable
) -> Tuple[Any, Optional[str]]:
    """``(result, status)`` of a stored ``stage`` of ``flow``.

    A hit returns ``decode(payload)`` with status ``"hit"``; otherwise
    ``compute()`` runs and ``encode(result)`` is written (``"miss"``),
    unless the flow has no store or ``encode`` returns ``None`` (status
    ``None``).  A ``traces`` payload is ``(TraceSet, stored details)``,
    any other the JSON payload of a ``kind=stage`` entry; a payload
    ``decode`` refuses is removed and recomputed.  A ``layout``
    payload's whole-layout record is stored as a part of its own
    (:meth:`~repro.engine.store.ArtifactStore.put_json`), so a hit reads
    the rail loads and details, not the record.
    """
    store = flow._artifact_store()
    if store is None:
        return compute(), None
    record = store_record(flow, stage)
    key = content_key(record)
    if stage == "traces":
        cached = store.get_traceset(key, decode=decode)
    else:
        cached = store.get_json(key, kind=stage, decode=decode)
    if cached is not None:
        return cached, "hit"
    result = compute()
    payload = encode(result)
    if payload is None:
        return result, None
    if stage == "traces":
        store.put_traceset(key, payload[0], record, details=payload[1])
    else:
        parts = ("layout",) if stage == "layout" else ()
        store.put_json(key, payload, record, kind=stage, parts=parts)
    return result, "miss"
