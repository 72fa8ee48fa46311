"""Stored stages: one key record and one get-or-compute path.

The flow's costly results -- the routed ``layout``, the ``traces`` and
the ``assessment`` verdict -- reach the artifact store
(:mod:`repro.engine.store`) only through :func:`get_or_compute`, under
the key of :func:`store_record`: the one place that decides which
config fields a stage's key holds.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from .store import content_key

__all__ = ["store_record", "get_or_compute"]

STORED_STAGES = ("layout", "traces", "assessment")


def store_record(flow, stage: str) -> Dict[str, Any]:
    """Everything that determines the stored ``stage`` result of ``flow``.

    No execution field is part of it.  The ``layout`` record also names
    the flow (gate and net names embed it); the ``assessment`` record
    also carries the assessment config.
    """
    if stage not in STORED_STAGES:
        raise ValueError(f"no stored stage {stage!r}; expected one of {STORED_STAGES}")
    config = flow.config
    spec = flow._expression_spec
    expressions = None if spec is None else {n: str(e) for n, e in sorted(spec.items())}
    record: Dict[str, Any] = {
        "stage": stage,
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
    if stage == "layout":
        record["name"] = config.name
    elif stage == "assessment":
        record["assessment"] = config.assessment.to_dict()
    return record


def get_or_compute(
    flow, stage: str, compute: Callable, encode: Callable, decode: Callable
) -> Tuple[Any, Optional[str]]:
    """``(result, status)`` of a stored ``stage`` of ``flow``.

    A hit returns ``decode(payload)`` with status ``"hit"``; otherwise
    ``compute()`` runs and ``encode(result)`` is written (``"miss"``),
    unless the flow has no store or ``encode`` returns ``None`` (status
    ``None``).  A ``traces`` payload is ``(TraceSet, stored details)``,
    any other the JSON payload of a ``kind=stage`` entry; a payload
    ``decode`` refuses is removed and recomputed.
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
        store.put_json(key, payload, record, kind=stage)
    return result, "miss"
