"""Seeded op lists, op execution and verdict checks of the three workloads.

One op is one design taken to its verdict through ``repro.flow.DesignFlow``.
Op lists are built from the workload seed alone and come in small
balanced blocks, so every prefix of whole blocks has the same mix of op
kinds and circuit sizes whatever the seed draws.  The program only ever
sees the generated ``FlowConfig`` objects; every performance knob of
``ExecutionConfig`` and ``CampaignConfig`` stays at its default.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.flow import DesignFlow
from repro.flow.config import (
    AssessmentConfig,
    CampaignConfig,
    ExecutionConfig,
    FlowConfig,
    LayoutConfig,
    ObservabilityConfig,
    ScenarioConfig,
)

WORKLOADS = ("sbox_verdict", "sharded_wide", "design_sweep")

#: Worker count of the sharded workload; the host must have this many CPUs.
SHARDED_WORKERS = 2

#: Traces of a noiseless ``sharded_wide`` trace op, by S-box count: each
#: takes about as long as a 2-S-box TVLA op, so three of the workload's four
#: op classes form one latency cluster and its median and tail percentile
#: fall inside that cluster, not on a gap between classes.
SHARDED_TRACE_COUNTS = {2: 2560, 4: 704}

#: Measurement noise of every noisy campaign (fraction of mean energy).
NOISE_STD = 0.002

#: A constant-power circuit's noiseless traces have NSD below this bound;
#: leaking circuits measure at least 1.6e-3.
CONSTANT_NSD = 1e-9

_STYLES = (("sabl", "fc"), ("sabl", "genuine"), ("cvsl", "fc"), ("cvsl", "genuine"))
_LEAKY_STYLES = _STYLES[1:]
_ROUTERS = (None, "fat", "unbalanced")

#: S-box inputs at which a genuine CVSL S-box draws close to its average
#: energy: fixed-vs-random TVLA at fixed plaintext 0 then sees |t| of only
#: about 8 on one S-box and about 5 on two at 2000 traces per class.
#: Keys whose every nibble is one of these are not drawn for that style.
_WEAK_CVSL_GENUINE_INPUTS = (0x5, 0xC)


class BenchError(RuntimeError):
    """A benchmark precondition or path-identity guard failed."""


@dataclass(frozen=True)
class Op:
    """One user operation: a config, what to compute and the expected verdict.

    ``kind`` is ``"run"`` (``DesignFlow.run()``), ``"tvla"``
    (``flow.assessment()``) or ``"traces"`` (``flow.traces()``).
    ``expect_leak`` is the verdict the paper predicts, ``None`` where it
    predicts none (see :func:`_expect_leak`).  ``repeat_of`` names the
    index of the op that first ran this config (a store hit in
    ``design_sweep``), ``None`` for a fresh config.
    """

    index: int
    kind: str
    config: FlowConfig
    traces: int
    expect_leak: Optional[bool]
    repeat_of: Optional[int] = None

    @property
    def label(self) -> str:
        campaign = self.config.campaign
        return f"{campaign.gate_style}/{campaign.network_style}"


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31))


def _key(rng: np.random.Generator, sboxes: int, style: Tuple[str, str]) -> int:
    while True:
        key = int(rng.integers(1 << (4 * sboxes)))
        nibbles = {(key >> (4 * i)) & 0xF for i in range(sboxes)}
        if style != ("cvsl", "genuine") or not nibbles <= set(_WEAK_CVSL_GENUINE_INPUTS):
            return key


def _expect_leak(style: Tuple[str, str], router: Optional[str] = None) -> Optional[bool]:
    """Only a fully connected SABL network draws constant power, and only
    with balanced rails; unbalanced routing adds a key-dependent leak that
    TVLA sees for some keys and not others, so no verdict is predicted."""
    if style != ("sabl", "fc"):
        return True
    return None if router == "unbalanced" else False


def _sbox_verdict_block(rng, start: int, number: int) -> List[Op]:
    ops = []
    for offset, choice in enumerate(rng.permutation(len(_STYLES))):
        style = _STYLES[choice]
        campaign = CampaignConfig(
            key=_key(rng, 1, style),
            trace_count=20000,
            gate_style=style[0],
            network_style=style[1],
            noise_std=NOISE_STD,
            seed=_seed(rng),
        )
        assessment = AssessmentConfig(enabled=True, seed=_seed(rng))
        config = FlowConfig(name="sbox_verdict", campaign=campaign, assessment=assessment)
        traces = campaign.trace_count + 2 * assessment.traces_per_class
        ops.append(Op(start + offset, "run", config, traces, _expect_leak(style)))
    return ops


def _sharded_wide_block(rng, start: int, number: int) -> List[Op]:
    # Kinds alternate tvla/traces; each kind gets one 2- and one 4-S-box
    # slice and one constant-power and one leaking design.  The leaking
    # styles rotate from block to block, so any three blocks hold each
    # twice.
    ops = []
    sizes = {kind: list(rng.permutation([2, 4])) for kind in ("tvla", "traces")}
    constant = {kind: list(rng.permutation([True, False])) for kind in ("tvla", "traces")}
    leaky = {"tvla": _LEAKY_STYLES[number % 3], "traces": _LEAKY_STYLES[(number + 1) % 3]}
    for offset, kind in enumerate(("tvla", "traces", "tvla", "traces")):
        sboxes = int(sizes[kind].pop())
        style = ("sabl", "fc") if constant[kind].pop() else leaky[kind]
        campaign = CampaignConfig(
            key=_key(rng, sboxes, style),
            scenario="present_round",
            trace_count=SHARDED_TRACE_COUNTS[sboxes],
            gate_style=style[0],
            network_style=style[1],
            noise_std=NOISE_STD if kind == "tvla" else 0.0,
            seed=_seed(rng),
        )
        assessment = AssessmentConfig(seed=_seed(rng))
        config = FlowConfig(
            name="sharded_wide",
            scenario=ScenarioConfig(params={"sboxes": sboxes}),
            campaign=campaign,
            assessment=assessment,
            execution=ExecutionConfig(workers=SHARDED_WORKERS),
        )
        traces = 2 * assessment.traces_per_class if kind == "tvla" else campaign.trace_count
        ops.append(Op(start + offset, kind, config, traces, _expect_leak(style)))
    return ops


def _design_sweep_block(rng, start: int, number: int, written, store: str, trace: str) -> List[Op]:
    # Each (sboxes, router) stratum gets one fresh config (a store miss
    # and write) followed by one repeat of an earlier config of the same
    # stratum (a store hit): half the ops hit, at the same circuit mix.
    ops = []
    strata = [(sboxes, router) for sboxes in (1, 2) for router in _ROUTERS]
    for choice in rng.permutation(len(strata)):
        sboxes, router = strata[choice]
        style = _STYLES[rng.integers(len(_STYLES))]
        campaign = CampaignConfig(
            key=_key(rng, sboxes, style),
            scenario="present_round",
            gate_style=style[0],
            network_style=style[1],
            noise_std=NOISE_STD,
            seed=_seed(rng),
        )
        assessment = AssessmentConfig(enabled=True, seed=_seed(rng))
        config = FlowConfig(
            name="design_sweep",
            scenario=ScenarioConfig(params={"sboxes": sboxes}),
            layout=LayoutConfig(router=router),
            campaign=campaign,
            assessment=assessment,
            execution=ExecutionConfig(store=store),
            obs=ObservabilityConfig(trace=trace, verbosity=0),
        )
        traces = campaign.trace_count + 2 * assessment.traces_per_class
        fresh = Op(start + len(ops), "run", config, traces, _expect_leak(style, router))
        ops.append(fresh)
        stratum = written.setdefault((sboxes, router), [])
        stratum.append(fresh)
        earlier = stratum[rng.integers(len(stratum))]
        ops.append(replace(earlier, index=start + len(ops), repeat_of=earlier.index))
    return ops


def iter_blocks(workload: str, seed: int, workdir: str) -> Iterator[List[Op]]:
    """The workload's endless op list for ``seed``, in balanced blocks."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "design_sweep":
        written: Dict[Tuple[int, Optional[str]], List[Op]] = {}
        store = os.path.join(workdir, "store")
        trace = os.path.join(workdir, "obs-trace.jsonl")
        build = functools.partial(_design_sweep_block, written=written, store=store, trace=trace)
    elif workload == "sharded_wide":
        build = _sharded_wide_block
    else:
        build = _sbox_verdict_block
    start = 0
    for number in itertools.count(int(rng.integers(3))):
        block = build(rng, start, number)
        yield block
        start += len(block)


def with_execution(op: Op, **execution) -> Op:
    """``op`` with its execution config replaced (a guard or replay run)."""
    return replace(op, config=op.config.replace(execution=ExecutionConfig(**execution)))


def with_obs(op: Op, obs: ObservabilityConfig) -> Op:
    """``op`` with its observability config replaced."""
    return replace(op, config=op.config.replace(obs=obs))


def with_store(op: Op, store: str) -> Op:
    """``op`` pointed at another artifact store directory."""
    execution = op.config.execution.replace(store=store)
    return replace(op, config=op.config.replace(execution=execution))


# ----------------------------------------------------------------- execution


def execute(op: Op) -> DesignFlow:
    """Run ``op`` to its verdict; the flow keeps every computed stage."""
    flow = DesignFlow(None, op.config)
    if op.kind == "run":
        flow.run()
    elif op.kind == "tvla":
        flow.assessment()
    else:
        flow.traces()
    return flow


@dataclass
class Outcome:
    """What one op produced, reduced to what the checks and guards compare."""

    ok: bool
    reason: str = ""
    digest: str = ""
    ranks: Tuple[int, ...] = ()


def _digest(flow: DesignFlow, kind: str) -> str:
    hasher = hashlib.sha256()
    if kind in ("run", "traces"):
        traces = flow.traces()
        hasher.update(np.ascontiguousarray(traces.plaintexts).tobytes())
        hasher.update(np.ascontiguousarray(traces.traces).tobytes())
    if kind in ("run", "tvla"):
        result = flow.assessment()["ttest"]
        hasher.update(repr([(t.order, t.statistic, t.leaks) for t in result.tests]).encode())
    return hasher.hexdigest()


def check(op: Op, flow: DesignFlow) -> Outcome:
    """Check the op's verdict against the paper's claim.

    A fully connected SABL network draws the same energy every cycle, so
    TVLA must pass and noiseless traces must have (numerically) zero
    NSD; every other style must leak.  Verification failures already
    raise inside ``run()``.  DPA ranks are recorded, never checked.
    """
    outcome = Outcome(ok=True, digest=_digest(flow, op.kind))
    problems = []
    if op.kind in ("run", "tvla"):
        leaks = flow.assessment()["ttest"].leaks
        if op.expect_leak is not None and leaks != op.expect_leak:
            problems.append(f"TVLA leaks={leaks} for {op.label}")
    if op.kind == "traces":
        nsd = flow.result("traces").details["nsd"]
        if (nsd >= CONSTANT_NSD) != op.expect_leak:
            problems.append(f"noiseless NSD {nsd:.3g} for {op.label}")
    if op.kind == "run":
        outcome.ranks = tuple(result.correct_key_rank for result in flow.analysis().values())
        if op.config.execution.store is not None:
            served = {flow.result(stage).details.get("store") for stage in ("traces", "assessment")}
            expected = {"hit" if op.repeat_of is not None else "miss"}
            if served != expected:
                problems.append(f"store {sorted(map(str, served))}, expected {expected}")
    if problems:
        outcome.ok = False
        outcome.reason = "; ".join(problems)
    return outcome


def sharded_guard(op: Op, parallel: Outcome) -> None:
    """A ``workers=2`` op must equal the serial run of the same shard plan."""
    serial = execute(with_execution(op, executor="serial"))
    if _digest(serial, op.kind) != parallel.digest:
        raise BenchError(
            f"op {op.index} ({op.kind}, {op.label}): workers={SHARDED_WORKERS} "
            f"result differs from the serial run of the same shard plan"
        )


def hit_guard(op: Op, outcome: Outcome, writers: Dict[int, Outcome]) -> None:
    """A store hit must return what the op that wrote the entry computed."""
    writer = writers[op.repeat_of]
    if outcome.digest != writer.digest:
        raise BenchError(
            f"op {op.index}: store hit differs from op {op.repeat_of}, which wrote it"
        )
