"""The :class:`DesignFlow` facade: the paper's whole chain as one pipeline.

A flow runs the expr -> FC-DPDN synthesis -> verification -> cell/library
build -> differential circuit -> trace campaign -> DPA chain from a
single :class:`~repro.flow.config.FlowConfig`.  Stages are computed
lazily and cached: asking for ``flow.traces()`` computes (and keeps) the
campaign and what it reads -- in process the expressions and the mapped
circuit; for an unrouted campaign on a worker pool nothing more, since
the workers build their own -- but not the library or the attacks; a
later ``flow.run()`` reuses everything already computed.

Two kinds of workload exist:

* ``DesignFlow.sbox(key)`` -- the paper's side-channel scenario: a
  key-mixed S-box circuit, traced and attacked; this is the flow the
  acceptance benchmark uses.
* ``DesignFlow({"F": "(A | B) & C"})`` -- any named Boolean outputs; the
  crypto-specific analysis stage is unavailable, everything up to the
  trace campaign works the same way.
"""

from __future__ import annotations

import math
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..assess.accumulators import AssessmentChunk, ClassStatsResult
from ..assess.noise import GaussianAmplitudeNoise, NoiseChain, make_noise_model
from ..assess.ttest import TVLAResult
from ..boolexpr.ast import Expr
from ..boolexpr.parser import parse
from ..core.enhance import enhance_fc_dpdn
from ..core.library import Cell, STANDARD_CELL_SPECS, build_library
from ..core.synthesis import synthesize_fc_dpdn
from ..core.transform import transform_to_fc
from ..core.verify import verify_gate
from ..network.build import build_genuine_dpdn
from ..network.netlist import DifferentialPullDownNetwork
from ..power.metrics import energy_statistics
from ..power.trace import (
    TraceSet,
    acquire_circuit_traces,
    kernel_energy_source,
    measure_blocks,
    measure_traces,
)
from ..obs import get_observer, observer_from_config, use_observer
from ..sabl.circuit import DifferentialCircuit, map_expressions
from .config import FlowConfig
from .registry import (
    UnknownBackendError,
    get_assessment,
    get_attack,
    get_gate_style,
    get_technology,
)
from .results import FlowReport, FlowResult

__all__ = ["FlowError", "DesignFlow", "STAGES"]

#: Canonical stage order of a full run.
STAGES = (
    "expressions",
    "synthesis",
    "verification",
    "library",
    "circuit",
    "layout",
    "traces",
    "analysis",
    "assessment",
)

#: Direct dependencies of each stage (used for lazy evaluation and
#: downstream invalidation).  ``traces`` and ``assessment`` hang off
#: ``layout`` (which is a cheap no-op for layout-free configs) so a
#: router change invalidates every measured result.  Lazy evaluation
#: skips the dependencies a config does not read (see
#: :meth:`DesignFlow._stage_dependencies`); invalidation keeps them all.
_DEPENDENCIES: Dict[str, Tuple[str, ...]] = {
    "expressions": (),
    "synthesis": ("expressions",),
    "verification": ("synthesis",),
    "library": (),
    "circuit": ("expressions",),
    "layout": ("circuit",),
    "traces": ("layout",),
    "analysis": ("traces",),
    "assessment": ("layout",),
}


class FlowError(RuntimeError):
    """A pipeline stage failed (bad input, failed verification, ...)."""


def _encode_layout(result: Tuple[Any, Dict[str, Any]]) -> Dict[str, Any]:
    """The stored payload of ``(layout, details)``; details as pairs, so a
    hit reports them in the miss's order."""
    layout, details = result
    return {
        "layout": layout.to_record(),
        "details": [[name, value] for name, value in details.items()],
    }


def _decode_layout(payload) -> Tuple[Any, Dict[str, Any]]:
    """``(layout, details)`` of a stored ``kind="layout"`` entry."""
    from ..layout import CircuitLayout

    details = {str(name): value for name, value in payload["details"]}
    return CircuitLayout.from_record(payload["layout"]), details


class DesignFlow:
    """Facade over the paper's design and evaluation chain.

    Args:
        expressions: named Boolean outputs, as expression strings or
            parsed :class:`~repro.boolexpr.ast.Expr` objects.  Pass
            ``None`` (or use :meth:`sbox`) for the S-box side-channel
            workload derived from the campaign config.
        config: the aggregate :class:`~repro.flow.config.FlowConfig`;
            defaults are the paper's setup.
    """

    def __init__(
        self,
        expressions: Optional[Mapping[str, Union[str, Expr]]] = None,
        config: Optional[FlowConfig] = None,
    ) -> None:
        self.config = config or FlowConfig()
        if expressions is not None and not expressions:
            raise FlowError("expressions mapping must not be empty")
        self._expression_spec = dict(expressions) if expressions is not None else None
        self._results: Dict[str, FlowResult] = {}
        self._program: Optional[Any] = None
        self._config_observer: Optional[Any] = None
        self._store_handle: Optional[Any] = None

    @classmethod
    def sbox(
        cls,
        key: Optional[int] = None,
        config: Optional[FlowConfig] = None,
        **campaign_overrides: Any,
    ) -> "DesignFlow":
        """The paper's S-box side-channel workload.

        ``key`` and keyword overrides update the campaign config, e.g.
        ``DesignFlow.sbox(0xB, network_style="genuine", trace_count=500)``.
        """
        config = config or FlowConfig(name="sbox_dpa")
        if key is not None:
            campaign_overrides["key"] = key
        if campaign_overrides:
            config = config.replace(
                campaign=config.campaign.replace(**campaign_overrides)
            )
        return cls(None, config)

    # ------------------------------------------------------------------ state

    @property
    def is_sbox_workload(self) -> bool:
        """True when the flow's outputs come from the campaign's
        scenario (a keyed cipher datapath -- the paper's S-box by default)
        rather than hand-written expressions."""
        return self._expression_spec is None

    def computed_stages(self) -> Tuple[str, ...]:
        """Stages whose results are currently cached, in canonical order."""
        return tuple(stage for stage in STAGES if stage in self._results)

    def invalidate(self, stage: Optional[str] = None) -> None:
        """Drop cached results from ``stage`` onwards (all when omitted)."""
        # The compiled simulator program bakes in the circuit, the
        # technology and the routed net loads -- cheap to rebuild, so any
        # invalidation drops it rather than tracking its inputs.
        self._program = None
        if stage is None:
            self._results.clear()
            return
        if stage not in STAGES:
            raise FlowError(f"unknown stage {stage!r}; expected one of {STAGES}")
        dropped = {stage}
        changed = True
        while changed:
            changed = False
            for name, dependencies in _DEPENDENCIES.items():
                if name not in dropped and dropped.intersection(dependencies):
                    dropped.add(name)
                    changed = True
        for name in dropped:
            self._results.pop(name, None)

    # ----------------------------------------------------------------- stages

    def _stage_dependencies(self, stage: str) -> Tuple[str, ...]:
        # Leakage-model campaigns need no mapped circuit.
        if stage in ("traces", "assessment") and self.config.campaign.source == "model":
            return ()
        # An unrouted layout reads no circuit: resolving it must not map
        # one in the parent of a pooled campaign, whose workers build
        # their own.  In process the campaign maps it on first use.
        if stage == "layout" and not self.config.layout.routed:
            return ()
        return _DEPENDENCIES[stage]

    def _observer(self):
        """The flow's :class:`repro.obs.Observer`.

        A process-wide observer (installed by the CLI or a host through
        :func:`repro.obs.use_observer`) wins; otherwise one is built
        lazily -- and cached for the flow's lifetime -- from
        :attr:`~repro.flow.config.FlowConfig.obs`.  Inactive configs get
        the shared null observer, keeping the untraced path a no-op.
        """
        current = get_observer()
        if current.active:
            return current
        if self._config_observer is None:
            self._config_observer = observer_from_config(self.config.obs)
        return self._config_observer

    def result(self, stage: str) -> FlowResult:
        """The (lazily computed, cached) :class:`FlowResult` of a stage."""
        if stage not in STAGES:
            raise FlowError(f"unknown stage {stage!r}; expected one of {STAGES}")
        cached = self._results.get(stage)
        if cached is not None:
            self._observer().counter("stage.cache_hit", stage=stage)
            return cached
        for dependency in self._stage_dependencies(stage):
            self.result(dependency)
        compute = getattr(self, f"_compute_{stage}")
        obs = self._observer()
        start = time.perf_counter()
        if obs.active:
            # Install the observer for the stage body so deep layers --
            # the artifact store, the kernels, the engine -- reach it
            # through ``get_observer()`` without plumbing.
            with use_observer(obs), obs.span(f"stage.{stage}", flow=self.config.name):
                value, details = compute()
        else:
            value, details = compute()
        elapsed = time.perf_counter() - start
        result = FlowResult(stage=stage, value=value, details=details, elapsed=elapsed)
        self._results[stage] = result
        return result

    # Convenience accessors returning the stage values directly.

    def expressions(self) -> Dict[str, Expr]:
        """Named output expressions (parsed)."""
        return self.result("expressions").value

    def networks(self) -> Dict[str, DifferentialPullDownNetwork]:
        """Per-output fully connected DPDNs (the single-gate view)."""
        return self.result("synthesis").value

    def verification(self) -> Dict[str, Any]:
        """Per-output :class:`~repro.core.verify.GateReport` objects."""
        return self.result("verification").value

    def library(self) -> Dict[str, Cell]:
        """The configured secure standard-cell library."""
        return self.result("library").value

    def circuit(self) -> DifferentialCircuit:
        """The mapped differential circuit of the campaign."""
        return self.result("circuit").value

    def layout(self):
        """The placed-and-routed :class:`repro.layout.CircuitLayout` of the
        campaign's circuit, or ``None`` for layout-free configs
        (``LayoutConfig.router`` unset)."""
        return self.result("layout").value

    def traces(self) -> TraceSet:
        """The acquired trace campaign."""
        return self.result("traces").value

    def analysis(self) -> Dict[str, Any]:
        """Per-attack :class:`~repro.power.dpa.AttackResult` objects."""
        return self.result("analysis").value

    def assessment(self) -> Dict[str, Any]:
        """Per-method leakage-assessment results (e.g. ``"ttest"`` ->
        :class:`~repro.assess.ttest.TVLAResult`)."""
        return self.result("assessment").value

    def run(self, stages: Optional[Sequence[str]] = None) -> FlowReport:
        """Compute ``stages`` (default: every applicable stage) and report.

        By default only the stages whose results the run consumes are
        computed: the crypto-specific ``analysis`` stage is skipped for
        non-S-box workloads (it needs the plaintext/key relation of the
        S-box campaign), the ``library`` stage is skipped when no cells
        are configured, a ``source="model"`` campaign -- which measures
        a leakage model, not a designed circuit -- runs only the trace
        and analysis stages, and the streaming ``assessment`` stage runs
        only when :class:`~repro.flow.config.AssessmentConfig` has
        ``enabled`` set.  Every skipped stage remains available on
        demand through its accessor.
        """
        if stages is None:
            if self.config.campaign.source == "model":
                stages = ["traces"] + (["analysis"] if self.is_sbox_workload else [])
            else:
                stages = [
                    stage
                    for stage in STAGES
                    if (stage != "analysis" or self.is_sbox_workload)
                    and (stage != "library" or self.config.cells.names)
                    and (stage != "layout" or self.config.layout.routed)
                    and stage != "assessment"
                ]
            if self.config.assessment.enabled:
                stages.append("assessment")
        for stage in stages:
            self.result(stage)
        ordered = {
            stage: self._results[stage]
            for stage in STAGES
            if stage in self._results and stage in stages
        }
        return FlowReport(self.config, ordered)

    def report(self) -> FlowReport:
        """Report over everything computed so far (computes nothing)."""
        return FlowReport(
            self.config,
            {stage: self._results[stage] for stage in self.computed_stages()},
        )

    # ----------------------------------------------------- stage computations

    @staticmethod
    def _resolve(getter, name: str):
        """Name-table lookup surfacing unknown names as stage failures."""
        try:
            return getter(name)
        except UnknownBackendError as error:
            raise FlowError(str(error)) from error

    def _scenario(self):
        """The campaign's :class:`repro.scenarios.Scenario` instance.

        Built fresh on each use (construction is cheap; the expensive
        expression enumeration happens inside the cached ``expressions``
        stage), so config replacement plus :meth:`invalidate` always
        sees the current scenario selection.
        """
        from ..scenarios import ScenarioError, make_scenario

        campaign = self.config.campaign
        try:
            return make_scenario(
                campaign.scenario,
                key=campaign.key,
                sbox=campaign.sbox,
                params=self.config.scenario.params,
            )
        except UnknownBackendError as error:
            raise FlowError(str(error)) from error
        except ScenarioError as error:
            raise FlowError(str(error)) from error

    def _require_scenario_workload(self, what: str):
        """The scenario, or a :class:`FlowError` for expression flows."""
        if not self.is_sbox_workload:
            raise FlowError(
                f"{what} needs the scenario workload -- the keyed S-box or "
                f"another built-in cipher datapath (use DesignFlow.sbox); "
                f"custom-expression flows stop at traces"
            )
        return self._scenario()

    def _compute_expressions(self) -> Tuple[Dict[str, Expr], Dict[str, Any]]:
        if self._expression_spec is None:
            from ..scenarios import ScenarioError

            scenario = self._scenario()
            try:
                expressions = scenario.expressions()
            except ScenarioError as error:
                raise FlowError(str(error)) from error
            variables = sorted(
                {name for expr in expressions.values() for name in expr.variables()}
            )
            return expressions, {
                "outputs": len(expressions),
                "inputs": len(variables),
                "scenario": scenario.name,
                "width": scenario.input_width,
                "rounds": scenario.rounds,
            }
        else:
            expressions = {}
            for name, expression in self._expression_spec.items():
                if isinstance(expression, Expr):
                    expressions[name] = expression
                else:
                    try:
                        expressions[name] = parse(expression)
                    except Exception as error:
                        raise FlowError(
                            f"output {name!r}: cannot parse {expression!r}: {error}"
                        ) from error
        variables = sorted(
            {name for expr in expressions.values() for name in expr.variables()}
        )
        return expressions, {
            "outputs": len(expressions),
            "inputs": len(variables),
        }

    def _compute_synthesis(
        self,
    ) -> Tuple[Dict[str, DifferentialPullDownNetwork], Dict[str, Any]]:
        synthesis = self.config.synthesis
        expressions = self.expressions()
        networks: Dict[str, DifferentialPullDownNetwork] = {}
        for name, function in expressions.items():
            try:
                if synthesis.method == "synthesize":
                    network = synthesize_fc_dpdn(
                        function, name=name, style=synthesis.decomposition_style
                    )
                else:
                    genuine = build_genuine_dpdn(function, name=f"{name}_genuine")
                    network = transform_to_fc(genuine, name=name)
                if synthesis.enhance:
                    network = enhance_fc_dpdn(network, name=name)
            except FlowError:
                raise
            except Exception as error:
                raise FlowError(
                    f"output {name!r}: {synthesis.method} failed: {error}"
                ) from error
            networks[name] = network
        return networks, {
            "method": synthesis.method,
            "networks": len(networks),
            "devices": sum(network.device_count() for network in networks.values()),
        }

    def _compute_verification(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        synthesis = self.config.synthesis
        expressions = self.expressions()
        reports: Dict[str, Any] = {}
        failures: List[str] = []
        for name, network in self.networks().items():
            report = verify_gate(
                network,
                expressions[name],
                require_constant_depth=synthesis.enhance,
                require_no_early_propagation=synthesis.enhance,
            )
            reports[name] = report
            if not report.passed:
                failures.append(name)
        if failures:
            detail = "\n\n".join(reports[name].describe() for name in failures)
            raise FlowError(
                f"verification failed for outputs {failures}:\n{detail}"
            )
        return reports, {"passed": True, "networks": len(reports)}

    def _compute_library(self) -> Tuple[Dict[str, Cell], Dict[str, Any]]:
        cells_config = self.config.cells
        available = {spec.name: spec for spec in STANDARD_CELL_SPECS}
        names = cells_config.names or tuple(available)
        unknown = sorted(set(names) - set(available))
        if unknown:
            raise FlowError(
                f"unknown cells {unknown}; the catalogue provides "
                f"{sorted(available)}"
            )
        cells = build_library(
            [available[name] for name in names],
            style=cells_config.decomposition_style,
        )
        return cells, {
            "cells": len(cells),
            "devices": sum(
                cell.fully_connected.device_count() for cell in cells.values()
            ),
        }

    def _compute_circuit(self) -> Tuple[DifferentialCircuit, Dict[str, Any]]:
        campaign = self.config.campaign
        expressions = self.expressions()
        primary_inputs = None
        if self.is_sbox_workload:
            # Fix the input ordering to the scenario's plaintext bits:
            # narrow output cones must not reorder (or drop) stimulus bits.
            primary_inputs = [f"p{i}" for i in range(self._scenario().input_width)]
        try:
            circuit = map_expressions(
                expressions,
                primary_inputs=primary_inputs,
                max_fanin=campaign.max_fanin,
                network_style=campaign.network_style,
                name=f"{self.config.name}_{campaign.network_style}",
            )
        except ValueError as error:
            raise FlowError(f"mapping failed: {error}") from error
        return circuit, {
            "network_style": campaign.network_style,
            "gates": circuit.gate_count(),
            "devices": circuit.device_count(),
        }

    def _model_leakage_table(self, scenario) -> np.ndarray:
        """The leakage table of a ``source="model"`` campaign.

        The table comes from the scenario's round-register state tables
        (see :meth:`repro.scenarios.Scenario.leakage_table`); the attack
        point -- target round, S-box and bit -- comes from the analysis
        config.
        """
        from ..scenarios import ScenarioError

        campaign = self.config.campaign
        analysis = self.config.analysis
        try:
            return scenario.leakage_table(
                campaign.model_leakage,
                target_round=analysis.target_round,
                target_sbox=analysis.target_sbox,
                target_bit=analysis.target_bit,
            )
        except ScenarioError as error:
            raise FlowError(str(error)) from error

    def _model_description(self) -> str:
        """The trace-set description of a ``source="model"`` campaign."""
        campaign = self.config.campaign
        analysis = self.config.analysis
        if campaign.model_leakage == "bit":
            return (
                f"single-bit model (bit {analysis.target_bit}, "
                f"noise={campaign.noise_std})"
            )
        if campaign.model_leakage == "distance":
            return (
                f"hamming-distance model (round {analysis.target_round}, "
                f"noise={campaign.noise_std})"
            )
        return f"hamming-weight model (noise={campaign.noise_std})"

    def _circuit_campaign_params(self):
        """Resolved ``(technology, gate_style)`` of a circuit campaign."""
        technology = self._resolve(get_technology, self.config.technology.name)
        if self.config.technology.overrides:
            technology = technology.scaled(**self.config.technology.overrides)
        gate_style = self._resolve(get_gate_style, self.config.campaign.gate_style)
        return technology, gate_style

    def _compute_layout(self) -> Tuple[Any, Dict[str, Any]]:
        """Place & route the mapped circuit (no-op for layout-free configs).

        With a store configured the routed layout and its details are
        one ``kind="layout"`` entry: a hit decodes it and runs no
        place-and-route, and reports the same details a miss does.
        """
        if not self.config.layout.routed:
            return None, {"routed": False}
        result, _ = self._stored(
            "layout", self._place_and_route, _encode_layout, _decode_layout
        )
        return result

    def _place_and_route(self) -> Tuple[Any, Dict[str, Any]]:
        """The routed layout of the mapped circuit and its stage details."""
        from ..layout import LayoutError, layout_circuit

        config = self.config.layout
        technology, _ = self._circuit_campaign_params()
        try:
            layout = layout_circuit(
                self.circuit(),
                technology,
                router=config.router,
                grid=config.grid,
                seed=config.seed,
                anneal_moves=config.anneal_moves,
            )
        except UnknownBackendError as error:
            raise FlowError(str(error)) from error
        except LayoutError as error:
            raise FlowError(f"layout failed: {error}") from error
        parasitics = layout.parasitics
        rows, cols = layout.placement.grid
        worst = parasitics.worst_pair()
        details: Dict[str, Any] = {
            "router": config.router,
            "grid": f"{rows}x{cols}",
            "hpwl": round(layout.placement.hpwl, 1),
            "wirelength_um": round(parasitics.total_wirelength_um(), 1),
            "max_mismatch_fF": round(parasitics.max_mismatch() * 1e15, 4),
        }
        if worst is not None:
            details["worst_pair"] = worst[0]
        return layout, details

    def _adopt_layout(self, layout) -> None:
        """Take the ``layout`` stage's value from the parent of a pooled
        campaign, so a worker never places and routes (``None``: the
        campaign is not routed, nothing to take)."""
        if layout is not None and "layout" not in self._results:
            self._results["layout"] = FlowResult(
                stage="layout", value=layout, details={}, elapsed=0.0
            )

    def _routed_layout(self):
        """The routed layout of a circuit campaign, or ``None``."""
        if not self.config.layout.routed or self.config.campaign.source == "model":
            return None
        return self.result("layout").value

    def _net_loads(self):
        """The routed rail loads of a circuit campaign, or ``None``.

        This is the back-annotation hand-off: when a router is
        configured, the (cached) layout stage's extracted per-net rail
        capacitances replace the technology's ``c_wire_output`` constant
        inside the energy simulators.
        """
        layout = self._routed_layout()
        return None if layout is None else layout.parasitics.rail_loads()

    def _compiled_program(self):
        """The campaign circuit compiled once for the bit-sliced kernel.

        Cached on the flow so the serial acquisition path, every engine
        shard executed inside one worker process and the assessment
        stream all share a single
        :class:`~repro.kernel.CompiledProgram` (gate tables plus the
        kernel's lazily built plan).  Dropped by
        :meth:`invalidate` alongside the stage caches.
        """
        from ..kernel import compile_circuit

        circuit = self.circuit()
        if self._program is not None and self._program.circuit is circuit:
            return self._program
        technology, gate_style = self._circuit_campaign_params()
        self._program = compile_circuit(
            circuit,
            technology=technology,
            gate_style=gate_style.name,
            net_loads=self._net_loads(),
        )
        return self._program

    def _acquire_blocks(self, shard) -> TraceSet:
        """Acquire an engine shard's run of consecutive campaign blocks.

        The blocks are those of :func:`repro.power.trace.campaign_blocks`
        over the campaign's trace count and seed; an in-process campaign
        is one shard holding all of them.  Both sources measure them
        through :func:`repro.power.trace.measure_blocks`; a circuit
        campaign through its public front end,
        :func:`~repro.power.trace.acquire_circuit_traces`.
        """
        campaign = self.config.campaign
        if campaign.source == "model":
            width, energies = self._energy_source()
            return measure_traces(
                shard.blocks,
                width,
                energies,
                self._campaign_noise(),
                key=campaign.key,
                description=self._model_description(),
            )
        technology, gate_style = self._circuit_campaign_params()
        return acquire_circuit_traces(
            self.circuit(),
            key=campaign.key,
            trace_count=campaign.trace_count,
            technology=technology,
            gate_style=gate_style.name,
            noise_std=campaign.noise_std,
            seed=campaign.seed,
            net_loads=self._net_loads(),
            program=self._compiled_program(),
            block_range=(shard.first, shard.stop),
        )

    def _acquire_trace_shard(self, shard) -> Tuple[np.ndarray, np.ndarray]:
        """Acquire one engine shard (see :mod:`repro.engine.sharding`).

        Returns the shard's ``(plaintexts, traces)`` arrays -- the
        picklable payload the runner concatenates in block order.
        """
        obs = self._observer()
        start = time.perf_counter()
        with obs.span("shard.traces", index=shard.index, count=shard.count):
            traces = self._acquire_blocks(shard)
        if obs.active:
            obs.histogram(
                "shard.duration_s", time.perf_counter() - start, stage="traces"
            )
        return traces.plaintexts, traces.traces

    def _trace_stage_details(self, traces: TraceSet) -> Dict[str, Any]:
        campaign = self.config.campaign
        statistics = energy_statistics(traces.traces)
        details: Dict[str, Any] = {"count": len(traces)}
        if self.is_sbox_workload:
            details["scenario"] = campaign.scenario
        if campaign.source == "model":
            details["source"] = f"model/{campaign.model_leakage}"
        else:
            technology, gate_style = self._circuit_campaign_params()
            details["gate_style"] = gate_style.name
            details["technology"] = technology.name
            details["simulator"] = "bitslice"
            if self.config.layout.routed:
                details["router"] = self.config.layout.router
        details["mean_energy_J"] = float(statistics.mean)
        details["nsd"] = float(statistics.nsd)
        return details

    def _artifact_store(self):
        """The configured :class:`repro.engine.ArtifactStore`, or ``None``.

        One handle per flow, so the store's session counters (hits,
        misses, writes -- see :meth:`repro.engine.store.ArtifactStore.stats`)
        accumulate across every stage of this flow.
        """
        execution = self.config.execution
        if execution.store is None:
            return None
        if self._store_handle is None:
            from ..engine.store import ArtifactStore

            self._store_handle = ArtifactStore(execution.store)
        return self._store_handle

    def _stored(self, stage: str, compute, encode, decode) -> Tuple[Any, Optional[str]]:
        """See :func:`repro.engine.stored.get_or_compute`."""
        from ..engine.stored import get_or_compute

        return get_or_compute(self, stage, compute, encode, decode)

    def _compute_traces(self) -> Tuple[TraceSet, Dict[str, Any]]:
        # The store keeps the stage's own details, not the engine's.
        (traces, details, engine_details), status = self._stored(
            "traces", self._run_traces, lambda result: result[:2], self._decode_traces
        )
        details.update(engine_details)
        if status is not None:
            details["store"] = status
        return traces, details

    def _run_traces(self) -> Tuple[TraceSet, Dict[str, Any], Dict[str, Any]]:
        """``(traces, stage details, engine details)`` of a campaign run."""
        from ..engine.runner import run_trace_campaign

        traces, engine_details = run_trace_campaign(self)
        return traces, self._trace_stage_details(traces), engine_details

    def _decode_traces(self, payload):
        # Stored summary statistics avoid re-walking the arrays.
        traces, details = payload
        if not isinstance(details, dict):
            details = self._trace_stage_details(traces)
        return traces, details, {}

    def _attack_campaign(self) -> Tuple[TraceSet, Tuple[int, ...], Dict[str, Any]]:
        """The campaign projected onto the configured attack point.

        The scenario declares how the recorded plaintexts map onto the
        targeted round-1 S-box input and which subkey the projected
        attack must recover (see
        :meth:`repro.scenarios.Scenario.attack_view`); for the paper's
        single-S-box scenario the projection is the identity.  Returns
        ``(projected_traces, selection_sbox, details)``.
        """
        from ..scenarios import ScenarioError

        analysis = self.config.analysis
        scenario = self._require_scenario_workload("the analysis stage")
        traces = self.traces()
        try:
            projected, subkey, table = scenario.attack_view(
                traces.plaintexts, analysis.target_sbox
            )
        except ScenarioError as error:
            raise FlowError(str(error)) from error
        output_bits = max(table).bit_length()
        if analysis.target_bit >= output_bits:
            raise FlowError(
                f"target_bit {analysis.target_bit} is outside the "
                f"{output_bits}-bit output of S-box {self.config.campaign.sbox!r}"
            )
        details: Dict[str, Any] = {}
        if len(scenario.attack_points()) > 1:
            details["attack_point"] = (
                f"r1_sbox{analysis.target_sbox}/bit{analysis.target_bit}"
            )
        view = TraceSet(
            plaintexts=projected,
            traces=traces.traces,
            key=subkey,
            description=traces.description,
        )
        return view, table, details

    def _compute_analysis(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        analysis = self.config.analysis
        view, table, details = self._attack_campaign()
        results: Dict[str, Any] = {}
        for attack_name in analysis.attacks:
            attack = self._resolve(get_attack, attack_name)
            outcome = attack(view, table, analysis)
            results[attack_name] = outcome
            details[attack_name] = (
                f"{'recovered' if outcome.succeeded else 'resisted'} "
                f"(rank {outcome.correct_key_rank})"
            )
        return results, details

    # ----------------------------------------------------- assessment streaming

    def _energy_source(self) -> Tuple[int, Callable[[np.ndarray], np.ndarray]]:
        """The campaign's energy source: ``(width, energies)``.

        ``width`` is the stimulus bit width and ``energies`` maps a
        vector of stimulus values to their noiseless energies (see
        :func:`repro.power.trace.measure_blocks`).
        ``source="circuit"`` runs the bit-sliced kernel of the mapped
        circuit; ``source="model"`` looks the stimuli up in the
        scenario's leakage table.  This is the one place the measurement
        tells the two sources apart.
        """
        if self.config.campaign.source == "circuit":
            return kernel_energy_source(self._compiled_program())
        scenario = self._require_scenario_workload("the leakage-model campaign")
        table = self._model_leakage_table(scenario)
        return scenario.input_width, lambda plaintexts: table[plaintexts]

    def _campaign_noise(self) -> GaussianAmplitudeNoise:
        """The campaign's ``noise_std`` as Gaussian amplitude noise:
        relative to each block's mean energy for circuit campaigns,
        absolute (in leakage units) for the leakage model."""
        campaign = self.config.campaign
        return GaussianAmplitudeNoise(
            std=campaign.noise_std, relative=campaign.source == "circuit"
        )

    def _assessment_chunks(self, shard) -> Iterator[AssessmentChunk]:
        """The fixed-vs-random chunks of a shard's blocks, in block order.

        Each block (see :func:`repro.power.trace.campaign_blocks`) holds
        equal fixed and random halves in a shuffled order, measured by
        :func:`repro.power.trace.measure_blocks` with the assessment's
        noise chain; the blocks are built as the stream reaches them, so
        the working set does not grow with the shard.
        """
        config = self.config.assessment
        width, energies = self._energy_source()
        if not 0 <= config.fixed_plaintext < (1 << width):
            raise FlowError(
                f"fixed_plaintext {config.fixed_plaintext:#x} does not fit the "
                f"{width}-bit stimulus of flow {self.config.name!r}"
            )
        for stimuli, labels, measured in measure_blocks(
            shard.iter_blocks(),
            width,
            energies,
            self._assessment_noise_chain(),
            fixed=config.fixed_plaintext,
        ):
            yield AssessmentChunk(plaintexts=stimuli, labels=labels, energies=measured)

    def _assessment_noise_chain(self) -> NoiseChain:
        """The assessment bench: campaign noise first, then the configured models.

        The campaign's ``noise_std`` describes the same measurement
        environment the trace/analysis stages record, so the assessment
        applies it too (:meth:`_campaign_noise`) before the
        assessment-specific noise models.
        """
        models = [self._campaign_noise()] if self.config.campaign.noise_std > 0.0 else []
        models.extend(
            make_noise_model(spec) for spec in self.config.assessment.noise
        )
        return NoiseChain(models)

    def _fresh_assessment_methods(self) -> Dict[str, Any]:
        config = self.config.assessment
        return {
            name: self._resolve(get_assessment, name)(config)
            for name in config.methods
        }

    def _run_assessment_shard(self, shard) -> Iterator[Dict[str, Any]]:
        """Stream one engine shard's blocks into assessment methods.

        Yields one fresh method set per block, in block order, each
        updated with its block alone; the runner merges them left to
        right (see :func:`repro.engine.runner.run_assessment_campaign`).
        A pool worker lists a shard's sets, while in process each set is
        merged as it is yielded, so the working set stays one block.
        """
        obs = self._observer()
        start = time.perf_counter()
        with obs.span("shard.assessment", index=shard.index, count=shard.count):
            for chunk in self._assessment_chunks(shard):
                methods = self._fresh_assessment_methods()
                for method in methods.values():
                    method.update(chunk)
                yield methods
        if obs.active:
            obs.histogram(
                "shard.duration_s", time.perf_counter() - start, stage="assessment"
            )

    #: Reconstructors of cached assessment results, keyed by the
    #: ``"method"`` field of each result's ``to_dict()`` record.
    _ASSESSMENT_RESULT_DECODERS = {
        "ttest": TVLAResult.from_dict,
        "stats": ClassStatsResult.from_dict,
    }

    def _decode_assessment(self, payload) -> Optional[Tuple[Dict, Dict]]:
        """``(outcomes, details)`` of a stored verdict, or ``None`` when
        the payload cannot be rebuilt."""
        if not isinstance(payload, Mapping):
            return None
        outcomes: Dict[str, Any] = {}
        for name in self.config.assessment.methods:
            entry = payload.get(name)
            if not isinstance(entry, Mapping):
                return None
            decoder = self._ASSESSMENT_RESULT_DECODERS.get(entry.get("method"))
            if decoder is None:
                return None
            outcomes[name] = decoder(dict(entry))
        return outcomes, self._assessment_details({})

    def _encode_assessment(self, result) -> Optional[Dict[str, Any]]:
        """JSON payload of the outcomes, or ``None`` when not round-trippable."""
        outcomes, _ = result
        payload: Dict[str, Any] = {}
        for name, outcome in outcomes.items():
            to_dict = getattr(outcome, "to_dict", None)
            if to_dict is None:
                return None
            entry = to_dict()
            if (
                not isinstance(entry, Mapping)
                or entry.get("method") not in self._ASSESSMENT_RESULT_DECODERS
            ):
                return None
            payload[name] = entry
        return payload

    def _assessment_verdict_details(
        self, outcomes: Dict[str, Any], details: Dict[str, Any]
    ) -> Dict[str, Any]:
        leaks = False
        for name, outcome in outcomes.items():
            max_abs_t = getattr(outcome, "max_abs_t", None)
            if max_abs_t is not None:
                max_abs_t = float(max_abs_t)
                # Keep the record strict-JSON-safe: inf becomes "inf".
                details[f"{name}_max_abs_t"] = (
                    round(max_abs_t, 3) if math.isfinite(max_abs_t) else str(max_abs_t)
                )
            leaks = leaks or bool(getattr(outcome, "leaks", False))
        details["leaks"] = leaks
        return details

    def _compute_assessment(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        (outcomes, details), status = self._stored(
            "assessment",
            self._run_assessment,
            self._encode_assessment,
            self._decode_assessment,
        )
        if status is not None:
            details["store"] = status
        return outcomes, self._assessment_verdict_details(outcomes, details)

    def _run_assessment(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        from ..engine.runner import run_assessment_campaign

        outcomes, engine_details = run_assessment_campaign(self)
        return outcomes, self._assessment_details(engine_details)

    def _assessment_details(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        """The stage's trace count, then ``fields``, then its noise chain."""
        details = {"traces": 2 * self.config.assessment.traces_per_class, **fields}
        noise = self._assessment_noise_chain()
        if len(noise):
            details["noise"] = noise.describe()
        return details
