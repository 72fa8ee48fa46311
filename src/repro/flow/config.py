"""Frozen configuration objects for the :mod:`repro.flow` pipeline.

Every stage of a :class:`~repro.flow.pipeline.DesignFlow` is driven by a
small frozen dataclass: construction validates the fields eagerly (a bad
value fails at config time, not three stages into a campaign), and every
config round-trips through plain dictionaries (``to_dict`` /
``from_dict``) so flows can be stored next to their results as JSON.

Names that select a built-in backend (``TechnologyConfig.name``,
``CampaignConfig.gate_style``, ``AnalysisConfig.attacks``,
``CampaignConfig.sbox`` and the like) are looked up in the closed name
tables of :mod:`repro.flow.registry` (and their siblings
:data:`repro.electrical.GATE_STYLES`, :mod:`repro.layout.route` and
:mod:`repro.scenarios.registry`) when the flow first needs them; an
unknown name fails there with an error listing the available ones.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from ..assess.noise import normalize_noise_spec as _normalize_noise_spec
from ..boolexpr.decompose import DecompositionStyle
from ..electrical.technology import Technology
from ..power.trace import ASSESSMENT_BLOCKS_PER_CALL, BLOCK_SIZE

__all__ = [
    "ConfigError",
    "SynthesisConfig",
    "TechnologyConfig",
    "CellConfig",
    "LayoutConfig",
    "ScenarioConfig",
    "CampaignConfig",
    "AnalysisConfig",
    "AssessmentConfig",
    "ExecutionConfig",
    "ObservabilityConfig",
    "FlowConfig",
]

class ConfigError(ValueError):
    """A configuration value failed validation."""


_TECHNOLOGY_FIELDS = {f.name for f in fields(Technology)}

#: Scalar and mapping field annotations (``Optional[...]`` stripped)
#: -> (accepted types, description).  Sequence fields go through
#: :func:`_as_tuple`; bool fields take any value's truth.  The builtin
#: type comes first: ``isinstance`` stops at it before the slower
#: abstract-class check, and every config construction runs this.
_FIELD_TYPES = {
    "int": ((int, Integral), "an integer"),
    "float": ((float, int, Real), "a number"),
    "str": ((str, os.PathLike), "a string"),
    "Mapping[str, float]": ((dict, Mapping), "a mapping"),
    "Mapping[str, Any]": ((dict, Mapping), "a mapping"),
}


class _ConfigBase:
    """Shared validation and dict round-tripping for the frozen config
    dataclasses."""

    def __post_init__(self) -> None:
        # Values from --set and config JSON arrive untyped, through
        # from_dict and replace, which construct the config: a value of
        # the wrong type fails here, naming the field, rather than as a
        # TypeError inside the field checks.
        for name, kind, wanted, optional in _typed_fields(type(self)):
            value = getattr(self, name)
            if optional and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ConfigError(
                    f"{type(self).__name__}.{name} must be {wanted}"
                    f"{' or None' if optional else ''}, got {value!r}"
                )
        self._validate()

    def _validate(self) -> None:
        """The field checks and normalisations of one config class."""

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-friendly) form of the config."""
        result: Dict[str, Any] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, _ConfigBase):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, Mapping):
                value = dict(value)
            result[f.name] = value
        return result

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "_ConfigBase":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys raise :class:`ConfigError` (they usually indicate a
        typo or a config written by a newer version), and so does a
        value of the wrong type for its field (``"0xB"`` for ``key``).
        """
        cls._check_keys(data)
        kwargs: Dict[str, Any] = {}
        for name, value in data.items():
            nested = _NESTED_CONFIG_FIELDS.get((cls.__name__, name))
            if nested is not None and isinstance(value, Mapping):
                value = nested.from_dict(value)
            kwargs[name] = value
        return cls(**kwargs)

    def replace(self, **overrides: Any):
        """Copy of the config with some fields replaced (re-validates).

        Unknown field names and mistyped values raise
        :class:`ConfigError`, like :meth:`from_dict`.
        """
        self._check_keys(overrides)
        return replace(self, **overrides)

    @classmethod
    def _check_keys(cls, values: Mapping[str, Any]) -> None:
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(values) - known)
        if unknown:
            raise ConfigError(
                f"{cls.__name__}: unknown keys {unknown}; expected a subset of "
                f"{sorted(known)}"
            )


@functools.lru_cache(maxsize=None)
def _typed_fields(cls: type) -> Tuple[Tuple[str, Any, str, bool], ...]:
    """``(name, accepted type, description, optional)`` of each field of
    ``cls`` whose annotation :data:`_FIELD_TYPES` covers."""
    typed = []
    for f in fields(cls):
        optional = f.type.startswith("Optional[")
        base = f.type[len("Optional["):-1] if optional else f.type
        expected = _FIELD_TYPES.get(base)
        if expected is not None:
            typed.append((f.name, *expected, optional))
    return tuple(typed)


def _as_tuple(value) -> tuple:
    if isinstance(value, str):
        raise ConfigError(f"expected a sequence of names, got the string {value!r}")
    if not isinstance(value, Iterable):
        raise ConfigError(f"expected a sequence, got {value!r}")
    return tuple(value)


_DECOMPOSITION_STYLES = {
    "linear": DecompositionStyle.LINEAR,
    "balanced": DecompositionStyle.BALANCED,
}


def _decomposition_style(name: str) -> DecompositionStyle:
    try:
        return _DECOMPOSITION_STYLES[name]
    except KeyError:
        raise ConfigError(
            f"decomposition must be one of {sorted(_DECOMPOSITION_STYLES)}, "
            f"got {name!r}"
        ) from None


@dataclass(frozen=True)
class SynthesisConfig(_ConfigBase):
    """How the ``synthesis`` stage builds one fully connected DPDN per output.

    It shapes whole-output synthesis only (``DesignFlow.networks()``),
    not the mapped circuit: the campaign simulates the mapper's
    per-operator gate templates, so no field here changes a trace, and
    none enters a store key.

    Attributes:
        method: ``"synthesize"`` (Section 4.1, construction from the
            expression) or ``"transform"`` (Section 4.2, transformation
            of the genuine network).
        decomposition: ``"linear"`` or ``"balanced"`` operator
            decomposition (see
            :class:`repro.boolexpr.decompose.DecompositionStyle`).
        enhance: apply the Section 5 pass-gate enhancement for constant
            evaluation depth.
    """

    method: str = "synthesize"
    decomposition: str = "linear"
    enhance: bool = False

    def _validate(self) -> None:
        if self.method not in ("synthesize", "transform"):
            raise ConfigError(
                f"synthesis method must be 'synthesize' or 'transform', got {self.method!r}"
            )
        _decomposition_style(self.decomposition)

    @property
    def decomposition_style(self) -> DecompositionStyle:
        return _decomposition_style(self.decomposition)


@dataclass(frozen=True)
class TechnologyConfig(_ConfigBase):
    """Which technology card the electrical models use.

    ``name`` selects a built-in technology card
    (:data:`repro.flow.registry.TECHNOLOGIES`: ``"generic_180nm"``,
    ``"generic_130nm"``, ``"generic_65nm"``); ``overrides`` rescales
    individual card fields, e.g. ``{"c_output_load": 5e-15}`` or
    ``{"vdd": 0.9}``, which is how a custom card is described.
    """

    name: str = "generic_180nm"
    overrides: Mapping[str, float] = field(default_factory=dict)

    def _validate(self) -> None:
        if not self.name:
            raise ConfigError("technology name must be non-empty")
        object.__setattr__(self, "overrides", dict(self.overrides))
        bad = sorted(set(self.overrides) - _TECHNOLOGY_FIELDS)
        if bad:
            raise ConfigError(
                f"unknown technology overrides {bad}; valid fields are "
                f"{sorted(_TECHNOLOGY_FIELDS)}"
            )


@dataclass(frozen=True)
class CellConfig(_ConfigBase):
    """Which standard cells the library stage builds.

    ``names`` selects cells from the catalogue of
    :data:`repro.core.library.STANDARD_CELL_SPECS`; an empty tuple means
    the full catalogue.  ``decomposition`` picks the synthesis
    decomposition used for the cells.
    """

    names: Tuple[str, ...] = ()
    decomposition: str = "linear"

    def _validate(self) -> None:
        object.__setattr__(self, "names", _as_tuple(self.names))
        duplicates = sorted({name for name in self.names if self.names.count(name) > 1})
        if duplicates:
            raise ConfigError(f"duplicate cell names {duplicates}")
        _decomposition_style(self.decomposition)

    @property
    def decomposition_style(self) -> DecompositionStyle:
        return _decomposition_style(self.decomposition)


@dataclass(frozen=True)
class LayoutConfig(_ConfigBase):
    """The back-end place & route stage (:mod:`repro.layout`).

    Attributes:
        router: differential routing mode
            (:data:`repro.layout.ROUTERS`: ``"fat"``, ``"diffpair"`` or
            ``"unbalanced"``).  ``None``
            keeps the flow layout-free: no layout stage runs and every
            gate keeps the technology's ``c_wire_output`` constant --
            byte-identical to the pre-layout pipeline.  Sweepable as the
            ``layout.router`` axis (``repro sweep --axis
            layout.router=fat,unbalanced``).
        seed: placement seed (greedy tie-breaks are deterministic; the
            annealer draws from ``default_rng(seed)``).
        grid: explicit ``(rows, columns)`` placement grid; ``None``
            auto-sizes a square grid from the gate count.
        anneal_moves: simulated-annealing refinement proposals after the
            greedy constructive pass (0 keeps the greedy placement).
    """

    router: Optional[str] = None
    seed: int = 2005
    grid: Optional[Tuple[int, int]] = None
    anneal_moves: int = 1500

    def _validate(self) -> None:
        if self.router is not None and not self.router:
            raise ConfigError("router must be a non-empty name or None")
        if self.grid is not None:
            try:
                grid = tuple(int(value) for value in _as_tuple(self.grid))
            except (ConfigError, TypeError, ValueError):
                grid = ()
            if len(grid) != 2 or grid[0] < 1 or grid[1] < 1:
                raise ConfigError(
                    f"grid must be a (rows, columns) pair of positive "
                    f"integers or None, got {self.grid!r}"
                )
            object.__setattr__(self, "grid", grid)
        if self.anneal_moves < 0:
            raise ConfigError(
                f"anneal_moves must be non-negative, got {self.anneal_moves}"
            )

    @property
    def routed(self) -> bool:
        """True when the flow places and routes its circuit."""
        return self.router is not None


@dataclass(frozen=True)
class ScenarioConfig(_ConfigBase):
    """Parameters of the campaign's scenario.

    The scenario *name* lives on :attr:`CampaignConfig.scenario` (it is
    a campaign axis, sweepable as ``--axis scenario=...``); this config
    carries the scenario-specific parameters, forwarded as keyword
    arguments to the scenario's factory
    (:data:`repro.scenarios.SCENARIOS`), e.g.
    ``ScenarioConfig(params={"sboxes": 2})`` for a two-S-box
    ``present_round`` slice.
    """

    params: Mapping[str, Any] = field(default_factory=dict)

    def _validate(self) -> None:
        params = dict(self.params)
        bad = sorted(
            str(name) for name in params if not isinstance(name, str) or not name
        )
        if bad:
            raise ConfigError(
                f"scenario parameter names must be non-empty strings, got {bad}"
            )
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class CampaignConfig(_ConfigBase):
    """The trace-acquisition campaign: circuit mapping plus measurement.

    Attributes:
        key: secret key folded into the scenario datapath (a nibble for
            the default S-box scenario; the exact bound follows the
            selected scenario and is checked when the campaign runs).
        trace_count: number of recorded traces.
        source: the energy source both the trace campaign and the
            assessment stream measure
            (:func:`repro.power.trace.measure_blocks`): ``"circuit"``
            runs the gate-level charge model of the mapped circuit;
            ``"model"`` looks each stimulus up in the scenario's leakage
            table of an unprotected implementation (the
            attack-validation reference; there ``noise_std`` is an
            absolute sigma in leakage units -- Hamming weight or bit).
        model_leakage: leakage of the ``"model"`` source --
            ``"hamming"`` (Hamming weight of the round register named by
            the analysis config's ``target_round``), ``"bit"`` (the
            predicted S-box output bit alone, the selection-bit model
            single-bit DPA assumes) or ``"distance"`` (Hamming distance
            of the round-register update, the CMOS register-switching
            model).
        network_style: ``"fc"`` (protected) or ``"genuine"`` (leaky)
            gate networks for the mapped circuit.
        max_fanin: fan-in bound of the technology mapper.
        gate_style: differential gate style
            (:data:`repro.electrical.GATE_STYLES`: ``"sabl"``/``"cvsl"``).
        scenario: scenario backend (:data:`repro.scenarios.SCENARIOS`):
            ``"sbox"`` (the paper's keyed S-box), ``"present_round"``
            or ``"present_rounds"``.  Scenario parameters live in
            :class:`ScenarioConfig`.
        sbox: S-box name (``"present"`` by default, or ``"aes"``); the
            substitution table the selected scenario builds on.
        noise_std: Gaussian measurement noise
            (:class:`repro.assess.noise.GaussianAmplitudeNoise`), as a
            fraction of the mean cycle energy of each campaign block for
            ``source="circuit"``.
        seed: RNG seed of the campaign: the root of its block stream
            (:func:`repro.power.trace.campaign_blocks`).  Circuit
            campaigns are evaluated from the circuit's steady state, so
            no warm-up is drawn.
    """

    key: int = 0xB
    trace_count: int = 1000
    source: str = "circuit"
    model_leakage: str = "hamming"
    network_style: str = "fc"
    max_fanin: int = 2
    gate_style: str = "sabl"
    scenario: str = "sbox"
    sbox: str = "present"
    noise_std: float = 0.0
    seed: int = 2005

    def _validate(self) -> None:
        if self.key < 0:
            raise ConfigError(
                f"key must be non-negative (the upper bound follows the "
                f"selected S-box and is checked at run time), got {self.key}"
            )
        if self.trace_count < 1:
            raise ConfigError(f"trace_count must be positive, got {self.trace_count}")
        if self.source not in ("circuit", "model"):
            raise ConfigError(
                f"source must be 'circuit' or 'model', got {self.source!r}"
            )
        if self.model_leakage not in ("hamming", "bit", "distance"):
            raise ConfigError(
                f"model_leakage must be 'hamming', 'bit' or 'distance', "
                f"got {self.model_leakage!r}"
            )
        if self.network_style not in ("fc", "genuine"):
            raise ConfigError(
                f"network_style must be 'fc' or 'genuine', got {self.network_style!r}"
            )
        if self.max_fanin < 2:
            raise ConfigError(f"max_fanin must be at least 2, got {self.max_fanin}")
        if not self.gate_style:
            raise ConfigError("gate_style must be non-empty")
        if not self.scenario:
            raise ConfigError("scenario must be non-empty")
        if not self.sbox:
            raise ConfigError("sbox must be non-empty")
        if self.noise_std < 0.0:
            raise ConfigError(f"noise_std must be non-negative, got {self.noise_std}")


@dataclass(frozen=True)
class AnalysisConfig(_ConfigBase):
    """Which side-channel attacks the analysis stage runs, and where.

    ``attacks`` names attack backends (:data:`repro.flow.registry.ATTACKS`:
    ``"dom"``, ``"cpa"``); ``key_space`` overrides the number of key
    guesses (defaults to the S-box size).
    The remaining fields select the scenario attack point:
    ``target_sbox`` picks which round-1 parallel S-box the selection
    function predicts (multi-S-box scenarios declare one attack point
    per S-box; the paper's single-S-box workload only has slice 0),
    ``target_bit`` the predicted bit of single-bit difference-of-means
    DPA, and ``target_round`` the round register the leakage-model
    campaigns (``model_leakage`` of ``"hamming"``/``"bit"``/
    ``"distance"``) refer to.  Bounds follow the selected scenario and
    are checked when the stage runs.
    """

    attacks: Tuple[str, ...] = ("dom", "cpa")
    target_bit: int = 0
    target_sbox: int = 0
    target_round: int = 1
    key_space: Optional[int] = None

    def _validate(self) -> None:
        object.__setattr__(self, "attacks", _as_tuple(self.attacks))
        if not self.attacks:
            raise ConfigError("at least one attack must be configured")
        if not 0 <= self.target_bit < 8:
            raise ConfigError(f"target_bit must be in 0..7, got {self.target_bit}")
        if self.target_sbox < 0:
            raise ConfigError(
                f"target_sbox must be non-negative (the upper bound follows "
                f"the scenario and is checked at run time), got {self.target_sbox}"
            )
        if self.target_round < 1:
            raise ConfigError(
                f"target_round must be at least 1 (the upper bound follows "
                f"the scenario and is checked at run time), got {self.target_round}"
            )
        if self.key_space is not None and self.key_space < 2:
            raise ConfigError(f"key_space must be at least 2, got {self.key_space}")


@dataclass(frozen=True)
class AssessmentConfig(_ConfigBase):
    """The streaming leakage-assessment stage (fixed-vs-random TVLA).

    Attributes:
        enabled: include the ``assessment`` stage in default
            :meth:`~repro.flow.pipeline.DesignFlow.run` calls (the stage
            is always available on demand via ``flow.assessment()``).
        methods: assessment backends
            (:data:`repro.flow.registry.ASSESSMENTS`): ``"ttest"``
            (TVLA) and ``"stats"`` (per-class NED/NSD).
        traces_per_class: traces acquired for *each* of the fixed and
            random classes.  The campaign streams ``2 *
            traces_per_class`` cycles as blocks of
            :data:`~repro.power.trace.BLOCK_SIZE` traces, half fixed
            and half random in a shuffled order; each block updates its
            own accumulators, merged in block order.
        orders: t-test orders, a subset of ``(1, 2)``.
        threshold: the ``|t|`` pass/fail threshold (4.5 is the TVLA
            convention).
        fixed_plaintext: stimulus of the fixed class (TVLA fixes one
            input and randomises the other class; bounds are checked
            against the circuit width when the stage runs).
        noise: measurement-environment model specs applied to every
            chunk, e.g. ``({"name": "gaussian", "std": 0.02},
            {"name": "quantization", "bits": 8})`` -- see
            :mod:`repro.assess.noise`.  The campaign's ``noise_std``
            (the environment the trace/analysis stages record) is
            applied first, before these models.
        seed: RNG seed of the assessment campaign: the root of its
            block stream (stimulus, class interleaving and noise draws).
    """

    enabled: bool = False
    methods: Tuple[str, ...] = ("ttest",)
    traces_per_class: int = 2000
    orders: Tuple[int, ...] = (1, 2)
    threshold: float = 4.5
    fixed_plaintext: int = 0
    noise: Tuple[Mapping[str, Any], ...] = ()
    seed: int = 20050307

    def _validate(self) -> None:
        object.__setattr__(self, "methods", _as_tuple(self.methods))
        if not self.methods:
            raise ConfigError("at least one assessment method must be configured")
        if self.traces_per_class < 2:
            raise ConfigError(
                f"traces_per_class must be at least 2 (Welch's t-test needs "
                f"two samples per class), got {self.traces_per_class}"
            )
        orders = tuple(int(order) for order in _as_tuple(self.orders))
        object.__setattr__(self, "orders", orders)
        if not orders:
            raise ConfigError("at least one t-test order must be configured")
        bad_orders = sorted({order for order in orders if order not in (1, 2)})
        if bad_orders:
            raise ConfigError(f"t-test orders must be in (1, 2), got {bad_orders}")
        if self.threshold <= 0.0:
            raise ConfigError(f"threshold must be positive, got {self.threshold}")
        if self.fixed_plaintext < 0:
            raise ConfigError(
                f"fixed_plaintext must be non-negative (the upper bound follows "
                f"the circuit width and is checked at run time), "
                f"got {self.fixed_plaintext}"
            )
        # A bare name or a single mapping is one spec, not a sequence;
        # the parsing rule itself is shared with repro.assess.noise.
        noise = self.noise
        if isinstance(noise, (str, Mapping)):
            noise = (noise,)
        try:
            specs = tuple(
                _normalize_noise_spec(spec) for spec in _as_tuple(noise)
            )
        except ValueError as error:
            raise ConfigError(str(error)) from error
        object.__setattr__(self, "noise", specs)


@dataclass(frozen=True)
class ExecutionConfig(_ConfigBase):
    """How the heavy stages (``traces``, ``assessment``) execute.

    Every campaign is a fixed stream of
    :data:`~repro.power.trace.BLOCK_SIZE`-trace blocks
    (:func:`repro.power.trace.campaign_blocks`) and runs through
    the engine's runner as shards of whole consecutive blocks, in an
    in-process loop or on a worker pool.  No field here changes a
    result or an artifact-store key: the blocks, not the shards, own
    every random draw.

    Attributes:
        workers: worker processes of the ``"process"`` executor; 1 keeps
            execution in process.
        executor: ``"serial"`` runs the shards in an in-process loop;
            ``"process"`` maps them over the warm worker pool when
            ``workers > 1`` (one worker stays in process).  ``None``
            resolves to ``"process"`` when ``workers > 1`` and
            ``"serial"`` otherwise.
        start_method: ``multiprocessing`` start method the process
            executor pins via ``get_context`` -- ``"fork"``,
            ``"spawn"`` or ``"forkserver"``.  ``None`` picks the
            documented default (``fork`` where the platform has it,
            the platform default elsewhere).
        shard_timeout: seconds the executor waits for each shard's
            result before declaring the pool wedged and failing the
            campaign loudly (a dead worker otherwise hangs the map
            forever).  ``None`` -- the default -- waits indefinitely.
        shard_size: traces per shard, rounded up to whole blocks.
            ``None`` runs an in-process campaign as one shard and splits
            a pooled one into one shard per worker, of at most
            :data:`ASSESSMENT_BLOCKS_PER_CALL` blocks each (see
            :meth:`effective_shard_size`).
        store: root directory of the disk-backed artifact store
            (:class:`repro.engine.ArtifactStore`); ``None`` disables
            caching.
    """

    workers: int = 1
    executor: Optional[str] = None
    start_method: Optional[str] = None
    shard_timeout: Optional[float] = None
    shard_size: Optional[int] = None
    store: Optional[str] = None

    #: Start methods ``multiprocessing`` knows about on any platform;
    #: availability on *this* platform is checked when the executor is
    #: built, so configs stay portable across operating systems.
    _START_METHODS = ("fork", "spawn", "forkserver")

    _EXECUTOR_CHOICES = ("serial", "process")

    def _validate(self) -> None:
        if self.workers < 1:
            raise ConfigError(f"workers must be at least 1, got {self.workers}")
        if self.executor is not None and self.executor not in self._EXECUTOR_CHOICES:
            raise ConfigError(
                f"executor must be one of {list(self._EXECUTOR_CHOICES)} or None, "
                f"got {self.executor!r}"
            )
        if (
            self.start_method is not None
            and self.start_method not in self._START_METHODS
        ):
            raise ConfigError(
                f"start_method must be one of {list(self._START_METHODS)} or "
                f"None, got {self.start_method!r}"
            )
        if self.shard_timeout is not None and not self.shard_timeout > 0:
            raise ConfigError(
                f"shard_timeout must be positive seconds or None, "
                f"got {self.shard_timeout}"
            )
        if self.shard_size is not None and self.shard_size < 1:
            raise ConfigError(
                f"shard_size must be positive or None, got {self.shard_size}"
            )
        if self.store is not None:
            # Accept path-like objects but normalise to str: the config
            # must stay JSON-serialisable (worker specs, sweep payloads).
            store = os.fspath(self.store)
            if not store:
                raise ConfigError("store must be a non-empty path or None")
            object.__setattr__(self, "store", store)

    @property
    def pooled(self) -> bool:
        """Whether shards map on the warm worker pool (else in process)."""
        return self.resolved_executor == "process" and self.workers > 1

    def effective_shard_size(self, total: int) -> Optional[int]:
        """Traces per shard of a ``total``-trace campaign.

        An explicit ``shard_size`` rounds up to whole blocks.  Unset, an
        in-process run takes the whole campaign as one shard (``None``)
        and a pooled run splits its blocks evenly over the workers:
        ``ceil(blocks / workers)`` blocks per shard, so each worker
        builds the campaign's circuit once, capped at
        :data:`ASSESSMENT_BLOCKS_PER_CALL` blocks so a long campaign
        still reports progress and times out shard by shard.
        """
        if self.shard_size is not None:
            return -(-self.shard_size // BLOCK_SIZE) * BLOCK_SIZE
        if not self.pooled:
            return None
        blocks = -(-total // BLOCK_SIZE)
        per_shard = min(-(-blocks // self.workers), ASSESSMENT_BLOCKS_PER_CALL)
        return per_shard * BLOCK_SIZE

    @property
    def resolved_executor(self) -> str:
        """The executor name, defaulted from the worker count."""
        if self.executor is not None:
            return self.executor
        return "process" if self.workers > 1 else "serial"


@dataclass(frozen=True)
class ObservabilityConfig(_ConfigBase):
    """Where the flow's tracing, metrics and progress events go.

    Observability never changes results: the engine excludes this
    config from artifact-store keys, workers ship their events back as
    side-channel payloads, and the default (inactive) config makes
    every instrumented path a no-op.  A traced run's traces and
    verdicts are bit-identical to an untraced one.

    Attributes:
        trace: path of the JSONL event log (a
            :class:`~repro.obs.sinks.JsonlSink`); every span, counter and
            histogram event of the run is appended as one JSON object per
            line.  ``None`` disables the file sink.
        verbosity: console detail level 0..3 of the human-readable
            progress lines on stderr (a
            :class:`~repro.obs.sinks.ConsoleSink`) -- 0 silent (the
            default, no console sink), 1 stage and campaign completions
            and the pooled progress line, 2 adds shard/store/kernel
            detail, 3 everything including span starts.  The CLI's
            ``--progress`` shows level 1, and each ``-v``/``-q`` adds or
            takes one level.
        profile: wrap every observer span in :mod:`cProfile` and emit a
            ``span.profile`` event carrying the span's top-N cumulative
            hotspots (see :mod:`repro.obs.profile`).  Profiling is a
            side-channel like every other observability feature -- a
            profiled run stays bit-identical to an unprofiled one -- and
            only takes effect when some sink is active to receive the
            events (``trace`` or ``verbosity`` above 0).
        profile_top: hotspot entries kept per profiled span.

    Pool workers buffer their events and the parent replays each
    payload's events as its result arrives; the same events drive the
    progress display (:mod:`repro.obs.progress`).
    """

    trace: Optional[str] = None
    verbosity: int = 0
    profile: bool = False
    profile_top: int = 10

    def _validate(self) -> None:
        if self.trace is not None:
            trace = os.fspath(self.trace)
            if not trace:
                raise ConfigError("trace must be a non-empty path or None")
            object.__setattr__(self, "trace", trace)
        if not 0 <= self.verbosity <= 3:
            raise ConfigError(f"verbosity must be in 0..3, got {self.verbosity}")
        if not 1 <= self.profile_top <= 100:
            raise ConfigError(
                f"profile_top must be in 1..100, got {self.profile_top}"
            )

    @property
    def active(self) -> bool:
        """True when the config implies a sink: a trace file, or console
        lines at ``verbosity`` above 0 (what
        :func:`repro.obs.observer_from_config` builds).  Only then do
        pool workers buffer their events for the parent."""
        return self.trace is not None or self.verbosity > 0


@dataclass(frozen=True)
class FlowConfig(_ConfigBase):
    """Aggregate configuration of a :class:`~repro.flow.pipeline.DesignFlow`."""

    name: str = "design"
    synthesis: SynthesisConfig = field(default_factory=SynthesisConfig)
    technology: TechnologyConfig = field(default_factory=TechnologyConfig)
    cells: CellConfig = field(default_factory=CellConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    assessment: AssessmentConfig = field(default_factory=AssessmentConfig)
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    obs: ObservabilityConfig = field(default_factory=ObservabilityConfig)

    def _validate(self) -> None:
        if not self.name:
            raise ConfigError("flow name must be non-empty")


#: Nested config fields handled by ``from_dict`` ((class, field) -> type).
_NESTED_CONFIG_FIELDS = {
    ("FlowConfig", "synthesis"): SynthesisConfig,
    ("FlowConfig", "technology"): TechnologyConfig,
    ("FlowConfig", "cells"): CellConfig,
    ("FlowConfig", "layout"): LayoutConfig,
    ("FlowConfig", "scenario"): ScenarioConfig,
    ("FlowConfig", "campaign"): CampaignConfig,
    ("FlowConfig", "analysis"): AnalysisConfig,
    ("FlowConfig", "assessment"): AssessmentConfig,
    ("FlowConfig", "execution"): ExecutionConfig,
    ("FlowConfig", "obs"): ObservabilityConfig,
}
