"""Power-trace acquisition for the side-channel experiments.

A *trace campaign* plays random plaintexts into a key-mixed circuit,
records the per-cycle supply energy (plus optional Gaussian measurement
noise) and keeps the plaintexts so the analysis side of
:mod:`repro.power.dpa` can correlate hypotheses against the
measurements.

Every campaign -- traces or the fixed-vs-random assessment stream --
is measured by one function, :func:`measure_blocks`: each block of the
campaign (:func:`campaign_blocks`) draws its stimuli, an *energy
source* maps them to energies and a noise model adds the measurement
environment, all from the block's own generator.  Two energy sources
exist:

* the gate-level charge model (:func:`acquire_circuit_traces`), used for
  the protected-vs-unprotected comparisons (this is where the fully
  connected networks earn their keep);
* a leakage table of an unprotected implementation
  (:func:`acquire_table_model_traces`, :func:`acquire_model_traces`),
  used as a sanity check of the attack code itself and as the
  "unprotected CMOS" upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..sabl.circuit import DifferentialCircuit, map_expressions
from ..electrical.technology import Technology
from ..obs import get_observer
from .crypto import PRESENT_SBOX, hamming_weight, keyed_sbox_expressions

__all__ = [
    "TraceSet",
    "SeedLike",
    "BLOCK_SIZE",
    "Block",
    "campaign_blocks",
    "ASSESSMENT_BLOCKS_PER_CALL",
    "measure_blocks",
    "measure_traces",
    "kernel_energy_source",
    "build_sbox_circuit",
    "acquire_circuit_traces",
    "acquire_model_traces",
    "acquire_table_model_traces",
    "nibble_matrix",
]


def nibble_matrix(values: np.ndarray, width: int = 4) -> np.ndarray:
    """Little-endian bit matrix of a vector of values (column ``i`` = bit i).

    This is the stimulus-to-input-vector convention shared by the
    acquisition back-ends and the flow pipeline's assessment stream.
    Unsigned value arrays are supported (full 64-bit states shift within
    their own dtype instead of failing to cast against the bit indices).
    """
    values = np.asarray(values)
    shifts = np.arange(width, dtype=values.dtype)
    return ((values[:, None] >> shifts) & values.dtype.type(1)).astype(bool)


#: Anything the leakage-model acquisition functions accept as their
#: random source: a plain integer seed, a
#: :class:`numpy.random.SeedSequence` or an existing
#: :class:`numpy.random.Generator` (consumed in place -- successive calls
#: continue the same stream instead of reseeding).  Circuit campaigns
#: take an integer or a ``SeedSequence``: the root of their block stream
#: (see :func:`campaign_blocks`).
SeedLike = Union[int, np.random.SeedSequence, np.random.Generator]

#: An energy source: a vector of stimulus values to their noiseless
#: per-cycle energies.
EnergySource = Callable[[np.ndarray], np.ndarray]

#: Traces per campaign block.  A campaign is a fixed stream of blocks:
#: block ``i`` draws its stimuli and noise from child ``i`` of
#: ``SeedSequence(seed).spawn(n_blocks)``, so how the blocks are grouped
#: into kernel calls, shards or worker processes never changes a trace.
BLOCK_SIZE = 256

#: Blocks per energy-source call of :func:`measure_blocks`: 16 blocks
#: are 4096 traces, four kernel tiles -- enough to amortise the
#: per-call cost, small enough that a campaign's working set stays
#: bounded.  Also the most blocks in one shard of a pooled run that
#: configures no shard size.
ASSESSMENT_BLOCKS_PER_CALL = 16


@dataclass(frozen=True)
class Block:
    """One block of a campaign: ``count`` traces from ``start`` on.

    ``seed`` is the block's spawned ``SeedSequence`` child; every draw of
    the block (stimuli, class labels, noise) comes from :meth:`rng`.  A
    one-block stream may take any :data:`SeedLike` instead (a
    ``Generator`` is then drawn from in place).
    """

    index: int
    start: int
    count: int
    seed: SeedLike

    def rng(self) -> np.random.Generator:
        """A fresh generator over the block's stream."""
        return np.random.default_rng(self.seed)


def campaign_blocks(
    total: int,
    seed: Union[int, np.random.SeedSequence],
    first: int = 0,
    stop: Optional[int] = None,
) -> Tuple[Block, ...]:
    """Blocks ``first .. stop - 1`` of a ``total``-trace campaign.

    Every block holds :data:`BLOCK_SIZE` traces but the last, which holds
    the rest.  Block ``i`` is seeded with child ``i`` of
    ``SeedSequence(seed).spawn(n_blocks)`` (built directly, so a
    ``SeedSequence`` root is never mutated and any run of blocks can be
    planned on its own).  This is the one definition of a campaign's
    blocks: trace acquisition, the assessment stream and the engine's
    shard plans all read it.
    """
    if total < 1:
        raise ValueError(f"total must be positive, got {total}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    n_blocks = -(-total // BLOCK_SIZE)
    stop = n_blocks if stop is None else stop
    if not 0 <= first < stop <= n_blocks:
        raise ValueError(
            f"block range {first}..{stop} is outside the {n_blocks} blocks "
            f"of a {total}-trace campaign"
        )
    return tuple(
        Block(
            index=index,
            start=index * BLOCK_SIZE,
            count=min(BLOCK_SIZE, total - index * BLOCK_SIZE),
            seed=np.random.SeedSequence(
                root.entropy,
                spawn_key=root.spawn_key + (index,),
                pool_size=root.pool_size,
            ),
        )
        for index in range(first, stop)
    )


@dataclass
class TraceSet:
    """A set of single-sample power traces with their plaintexts."""

    plaintexts: np.ndarray
    traces: np.ndarray
    key: int
    description: str = ""

    def __post_init__(self) -> None:
        self.plaintexts = np.asarray(self.plaintexts, dtype=np.int64)
        self.traces = np.asarray(self.traces, dtype=float)
        if self.plaintexts.shape[0] != self.traces.shape[0]:
            raise ValueError("plaintext and trace counts differ")

    def __len__(self) -> int:
        return int(self.traces.shape[0])

    def subset(self, count: int) -> "TraceSet":
        """First ``count`` traces (for measurements-to-disclosure sweeps)."""
        return TraceSet(
            plaintexts=self.plaintexts[:count],
            traces=self.traces[:count],
            key=self.key,
            description=self.description,
        )


def build_sbox_circuit(
    key: int,
    network_style: str = "fc",
    max_fanin: int = 2,
    sbox: Sequence[int] = PRESENT_SBOX,
    name: Optional[str] = None,
) -> DifferentialCircuit:
    """Gate-level circuit computing ``S(p XOR key)`` for a 4-bit S-box."""
    expressions = keyed_sbox_expressions(key, sbox=sbox)
    return map_expressions(
        expressions,
        primary_inputs=[f"p{i}" for i in range(4)],
        max_fanin=max_fanin,
        network_style=network_style,
        name=name or f"sbox_{network_style}",
    )


def measure_blocks(
    blocks: Iterable[Block],
    width: int,
    energies: EnergySource,
    noise: Callable[[np.ndarray, np.random.Generator], np.ndarray],
    fixed: Optional[int] = None,
) -> Iterator[Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]]:
    """Measure a run of campaign blocks: ``(stimuli, labels, energies)``
    per block, in block order.

    Each block's generator draws, in this order: the class labels when
    ``fixed`` is set (equal fixed and random halves, shuffled; the fixed
    traces' stimulus is ``fixed``), the ``width``-bit stimuli (as
    ``uint64`` from 64 bits on, where the default ``int64`` draw
    overflows), then whatever ``noise(energies, rng)`` draws.  Without
    ``fixed``, ``labels`` is ``None``.  The energy source is called on
    the stimuli of :data:`ASSESSMENT_BLOCKS_PER_CALL` blocks at a time,
    so the working set does not grow with the run (``blocks`` may be a
    lazy iterator); since every draw belongs to a block, the grouping
    never changes a result.  The fixed class is measured once per run:
    the source sees the run's first fixed cycle and every random one,
    and each later fixed cycle takes that first cycle's energy, which
    equals its own because a cycle's energy depends on its stimulus
    alone.  This is the one measurement loop: trace campaigns,
    leakage-model campaigns and the assessment stream all run through
    it.
    """
    draw = {"dtype": np.uint64} if width >= 64 else {}
    fixed_energy = None
    blocks = iter(blocks)
    while True:
        group = tuple(islice(blocks, ASSESSMENT_BLOCKS_PER_CALL))
        if not group:
            return
        rngs = [block.rng() for block in group]
        drawn = []
        for block, rng in zip(group, rngs):
            labels = None
            if fixed is not None:
                labels = np.zeros(block.count, dtype=bool)
                labels[: block.count // 2] = True
                rng.shuffle(labels)
            stimuli = rng.integers(0, 1 << width, size=block.count, **draw)
            if fixed is not None:
                stimuli[labels] = fixed
            drawn.append((stimuli, labels))
        stimuli = np.concatenate([stimuli for stimuli, _ in drawn])
        if fixed is None:
            measured = energies(stimuli)
        else:
            labels = np.concatenate([labels for _, labels in drawn])
            measured, fixed_energy = _measure_fixed_once(
                stimuli, labels, energies, fixed_energy
            )
        bounds = np.cumsum([block.count for block in group])[:-1]
        for (stimuli, labels), part, rng in zip(drawn, np.split(measured, bounds), rngs):
            yield stimuli, labels, noise(part, rng)


def _measure_fixed_once(
    stimuli: np.ndarray,
    labels: np.ndarray,
    energies: EnergySource,
    fixed_energy: Optional[np.floating],
) -> Tuple[np.ndarray, Optional[np.floating]]:
    """``(energies, fixed_energy)`` of a group of fixed-vs-random cycles.

    The source measures the random cycles and, while ``fixed_energy`` is
    ``None``, the first fixed cycle: every cycle before it is random, so
    it keeps its position ``first`` among the measured cycles.
    """
    query = ~labels
    first = int(labels.argmax())
    fresh = fixed_energy is None and bool(labels[first])
    query[first] |= fresh
    index = np.flatnonzero(query)
    values = energies(stimuli.take(index))
    fixed_energy = values[first] if fresh else fixed_energy
    if fixed_energy is None:
        return values, None
    measured = np.full(labels.shape[0], fixed_energy, dtype=values.dtype)
    measured.put(index, values)
    return measured, fixed_energy


def measure_traces(
    blocks: Iterable[Block],
    width: int,
    energies: EnergySource,
    noise: Callable[[np.ndarray, np.random.Generator], np.ndarray],
    key: int,
    description: str = "",
) -> TraceSet:
    """The trace set :func:`measure_blocks` records over ``blocks``."""
    stimuli, _, measured = zip(*measure_blocks(blocks, width, energies, noise))
    return TraceSet(
        plaintexts=np.concatenate(stimuli),
        traces=np.concatenate(measured),
        key=key,
        description=description,
    )


def kernel_energy_source(program: Any) -> Tuple[int, EnergySource]:
    """``(width, energies)`` of a compiled circuit: its stimulus width and
    the kernel's energies of the stimuli, whose little-endian bit ``i``
    drives ``circuit.primary_inputs[i]``.

    A circuit of at most 10 primary inputs is looked up: each cycle's
    energy is ``table[stimulus]`` in the program's
    :meth:`~repro.kernel.CompiledProgram.energy_table`, which the kernel
    filled once with the energy of every input vector, so the lookup is
    bit-identical to evaluating the cycle.  With observability on, each
    lookup counts its cycles as ``kernel.path_cycles`` with
    ``path="table"``.  A wider circuit runs the bit-sliced kernel on the
    stimuli's bits.  This is the one place stimuli meet the kernel.
    """
    from ..kernel import BitslicedCircuitEnergyModel

    width = len(program.circuit.primary_inputs)
    table = program.energy_table()
    if table is None:
        model = BitslicedCircuitEnergyModel(program)
        return width, lambda stimuli: model.energies(nibble_matrix(stimuli, width))
    mask = table.shape[0] - 1

    def lookup(stimuli: np.ndarray) -> np.ndarray:
        # The mask keeps the stimulus bits nibble_matrix would read.
        energies = table[stimuli & mask]
        obs = get_observer()
        if obs.active and energies.size:
            obs.counter(
                "kernel.path_cycles", energies.size, simulator="bitslice", path="table"
            )
        return energies

    return width, lookup


def acquire_circuit_traces(
    circuit: DifferentialCircuit,
    key: int,
    trace_count: int,
    technology: Optional[Technology] = None,
    gate_style: str = "sabl",
    noise_std: float = 0.0,
    seed: Union[int, np.random.SeedSequence] = 2005,
    net_loads: Optional[Mapping[str, Tuple[float, float]]] = None,
    program: Optional[Any] = None,
    block_range: Optional[Tuple[int, int]] = None,
) -> TraceSet:
    """Record one power sample per cycle from the gate-level charge model.

    The campaign is the block stream of :func:`campaign_blocks`, measured
    by :func:`measure_blocks`: each block draws its plaintexts, then its
    noise, from its own spawned child of ``seed`` (an integer or a
    ``SeedSequence``).  ``block_range=(first, stop)`` acquires only those
    blocks of the ``trace_count``-trace campaign -- an engine shard --
    and the concatenated shards equal the whole campaign bit for bit.

    ``noise_std`` is expressed as a fraction of the mean cycle energy of
    each block (e.g. 0.05 adds Gaussian noise with a sigma of 5 % of the
    block's mean; :class:`repro.assess.noise.GaussianAmplitudeNoise`),
    modelling measurement noise and the activity of unrelated logic.

    The energies come from the compiled bit-sliced kernel
    (:class:`repro.kernel.BitslicedCircuitEnergyModel`) through
    :func:`kernel_energy_source`: a circuit of at most 10 primary inputs
    is evaluated once over its whole input space and every cycle is a
    lookup in that table; a wider one is called on
    :data:`ASSESSMENT_BLOCKS_PER_CALL` blocks at a time.  Every cycle is
    evaluated from the circuit's steady state, in which each internal
    node an input event can connect has already discharged once, so a
    trace depends on its own plaintext alone.  The kernel is
    bit-identical to the batched reference model of
    :mod:`repro.sabl.simulator` put into that state, and to its
    per-trace simulator on mapped circuits (a hand-built network with
    many internal nodes sums them in another order there, and agrees to
    within a few ulp); both stay as test oracles.  ``program``
    optionally supplies an existing
    :class:`~repro.kernel.CompiledProgram` of ``circuit`` so repeated
    acquisitions (engine shards, sweeps) skip recompilation.

    The plaintext space follows the circuit's primary inputs: plaintext
    bit ``i`` (little-endian) drives ``circuit.primary_inputs[i]``, so
    circuits wider than the 4-bit S-box are supported transparently.

    ``net_loads`` back-annotates routed per-net rail capacitances
    (``{output_net: (c_true, c_false)}``, see
    :meth:`repro.layout.NetParasitics.rail_loads`) into the kernel;
    ``None`` keeps the layout-free streams byte-identical.
    """
    from ..assess.noise import GaussianAmplitudeNoise
    from ..kernel import compile_circuit

    if program is None:
        program = compile_circuit(
            circuit,
            technology=technology,
            gate_style=gate_style,
            net_loads=net_loads,
        )
    elif program.circuit is not circuit:
        raise ValueError(
            "program was compiled from a different circuit than the one "
            "being traced; recompile with repro.kernel.compile_circuit"
        )
    width, energies = kernel_energy_source(program)
    return measure_traces(
        campaign_blocks(trace_count, seed, *(block_range or ())),
        width,
        energies,
        GaussianAmplitudeNoise(std=noise_std),
        key=key,
        description=f"{circuit.name} ({gate_style}, noise={noise_std})",
    )

def simulated_energy_predictor(
    network_style: str = "genuine",
    max_fanin: int = 2,
    sbox: Sequence[int] = PRESENT_SBOX,
    technology: Optional[Technology] = None,
    gate_style: str = "sabl",
):
    """Build a per-key-guess energy predictor for profiled (template) CPA.

    The returned callable ``predict(plaintexts, guess)`` simulates a clone
    of the target implementation keyed with ``guess`` on the given
    plaintext sequence and returns its steady-state per-cycle energies.
    Attacking with this predictor models the strongest reasonable
    adversary: one that owns an identical device (or a perfect simulator
    of it) and can profile it for every key guess.
    """
    from ..kernel import compile_circuit

    def predict(plaintexts: np.ndarray, guess: int) -> np.ndarray:
        circuit = build_sbox_circuit(
            guess, network_style=network_style, max_fanin=max_fanin, sbox=sbox,
            name=f"predictor_{network_style}_{guess:x}",
        )
        _, energies = kernel_energy_source(
            compile_circuit(circuit, technology=technology, gate_style=gate_style)
        )
        return energies(np.asarray(plaintexts, dtype=np.int64))

    return predict


def acquire_table_model_traces(
    leakage_table: np.ndarray,
    key: int,
    trace_count: int,
    noise_std: float = 0.0,
    seed: SeedLike = 2005,
    description: str = "",
) -> TraceSet:
    """Leakage-model acquisition from a per-plaintext table.

    ``leakage_table[p]`` is the noiseless leakage of plaintext ``p``
    (e.g. the Hamming weight or Hamming distance of a multi-bit round
    register, with the key already folded in -- see
    :meth:`repro.scenarios.Scenario.leakage_table`); the table length
    must be a power of two and fixes the plaintext space.  The campaign
    is one block over ``seed`` (see :data:`SeedLike`), measured by
    :func:`measure_blocks` as a single vectorized gather: the plaintext
    draws first, then Gaussian noise of absolute sigma ``noise_std``
    (in the table's units).  The flow's ``source="model"`` campaigns
    measure the same table over their block stream instead.
    """
    from ..assess.noise import GaussianAmplitudeNoise

    table = np.asarray(leakage_table, dtype=float)
    size = table.shape[0]
    if size < 2 or size & (size - 1):
        raise ValueError(
            f"leakage table length must be a power of two >= 2, got {size}"
        )
    return measure_traces(
        [Block(index=0, start=0, count=trace_count, seed=seed)],
        size.bit_length() - 1,
        lambda plaintexts: table[plaintexts],
        GaussianAmplitudeNoise(std=noise_std, relative=False),
        key=key,
        description=description or f"table model (noise={noise_std})",
    )

def acquire_model_traces(
    key: int,
    trace_count: int,
    sbox: Sequence[int] = PRESENT_SBOX,
    noise_std: float = 0.0,
    seed: SeedLike = 2005,
    target_bit: Optional[int] = None,
) -> TraceSet:
    """Leakage model of an unprotected implementation.

    By default each trace is ``HW(S(p XOR key))`` plus optional Gaussian
    noise of sigma ``noise_std`` (in Hamming-weight units) -- the
    textbook Hamming-weight model, used to validate the attack
    implementation and as the unprotected-CMOS reference.  With
    ``target_bit`` set, the leakage is that single bit of the S-box
    output instead (the Kocher-style selection-bit model; note that full
    Hamming-weight leakage of a 4-bit S-box produces exact
    difference-of-means ghost peaks, so single-bit DPA needs this
    variant to demonstrate a recovery).  ``seed`` accepts an integer, a
    :class:`numpy.random.SeedSequence` or a live
    :class:`numpy.random.Generator` (see :data:`SeedLike`).

    This is the single-S-box front end of
    :func:`acquire_table_model_traces`.
    """
    if target_bit is None:
        table = np.array(
            [float(hamming_weight(sbox[index ^ key])) for index in range(len(sbox))]
        )
        description = f"hamming-weight model (noise={noise_std})"
    else:
        table = np.array(
            [float((sbox[index ^ key] >> target_bit) & 1) for index in range(len(sbox))]
        )
        description = f"single-bit model (bit {target_bit}, noise={noise_std})"
    return acquire_table_model_traces(
        table,
        key=key,
        trace_count=trace_count,
        noise_std=noise_std,
        seed=seed,
        description=description,
    )
