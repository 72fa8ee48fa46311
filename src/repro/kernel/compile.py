"""Compile a differential circuit once; simulate it many times.

A :class:`CompiledProgram` bundles everything the energy models
need that is independent of the trace data: the circuit (its gate
templates plus per-gate template ids and net ids, see
:mod:`repro.sabl.circuit`), the resolved technology card, one event
table per gate template and one per routed gate
(:func:`repro.sabl.simulator.build_template_tables`: the input events of
each distinct template network are walked once, so the cost scales with
the circuit's templates and routed gates, not its gate instances) and,
built lazily on first use, the bit-sliced straight-line plan of
:mod:`repro.kernel.bitslice` and, for a circuit of at most 10 primary
inputs, the energy of every input vector.  Nothing here builds a
per-gate object: routed gates' tables are arrays per template.  The
flow pipeline caches one
program per flow alongside the circuit stage, and every engine worker
reuses its flow's program across shards.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..electrical.technology import Technology, generic_180nm
from ..obs import get_observer
from ..sabl.circuit import DifferentialCircuit
from ..sabl.simulator import GateTable, RoutedTables, build_template_tables

__all__ = ["KernelError", "CompiledProgram", "compile_circuit"]


class KernelError(ValueError):
    """A circuit cannot be compiled into a bit-sliced kernel."""


@dataclass
class CompiledProgram:
    """A circuit compiled for repeated simulation.

    Instances are immutable in spirit: the tables, plan and energy table
    are shared, read-only inputs of the energy models built from them.
    ``tables[t]`` is the table of ``circuit.templates[t]``; ``routed``
    maps the row of each gate with a routed wire load to its own table,
    held per template as arrays (:class:`~repro.sabl.simulator.RoutedTables`).
    """

    circuit: DifferentialCircuit
    technology: Technology
    gate_style: str
    output_load: Optional[float]
    net_loads: Optional[Mapping[str, Tuple[float, float]]]
    tables: Tuple[GateTable, ...]
    routed: RoutedTables
    _plan: Optional[object] = field(default=None, repr=False, compare=False)
    _table: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def plan(self):
        """The bit-sliced :class:`~repro.kernel.bitslice.BitslicePlan` (lazy)."""
        if self._plan is None:
            from .bitslice import build_bitslice_plan

            obs = get_observer()
            tick = time.perf_counter() if obs.active else 0.0
            self._plan = build_bitslice_plan(self)
            if obs.active:
                obs.histogram(
                    "kernel.plan_s",
                    time.perf_counter() - tick,
                    gates=self.gate_count(),
                )
        return self._plan

    def energy_table(self) -> Optional[np.ndarray]:
        """The energy of every input vector, indexed by its value (lazy).

        Built once by :func:`~repro.kernel.bitslice.build_energy_table`
        for a circuit of at most 10 primary inputs, whose whole input
        space fits one kernel tile; ``None`` for a wider circuit.
        """
        from .bitslice import _TABLE_WIDTH, build_energy_table

        if len(self.circuit.primary_inputs) > _TABLE_WIDTH:
            return None
        if self._table is None:
            self._table = build_energy_table(self)
        return self._table

    def gate_count(self) -> int:
        return self.circuit.gate_count()

    def gate_tables(self) -> List[GateTable]:
        """The table of every gate, in gate order (for the reference models)."""
        return [
            self.routed.get(row, self.tables[template])
            for row, template in enumerate(self.circuit.gate_template.tolist())
        ]

    def evaluate_outputs(self, matrix: np.ndarray) -> Dict[str, np.ndarray]:
        """Logic-only bit-sliced evaluation of the circuit outputs.

        ``matrix`` is a ``(traces, inputs)`` boolean array with columns
        ordered like ``circuit.primary_inputs``; returns one boolean
        ``(traces,)`` array per named circuit output.  This is the pure
        functional view used by the wide-circuit conformance tests.
        """
        from .pack import unpack_bitplanes

        matrix = np.asarray(matrix, dtype=bool)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.circuit.primary_inputs):
            raise ValueError(
                f"input matrix must have shape (traces, "
                f"{len(self.circuit.primary_inputs)})"
            )
        plan = self.plan()
        planes = plan.net_planes(matrix)
        outputs: Dict[str, np.ndarray] = {}
        for name, net in self.circuit.outputs.items():
            row = planes[plan.net_index[net]][None, :]
            outputs[name] = unpack_bitplanes(row, matrix.shape[0])[0]
        return outputs


def compile_circuit(
    circuit: DifferentialCircuit,
    technology: Optional[Technology] = None,
    gate_style: str = "sabl",
    output_load: Optional[float] = None,
    net_loads: Optional[Mapping[str, Tuple[float, float]]] = None,
) -> CompiledProgram:
    """Compile ``circuit`` into a reusable :class:`CompiledProgram`.

    The arguments mirror the simulator constructors; ``net_loads``
    back-annotates routed per-net rail capacitances exactly like
    :class:`~repro.sabl.simulator.BatchedCircuitEnergyModel`; only the
    gates it routes get tables of their own.  With observability on,
    ``kernel.compile_s`` carries the circuit's gate count (``gates``)
    and how many of them are routed (``routed``), and the
    ``kernel.gate_templates`` counter reports how many distinct gate
    networks had their event tables built.
    """
    technology = technology or generic_180nm()
    obs = get_observer()
    tick = time.perf_counter() if obs.active else 0.0
    tables, routed = build_template_tables(
        circuit,
        technology=technology,
        gate_style=gate_style,
        output_load=output_load,
        net_loads=net_loads,
    )
    if obs.active:
        obs.histogram(
            "kernel.compile_s",
            time.perf_counter() - tick,
            gates=circuit.gate_count(),
            routed=len(routed),
            gate_style=gate_style,
        )
        obs.counter(
            "kernel.gate_templates",
            len({id(table.connected) for table in tables}),
            gate_style=gate_style,
        )
    return CompiledProgram(
        circuit=circuit,
        technology=technology,
        gate_style=gate_style,
        output_load=output_load,
        net_loads=dict(net_loads) if net_loads else None,
        tables=tables,
        routed=routed,
    )
