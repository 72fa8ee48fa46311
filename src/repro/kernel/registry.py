"""The simulator-backend registry.

Same pattern as ``register_router`` / ``register_scenario``: a simulator
backend is a factory ``(CompiledProgram) -> model`` where the model
exposes the :class:`~repro.sabl.simulator.BatchedCircuitEnergyModel`
interface (``energies(vectors, batch_size)``, ``reset()``).  Two
built-ins ship:

* ``"event"`` -- today's event-table model, exact reference semantics;
* ``"bitslice"`` -- the packed-uint64 kernel of
  :mod:`repro.kernel.bitslice`, bit-identical to ``"event"`` and nearly
  width-independent in throughput.

Registered names are accepted by ``CampaignConfig.simulator``, the
``repro run/sweep --simulator`` option and sweep axes.
"""

from __future__ import annotations

from typing import Callable

from ..flow.registry import Registry
from ..sabl.simulator import BatchedCircuitEnergyModel
from .bitslice import BitslicedCircuitEnergyModel
from .compile import CompiledProgram

__all__ = ["SIMULATORS", "SimulatorFactory", "register_simulator", "get_simulator"]

#: A simulator backend: ``(CompiledProgram) -> energy model``.
SimulatorFactory = Callable[[CompiledProgram], object]

#: Simulator back-ends, keyed by short name.
SIMULATORS: Registry[SimulatorFactory] = Registry("simulator")


def register_simulator(
    name: str, factory: SimulatorFactory, overwrite: bool = False
) -> None:
    """Register a simulator backend factory under ``name``."""
    SIMULATORS.register(name, factory, overwrite=overwrite)


def get_simulator(name: str) -> SimulatorFactory:
    """The simulator backend factory registered under ``name``."""
    return SIMULATORS.get(name)


def _event_backend(program: CompiledProgram) -> BatchedCircuitEnergyModel:
    return BatchedCircuitEnergyModel(
        program.circuit,
        technology=program.technology,
        gate_style=program.gate_style,
        output_load=program.output_load,
        net_loads=program.net_loads,
        tables=program.tables,
    )


def _bitslice_backend(program: CompiledProgram) -> BitslicedCircuitEnergyModel:
    return BitslicedCircuitEnergyModel(program)


register_simulator("event", _event_backend)
register_simulator("bitslice", _bitslice_backend)
