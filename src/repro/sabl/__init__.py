"""Dynamic differential logic substrate: the SABL gate of the paper's
Fig. 1, the CVSL baseline, clocking, gate-level circuits and the
cycle-accurate power simulator."""

from .circuit import (
    Connection,
    DifferentialCircuit,
    GateInstance,
    GateTemplate,
    map_expressions,
)
from .clocking import PhaseSchedule, clock_waveform, input_rail_waveform, rail_waveforms
from .cvsl import CVSLGate
from .gate import SABLGate, TransientResult
from .simulator import BatchedCircuitEnergyModel, CircuitPowerSimulator, CyclePowerRecord

__all__ = [
    "BatchedCircuitEnergyModel",
    "SABLGate",
    "CVSLGate",
    "TransientResult",
    "PhaseSchedule",
    "clock_waveform",
    "input_rail_waveform",
    "rail_waveforms",
    "DifferentialCircuit",
    "GateInstance",
    "GateTemplate",
    "Connection",
    "map_expressions",
    "CircuitPowerSimulator",
    "CyclePowerRecord",
]
