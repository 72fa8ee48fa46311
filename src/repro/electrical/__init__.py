"""Electrical substrate: technology cards, capacitance extraction, the
switched-RC transient engine and the charge-based energy models that stand
in for the paper's HSPICE runs."""

from .capacitance import CapacitanceExtraction, extract_capacitances
from .energy import (
    GATE_STYLES,
    CycleEnergyRecord,
    CycleEnergySimulator,
    EventEnergyModel,
    EventEnergyRecord,
)
from .rc import Switch, SwitchedRCCircuit
from .technology import Technology, generic_65nm, generic_130nm, generic_180nm
from .waveform import Trace, WaveformSet

__all__ = [
    "Technology",
    "generic_180nm",
    "generic_130nm",
    "generic_65nm",
    "CapacitanceExtraction",
    "extract_capacitances",
    "EventEnergyModel",
    "EventEnergyRecord",
    "CycleEnergySimulator",
    "CycleEnergyRecord",
    "GATE_STYLES",
    "SwitchedRCCircuit",
    "Switch",
    "Trace",
    "WaveformSet",
]
