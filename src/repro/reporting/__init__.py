"""Reporting helpers: text tables, ASCII plots and experiment records."""

from .figures import ascii_plot, ascii_waveform
from .layout import format_routing_imbalance
from .leakage import format_leakage_assessment
from .results import ExperimentResult, format_experiment_results
from .tables import format_table
from .trace import format_live_status, format_trace_summary

__all__ = [
    "format_table",
    "format_trace_summary",
    "format_live_status",
    "format_leakage_assessment",
    "format_routing_imbalance",
    "ascii_plot",
    "ascii_waveform",
    "ExperimentResult",
    "format_experiment_results",
]
