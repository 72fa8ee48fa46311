"""Switch-level transistor network substrate.

Data structures and analyses for differential pull-down networks: the
netlist model, conventional series/parallel construction, series-parallel
tree extraction, connectivity / floating-node / depth analysis, and
netlist export.
"""

from .analysis import (
    ConnectivityRecord,
    EventConduction,
    branch_conducts,
    complementary_assignments,
    conducting_components,
    conducting_paths,
    conduction_table,
    discharged_nodes,
    evaluation_depth,
    event_conduction,
    evaluation_depths,
    floating_internal_nodes,
    full_connectivity_report,
    is_fully_connected,
    nodes_connected_to,
    path_variables,
    realized_function,
    structural_paths,
)
from .build import (
    attach_series_parallel,
    build_branch,
    build_dpdn_from_branches,
    build_genuine_dpdn,
)
from .export import to_dot, to_edge_list, to_spice_subckt
from .netlist import DifferentialPullDownNetwork, Literal, NodeNameAllocator, Transistor
from .sptree import (
    NotSeriesParallelError,
    SPLeaf,
    SPNode,
    SPParallel,
    SPSeries,
    branch_devices,
    branch_trees,
    extract_sp_tree,
)

__all__ = [
    "DifferentialPullDownNetwork",
    "Literal",
    "Transistor",
    "NodeNameAllocator",
    "build_genuine_dpdn",
    "build_dpdn_from_branches",
    "build_branch",
    "attach_series_parallel",
    "is_fully_connected",
    "full_connectivity_report",
    "ConnectivityRecord",
    "EventConduction",
    "event_conduction",
    "conduction_table",
    "floating_internal_nodes",
    "discharged_nodes",
    "nodes_connected_to",
    "conducting_components",
    "conducting_paths",
    "structural_paths",
    "path_variables",
    "branch_conducts",
    "realized_function",
    "evaluation_depth",
    "evaluation_depths",
    "complementary_assignments",
    "SPNode",
    "SPLeaf",
    "SPSeries",
    "SPParallel",
    "extract_sp_tree",
    "branch_devices",
    "branch_trees",
    "NotSeriesParallelError",
    "to_spice_subckt",
    "to_dot",
    "to_edge_list",
]
