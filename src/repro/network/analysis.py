"""Topological analysis of differential pull-down networks.

Everything the paper states about a DPDN is a property of its *conducting
graph*: the graph whose edges are the transistors that conduct under a
given complementary input assignment.  This module computes

* connected components of the conducting graph,
* one conduction analysis per input event -- the discharged nodes and
  which branch conducts, from a single walk of the conducting graph
  (:func:`event_conduction`, :func:`conduction_table`),
* which nodes discharge during an evaluation phase and which float
  (:func:`discharged_nodes`, :func:`floating_internal_nodes`),
* the *fully connected* property of Section 3
  (:func:`is_fully_connected`),
* the logical function realised by each branch
  (:func:`branch_conducts`, :func:`realized_function`),
* evaluation depths -- the number of devices in series on a discharge
  path (Section 5), and
* the discharge paths themselves, for reporting and for the pass-gate
  insertion of :mod:`repro.core.enhance`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from ..boolexpr.ast import Expr
from ..boolexpr.truthtable import assignments
from .netlist import DifferentialPullDownNetwork, Transistor

__all__ = [
    "complementary_assignments",
    "EventConduction",
    "event_conduction",
    "conduction_table",
    "conducting_components",
    "component_of",
    "nodes_connected_to",
    "discharged_nodes",
    "floating_internal_nodes",
    "is_fully_connected",
    "full_connectivity_report",
    "ConnectivityRecord",
    "branch_conducts",
    "realized_function",
    "conducting_paths",
    "evaluation_depth",
    "evaluation_depths",
    "path_variables",
    "structural_paths",
]


def complementary_assignments(variables: Sequence[str]) -> Iterator[Dict[str, bool]]:
    """All complementary input events of the gate.

    During the evaluation phase each input pair carries one 1 and one 0,
    so an event is fully described by the logical value of each variable.
    """
    yield from assignments(list(variables))


# --------------------------------------------------------------------------- connectivity


def conducting_components(
    dpdn: DifferentialPullDownNetwork, assignment: Mapping[str, bool]
) -> List[Set[str]]:
    """Connected components of the conducting graph under ``assignment``."""
    adjacency = dpdn.adjacency(assignment)
    seen: Set[str] = set()
    components: List[Set[str]] = []
    for start in dpdn.nodes():
        if start in seen:
            continue
        component = _bfs(adjacency, start)
        seen |= component
        components.append(component)
    return components


def _bfs(adjacency: Mapping[str, List[Tuple[str, Transistor]]], start: str) -> Set[str]:
    component = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbour, _ in adjacency.get(node, ()):  # type: ignore[call-overload]
            if neighbour not in component:
                component.add(neighbour)
                queue.append(neighbour)
    return component


def component_of(
    dpdn: DifferentialPullDownNetwork, assignment: Mapping[str, bool], node: str
) -> Set[str]:
    """Connected component of ``node`` in the conducting graph."""
    return _bfs(dpdn.adjacency(assignment), node)


def nodes_connected_to(
    dpdn: DifferentialPullDownNetwork,
    assignment: Mapping[str, bool],
    targets: Iterable[str],
) -> Set[str]:
    """All nodes connected (through conducting devices) to any of ``targets``."""
    adjacency = dpdn.adjacency(assignment)
    result: Set[str] = set()
    for target in targets:
        if target in result:
            continue
        result |= _bfs(adjacency, target)
    return result


@dataclass(frozen=True)
class EventConduction:
    """What one complementary input event does to the network.

    ``discharged`` holds every node connected through conducting devices
    to ``X``, ``Y`` or ``Z`` (see :func:`discharged_nodes`);
    ``x_conducts`` and ``y_conducts`` tell whether each branch has a
    conducting path to ``Z``.
    """

    assignment: Mapping[str, bool]
    discharged: FrozenSet[str]
    x_conducts: bool
    y_conducts: bool


def event_conduction(
    dpdn: DifferentialPullDownNetwork, assignment: Mapping[str, bool]
) -> EventConduction:
    """Analyse one input event from a single build of its conducting graph."""
    adjacency = dpdn.adjacency(assignment)
    x_side = _bfs(adjacency, dpdn.x)
    y_side = x_side if dpdn.y in x_side else _bfs(adjacency, dpdn.y)
    z_side = x_side if dpdn.z in x_side else y_side if dpdn.z in y_side else _bfs(adjacency, dpdn.z)
    return EventConduction(
        assignment=assignment,
        discharged=frozenset(x_side | y_side | z_side),
        x_conducts=dpdn.z in x_side,
        y_conducts=dpdn.z in y_side,
    )


def conduction_table(dpdn: DifferentialPullDownNetwork) -> List[EventConduction]:
    """:func:`event_conduction` for every complementary input event, in order."""
    return [
        event_conduction(dpdn, assignment)
        for assignment in complementary_assignments(dpdn.variables())
    ]


def discharged_nodes(
    dpdn: DifferentialPullDownNetwork, assignment: Mapping[str, bool]
) -> Set[str]:
    """Nodes of the DPDN that discharge during the evaluation phase.

    During evaluation the common node ``Z`` is pulled to ground by the
    clocked foot transistor, and the two module outputs ``X`` and ``Y``
    are connected to each other by the always-on (during evaluation)
    transistor M1 of the SABL gate, so both of them discharge regardless
    of which branch conducts.  Every DPDN node connected through a
    conducting device to ``X``, ``Y`` or ``Z`` therefore discharges as
    well; the remaining internal nodes float and keep their charge -- the
    memory effect.
    """
    return set(event_conduction(dpdn, assignment).discharged)


def floating_internal_nodes(
    dpdn: DifferentialPullDownNetwork, assignment: Mapping[str, bool]
) -> Set[str]:
    """Internal nodes left floating (not discharged) under ``assignment``."""
    discharged = event_conduction(dpdn, assignment).discharged
    return {node for node in dpdn.internal_nodes() if node not in discharged}


@dataclass(frozen=True)
class ConnectivityRecord:
    """Connectivity of the internal nodes for one input event."""

    assignment: Tuple[Tuple[str, bool], ...]
    discharged: FrozenSet[str]
    floating: FrozenSet[str]

    @property
    def is_fully_connected(self) -> bool:
        """True when no internal node floats for this event."""
        return not self.floating


def full_connectivity_report(
    dpdn: DifferentialPullDownNetwork,
) -> List[ConnectivityRecord]:
    """Per-event connectivity of the internal nodes, for every input event."""
    internal = set(dpdn.internal_nodes())
    records: List[ConnectivityRecord] = []
    for event in conduction_table(dpdn):
        records.append(
            ConnectivityRecord(
                assignment=tuple(sorted(event.assignment.items())),
                discharged=event.discharged,
                floating=frozenset(internal - event.discharged),
            )
        )
    return records


def is_fully_connected(dpdn: DifferentialPullDownNetwork) -> bool:
    """The paper's defining property (Section 3).

    A DPDN is *fully connected* when, for every complementary input
    combination, every internal node of the network is connected through
    conducting devices to one of the external nodes -- and therefore
    discharges every evaluation phase.
    """
    internal = set(dpdn.internal_nodes())
    if not internal:
        return True
    return all(
        internal <= event_conduction(dpdn, assignment).discharged
        for assignment in complementary_assignments(dpdn.variables())
    )


# --------------------------------------------------------------------------- function


def branch_conducts(
    dpdn: DifferentialPullDownNetwork,
    assignment: Mapping[str, bool],
    output: Optional[str] = None,
) -> bool:
    """True when ``output`` (default X) has a conducting path to ``Z``."""
    source = dpdn.x if output is None else output
    return dpdn.z in component_of(dpdn, assignment, source)


def realized_function(
    dpdn: DifferentialPullDownNetwork,
) -> Dict[Tuple[Tuple[str, bool], ...], Tuple[bool, bool]]:
    """Map each input event to ``(X conducts to Z, Y conducts to Z)``.

    A correct differential network has exactly one of the two true for
    every event, with the X column equal to the gate function.
    """
    return {
        tuple(sorted(event.assignment.items())): (event.x_conducts, event.y_conducts)
        for event in conduction_table(dpdn)
    }


# --------------------------------------------------------------------------- paths / depth


def conducting_paths(
    dpdn: DifferentialPullDownNetwork,
    assignment: Mapping[str, bool],
    source: str,
    target: str,
) -> List[List[Transistor]]:
    """All simple paths of conducting devices between two nodes."""
    adjacency = dpdn.adjacency(assignment)
    return _simple_paths(adjacency, source, target)


def structural_paths(
    dpdn: DifferentialPullDownNetwork, source: str, target: str
) -> List[List[Transistor]]:
    """All simple device paths between two nodes, ignoring gate values."""
    adjacency = dpdn.adjacency(None)
    return _simple_paths(adjacency, source, target)


def _simple_paths(
    adjacency: Mapping[str, List[Tuple[str, Transistor]]], source: str, target: str
) -> List[List[Transistor]]:
    paths: List[List[Transistor]] = []
    if source == target:
        return paths

    def extend(node: str, visited: Set[str], path: List[Transistor]) -> None:
        for neighbour, transistor in adjacency.get(node, ()):  # type: ignore[call-overload]
            if neighbour == target:
                paths.append(path + [transistor])
            elif neighbour not in visited:
                extend(neighbour, visited | {neighbour}, path + [transistor])

    extend(source, {source}, [])
    return paths


def path_variables(path: Sequence[Transistor]) -> Set[str]:
    """Input variables controlling the devices of a path."""
    return {transistor.gate.variable for transistor in path}


def evaluation_depth(
    dpdn: DifferentialPullDownNetwork, assignment: Mapping[str, bool]
) -> Optional[int]:
    """Evaluation depth of the discharge event under ``assignment``.

    Following Section 5, the evaluation depth is the number of transistors
    in series between the conducting module output (X or Y) and the common
    node Z; when several conducting paths exist the shortest one dominates
    the discharge and is reported.  Returns ``None`` when neither branch
    conducts (a malformed network).
    """
    depths = []
    for output in (dpdn.x, dpdn.y):
        for path in conducting_paths(dpdn, assignment, output, dpdn.z):
            depths.append(len(path))
    if not depths:
        return None
    return min(depths)


def evaluation_depths(dpdn: DifferentialPullDownNetwork) -> Dict[Tuple[Tuple[str, bool], ...], Optional[int]]:
    """Evaluation depth for every complementary input event."""
    result: Dict[Tuple[Tuple[str, bool], ...], Optional[int]] = {}
    for assignment in complementary_assignments(dpdn.variables()):
        result[tuple(sorted(assignment.items()))] = evaluation_depth(dpdn, assignment)
    return result
