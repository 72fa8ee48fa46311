"""Series-parallel decomposition of pull-down branches.

The Section 4.2 transformation starts from an *existing* genuine DPDN, so
it needs to recover the series/parallel structure of each branch from the
raw transistor graph: which devices form "networks in series", what their
internal (joint) nodes are, and which parallel network in the opposite
branch is the dual of each series network.

This module extracts that structure.  :func:`branch_devices` splits the
device list of a genuine DPDN into its X branch and Y branch, and
:func:`extract_sp_tree` reduces a branch to a series-parallel tree using
the classical two-rule reduction (merge parallel edges, contract
degree-two internal nodes).  Each tree node knows its terminal nodes, the
devices it contains, the joint nodes of series compositions and the
Boolean function it realises -- everything the transformation and the
verification layer need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..boolexpr.ast import And, Expr, Or
from .netlist import DifferentialPullDownNetwork, Transistor

__all__ = [
    "SPNode",
    "SPLeaf",
    "SPSeries",
    "SPParallel",
    "NotSeriesParallelError",
    "extract_sp_tree",
    "branch_devices",
    "branch_trees",
]


class NotSeriesParallelError(ValueError):
    """Raised when a branch cannot be reduced to a series-parallel tree."""


class SPNode:
    """Base class for series-parallel tree nodes.

    Every node is oriented: ``top`` is the terminal nearer the module
    output, ``bottom`` the terminal nearer the common node Z.
    """

    top: str
    bottom: str

    def devices(self) -> List[Transistor]:
        """All transistors contained in this subtree."""
        raise NotImplementedError

    def function(self) -> Expr:
        """Boolean condition under which the subtree conducts top-to-bottom."""
        raise NotImplementedError

    def reversed(self) -> "SPNode":
        """The same subtree with top and bottom swapped."""
        raise NotImplementedError

    def device_names(self) -> Set[str]:
        return {device.name for device in self.devices()}


@dataclass(frozen=True)
class SPLeaf(SPNode):
    """A single transistor."""

    transistor: Transistor
    top: str
    bottom: str

    def devices(self) -> List[Transistor]:
        return [self.transistor]

    def function(self) -> Expr:
        return self.transistor.gate.to_expr()

    def reversed(self) -> "SPLeaf":
        return SPLeaf(self.transistor, top=self.bottom, bottom=self.top)

    def __repr__(self) -> str:
        return f"Leaf({self.transistor.gate!r})"


@dataclass(frozen=True)
class SPSeries(SPNode):
    """A series composition, ordered from ``top`` to ``bottom``.

    ``joints`` are the internal nodes between consecutive children, so
    ``len(joints) == len(children) - 1``.  These joint nodes are exactly
    the nodes the Section 4.2 transformation reconnects the opened
    parallel components to.
    """

    children: Tuple[SPNode, ...]
    joints: Tuple[str, ...]
    top: str
    bottom: str

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("series composition needs at least two children")
        if len(self.joints) != len(self.children) - 1:
            raise ValueError("series composition needs one joint per adjacent child pair")

    def devices(self) -> List[Transistor]:
        result: List[Transistor] = []
        for child in self.children:
            result.extend(child.devices())
        return result

    def function(self) -> Expr:
        return And(*(child.function() for child in self.children))

    def reversed(self) -> "SPSeries":
        return SPSeries(
            children=tuple(child.reversed() for child in reversed(self.children)),
            joints=tuple(reversed(self.joints)),
            top=self.bottom,
            bottom=self.top,
        )

    def __repr__(self) -> str:
        return "Series(" + ", ".join(repr(child) for child in self.children) + ")"


@dataclass(frozen=True)
class SPParallel(SPNode):
    """A parallel composition between two terminal nodes."""

    children: Tuple[SPNode, ...]
    top: str
    bottom: str

    def __post_init__(self) -> None:
        if len(self.children) < 2:
            raise ValueError("parallel composition needs at least two children")

    def devices(self) -> List[Transistor]:
        result: List[Transistor] = []
        for child in self.children:
            result.extend(child.devices())
        return result

    def function(self) -> Expr:
        return Or(*(child.function() for child in self.children))

    def reversed(self) -> "SPParallel":
        return SPParallel(
            children=tuple(child.reversed() for child in self.children),
            top=self.bottom,
            bottom=self.top,
        )

    def __repr__(self) -> str:
        return "Parallel(" + ", ".join(repr(child) for child in self.children) + ")"


# --------------------------------------------------------------------------- orientation


def _oriented(node: SPNode, top: str, bottom: str) -> SPNode:
    """Return ``node`` oriented so that its terminals are (top, bottom)."""
    if node.top == top and node.bottom == bottom:
        return node
    if node.top == bottom and node.bottom == top:
        return node.reversed()
    raise ValueError(
        f"subtree terminals ({node.top}, {node.bottom}) do not match ({top}, {bottom})"
    )


def _series(first: SPNode, second: SPNode, joint: str) -> SPNode:
    """Series-compose two subtrees that meet at ``joint``."""
    if first.bottom != joint:
        if first.top != joint:
            raise ValueError(f"{joint!r} is not a terminal of the first subtree")
        first = first.reversed()
    if second.top != joint:
        if second.bottom != joint:
            raise ValueError(f"{joint!r} is not a terminal of the second subtree")
        second = second.reversed()
    children: List[SPNode] = []
    joints: List[str] = []
    if isinstance(first, SPSeries):
        children.extend(first.children)
        joints.extend(first.joints)
    else:
        children.append(first)
    joints.append(joint)
    if isinstance(second, SPSeries):
        children.extend(second.children)
        joints.extend(second.joints)
    else:
        children.append(second)
    return SPSeries(
        children=tuple(children),
        joints=tuple(joints),
        top=first.top,
        bottom=second.bottom,
    )


def _parallel(nodes: Sequence[SPNode], top: str, bottom: str) -> SPNode:
    """Parallel-compose oriented subtrees sharing the same terminals."""
    children: List[SPNode] = []
    for node in nodes:
        node = _oriented(node, top, bottom)
        if isinstance(node, SPParallel):
            children.extend(node.children)
        else:
            children.append(node)
    return SPParallel(children=tuple(children), top=top, bottom=bottom)


# --------------------------------------------------------------------------- extraction


def extract_sp_tree(
    devices: Sequence[Transistor],
    top: str,
    bottom: str,
) -> SPNode:
    """Reduce a two-terminal device network to a series-parallel tree.

    ``devices`` are the transistors of one branch; ``top``/``bottom`` are
    the branch terminals (module output and common node).  Raises
    :class:`NotSeriesParallelError` when the network is not
    series-parallel (for example after the Section 4.2 transformation,
    whose result is intentionally a bridge-style network).
    """
    if not devices:
        raise NotSeriesParallelError("branch contains no devices")
    if top == bottom:
        raise ValueError("branch terminals must be distinct")

    # Edge list of the working multigraph: (node_a, node_b, payload).
    edges: List[Tuple[str, str, SPNode]] = []
    for device in devices:
        edges.append((device.drain, device.source, SPLeaf(device, top=device.drain, bottom=device.source)))

    def incident(node: str) -> List[int]:
        return [index for index, (a, b, _) in enumerate(edges) if node in (a, b)]

    changed = True
    while changed and len(edges) > 1:
        changed = False

        # Parallel reduction: merge any group of edges sharing both endpoints.
        groups: Dict[frozenset, List[int]] = {}
        for index, (a, b, _) in enumerate(edges):
            groups.setdefault(frozenset((a, b)), []).append(index)
        for endpoints, indices in groups.items():
            if len(indices) > 1:
                pair = sorted(endpoints)
                node_top, node_bottom = pair[0], pair[1]
                merged = _parallel([edges[i][2] for i in indices], top=node_top, bottom=node_bottom)
                for i in sorted(indices, reverse=True):
                    edges.pop(i)
                edges.append((node_top, node_bottom, merged))
                changed = True
                break
        if changed:
            continue

        # Series reduction: contract an internal node of degree two.
        nodes: Set[str] = set()
        for a, b, _ in edges:
            nodes.add(a)
            nodes.add(b)
        for node in nodes:
            if node in (top, bottom):
                continue
            indices = incident(node)
            if len(indices) != 2:
                continue
            first_index, second_index = indices
            a1, b1, payload1 = edges[first_index]
            a2, b2, payload2 = edges[second_index]
            other1 = b1 if a1 == node else a1
            other2 = b2 if a2 == node else a2
            if other1 == other2 and other1 == node:  # pragma: no cover - degenerate self loop
                continue
            payload1 = _oriented(payload1, other1, node)
            payload2 = _oriented(payload2, node, other2)
            merged = _series(payload1, payload2, node)
            for i in sorted((first_index, second_index), reverse=True):
                edges.pop(i)
            edges.append((other1, other2, merged))
            changed = True
            break

    if len(edges) != 1:
        raise NotSeriesParallelError(
            f"branch between {top!r} and {bottom!r} is not series-parallel "
            f"({len(edges)} irreducible edges remain)"
        )
    node_a, node_b, payload = edges[0]
    if {node_a, node_b} != {top, bottom}:
        raise NotSeriesParallelError(
            f"branch reduced to an edge between {node_a!r} and {node_b!r}, "
            f"expected {top!r} and {bottom!r}"
        )
    return _oriented(payload, top, bottom)


def branch_devices(
    dpdn: DifferentialPullDownNetwork,
) -> Tuple[List[Transistor], List[Transistor]]:
    """Split the devices of a genuine DPDN into its X branch and Y branch.

    A genuine DPDN has two disjoint branches that only meet at the common
    node ``Z``; the split is computed by removing ``Z`` from the
    structural graph and grouping devices by which module output their
    remaining terminals reach.  Raises :class:`ValueError` when the
    branches share devices or internal nodes (as fully connected networks
    do -- those are not valid inputs to the Section 4.2 transformation).
    """
    adjacency: Dict[str, List[Tuple[str, Transistor]]] = {}
    for device in dpdn.transistors:
        for terminal, other in ((device.drain, device.source), (device.source, device.drain)):
            if terminal == dpdn.z:
                continue
            adjacency.setdefault(terminal, [])
            if other != dpdn.z:
                adjacency[terminal].append((other, device))

    def reach(start: str) -> Set[str]:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for neighbour, _ in adjacency.get(node, ()):  # type: ignore[call-overload]
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return seen

    x_nodes = reach(dpdn.x)
    y_nodes = reach(dpdn.y)
    overlap = (x_nodes & y_nodes) - {dpdn.z}
    if overlap:
        raise ValueError(
            "the X and Y branches share nodes "
            f"{sorted(overlap)}; the network is not a genuine two-branch DPDN"
        )

    x_branch: List[Transistor] = []
    y_branch: List[Transistor] = []
    for device in dpdn.transistors:
        non_z = [t for t in device.terminals() if t != dpdn.z]
        if not non_z:
            raise ValueError(f"device {device.name} is connected between Z and Z")
        if all(t in x_nodes for t in non_z):
            x_branch.append(device)
        elif all(t in y_nodes for t in non_z):
            y_branch.append(device)
        else:
            raise ValueError(
                f"device {device.name} cannot be assigned to a single branch"
            )
    return x_branch, y_branch


def branch_trees(dpdn: DifferentialPullDownNetwork) -> Tuple[SPNode, SPNode]:
    """Series-parallel trees of the X branch and the Y branch of a genuine DPDN."""
    x_branch, y_branch = branch_devices(dpdn)
    x_tree = extract_sp_tree(x_branch, top=dpdn.x, bottom=dpdn.z)
    y_tree = extract_sp_tree(y_branch, top=dpdn.y, bottom=dpdn.z)
    return x_tree, y_tree
