"""Gate-level circuits of dynamic differential gates.

The power-analysis experiments need more than one gate: a small
combinational block (a key-mixed S-box) built out of SABL or CVSL gates,
simulated cycle by cycle.  The paper's FC-DPDN is one small network,
synthesised once and stamped into every gate, so a circuit is stored
the same way -- as a structure of arrays over a few gate templates:

* :class:`GateTemplate` -- one gate network plus the order of the ports
  its gates connect (a mapped circuit has one per ``(operator,
  fan-in)``; a hand-built gate registers its own network as one);
* per gate, ``gate_template`` (template id), ``gate_inputs`` and
  ``gate_inverted`` (source net id and rail of each port, padded with
  ``-1``/``False`` to the widest template) and ``gate_output`` (output
  net id), all NumPy arrays;
* ``net_names`` -- net id to name: the primary inputs, then each gate's
  output net in gate order.

:func:`map_expressions` is a tiny technology mapper that decomposes
arbitrary Boolean expressions into a DAG of gates with bounded fan-in
and writes these arrays directly; :mod:`repro.kernel` compiles and plans
circuits from them, and :mod:`repro.layout` places and routes them.  The
per-gate view -- :class:`GateInstance` objects holding their own network
copy and :class:`Connection` dict -- is built from the arrays on the
first access to :attr:`DifferentialCircuit.gates` (the per-vector
evaluators, :meth:`~DifferentialCircuit.describe` and the reference
simulators need it); a gate added with
:meth:`~DifferentialCircuit.add_gate` is kept as given.

Because the logic is differential, inversion is free: a connection simply
selects the complementary rail of its source net, so the mapper never
needs inverter gates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..boolexpr.ast import And, Const, Expr, Not, Or, Var
from ..boolexpr.transforms import is_nnf, to_nnf
from ..network.build import build_genuine_dpdn
from ..network.netlist import DifferentialPullDownNetwork
from ..core.synthesis import synthesize_fc_dpdn

__all__ = [
    "Connection",
    "GateInstance",
    "GateTemplate",
    "DifferentialCircuit",
    "map_expressions",
]


@dataclass(frozen=True)
class Connection:
    """A connection of a gate input variable to a circuit net.

    ``inverted`` selects the complementary rail of the net (free in
    differential logic).
    """

    net: str
    inverted: bool = False

    def value(self, net_values: Mapping[str, bool]) -> bool:
        value = bool(net_values[self.net])
        return not value if self.inverted else value


@dataclass
class GateInstance:
    """One differential gate instance inside a circuit."""

    name: str
    dpdn: DifferentialPullDownNetwork
    connections: Dict[str, Connection]
    output_net: str

    def input_event(self, net_values: Mapping[str, bool]) -> Dict[str, bool]:
        """The complementary input event seen by this gate's DPDN."""
        return {
            variable: connection.value(net_values)
            for variable, connection in self.connections.items()
        }

    def evaluate(self, net_values: Mapping[str, bool]) -> bool:
        """Logical output value of the gate."""
        if self.dpdn.function is None:
            raise ValueError(f"gate {self.name} has no function annotation")
        return bool(self.dpdn.function.evaluate(self.input_event(net_values)))


@dataclass(frozen=True)
class GateTemplate:
    """A gate network shared by every gate of one template.

    ``ports`` names the network variable each column of a gate's
    ``gate_inputs``/``gate_inverted`` row drives, in connection order.
    """

    network: DifferentialPullDownNetwork
    ports: Tuple[str, ...]


class DifferentialCircuit:
    """A topologically ordered netlist of differential gates."""

    def __init__(self, primary_inputs: Sequence[str], name: str = "circuit") -> None:
        self.name = name
        self.primary_inputs: List[str] = list(primary_inputs)
        self.outputs: Dict[str, str] = {}
        self.templates: List[GateTemplate] = []
        self.net_names: List[str] = list(dict.fromkeys(self.primary_inputs))
        self.gate_names: List[str] = []
        self.gate_template = np.zeros(0, dtype=np.intp)
        self.gate_inputs = np.zeros((0, 0), dtype=np.intp)
        self.gate_inverted = np.zeros((0, 0), dtype=bool)
        self.gate_output = np.zeros(0, dtype=np.intp)
        self._net_ids: Optional[Dict[str, int]] = None
        self._added: Dict[int, GateInstance] = {}
        self._gates: Optional[List[GateInstance]] = None

    # ------------------------------------------------------------------ build

    def _ids(self) -> Dict[str, int]:
        """Net name to net id."""
        if self._net_ids is None:
            self._net_ids = {net: index for index, net in enumerate(self.net_names)}
        return self._net_ids

    def _append_rows(
        self,
        templates: np.ndarray,
        inputs: np.ndarray,
        inverted: np.ndarray,
        gate_names: Sequence[str],
        output_nets: Sequence[str],
    ) -> None:
        """Append gates, each driving a new net, to the per-gate arrays."""
        width = max(self.gate_inputs.shape[1], inputs.shape[1])
        rows = len(gate_names)
        first = len(self.net_names)
        padded_inputs = np.full((len(self.gate_names) + rows, width), -1, dtype=np.intp)
        padded_inverted = np.zeros(padded_inputs.shape, dtype=bool)
        for array, old, new in (
            (padded_inputs, self.gate_inputs, inputs),
            (padded_inverted, self.gate_inverted, inverted),
        ):
            array[: old.shape[0], : old.shape[1]] = old
            array[old.shape[0] :, : new.shape[1]] = new
        self.gate_inputs = padded_inputs
        self.gate_inverted = padded_inverted
        self.gate_template = np.concatenate([self.gate_template, templates])
        self.gate_output = np.concatenate(
            [self.gate_output, np.arange(first, first + rows, dtype=np.intp)]
        )
        self.gate_names.extend(gate_names)
        self.net_names.extend(output_nets)
        if self._net_ids is not None:
            self._net_ids.update(zip(output_nets, range(first, first + rows)))

    def add_gate(self, gate: GateInstance) -> GateInstance:
        """Append a gate; its inputs must already be driven.

        The gate's own network becomes a new template (so later changes
        to ``gate.dpdn`` are what a compile sees), and :attr:`gates`
        returns ``gate`` itself.
        """
        ids = self._ids()
        for variable, connection in gate.connections.items():
            if connection.net not in ids:
                raise ValueError(
                    f"gate {gate.name}: input {variable} references undriven net "
                    f"{connection.net!r}"
                )
        if gate.output_net in ids:
            raise ValueError(f"net {gate.output_net!r} already has a driver")
        connections = list(gate.connections.values())
        self.templates.append(GateTemplate(gate.dpdn, tuple(gate.connections)))
        row = len(self.gate_names)
        self._append_rows(
            np.array([len(self.templates) - 1], dtype=np.intp),
            np.array([[ids[c.net] for c in connections]], dtype=np.intp),
            np.array([[c.inverted for c in connections]], dtype=bool),
            [gate.name],
            [gate.output_net],
        )
        self._added[row] = gate
        if self._gates is not None:
            self._gates.append(gate)
        return gate

    def set_output(self, name: str, net: str) -> None:
        """Mark a net as a circuit output."""
        if net not in self._ids():
            raise ValueError(f"cannot expose undriven net {net!r} as output {name!r}")
        self.outputs[name] = net

    # ------------------------------------------------------------ per-gate view

    @property
    def gates(self) -> List[GateInstance]:
        """One :class:`GateInstance` per gate, in gate order.

        Built from the arrays on first access: each gate gets its own copy
        of its template's network, named after the gate.  Changing a
        built gate's network does not change the arrays a compile reads;
        hand-built gates (:meth:`add_gate`) are their own templates.
        """
        if self._gates is None:
            names = self.net_names
            inputs = self.gate_inputs.tolist()
            inverted = self.gate_inverted.tolist()
            outputs = self.gate_output.tolist()
            gates = []
            for row, template_id in enumerate(self.gate_template.tolist()):
                gate = self._added.get(row)
                if gate is None:
                    template = self.templates[template_id]
                    gate_name = self.gate_names[row]
                    gate = GateInstance(
                        name=gate_name,
                        dpdn=template.network.copy(name=gate_name),
                        connections={
                            port: Connection(names[net], rail)
                            for port, net, rail in zip(
                                template.ports, inputs[row], inverted[row]
                            )
                        },
                        output_net=names[outputs[row]],
                    )
                gates.append(gate)
            self._gates = gates
        return self._gates

    def nets(self) -> List[str]:
        return list(self.net_names)

    def gate_count(self) -> int:
        return int(self.gate_template.shape[0])

    def device_count(self) -> int:
        """Total transistor count of all pull-down networks."""
        uses = np.bincount(self.gate_template, minlength=len(self.templates)).tolist()
        return sum(
            count * template.network.device_count()
            for count, template in zip(uses, self.templates)
        )

    # --------------------------------------------------------------- evaluate

    def evaluate_nets(self, inputs: Mapping[str, bool]) -> Dict[str, bool]:
        """Logical value of every net for one primary-input vector."""
        missing = [net for net in self.primary_inputs if net not in inputs]
        if missing:
            raise ValueError(f"missing primary input values for {missing}")
        net_values: Dict[str, bool] = {net: bool(inputs[net]) for net in self.primary_inputs}
        for gate in self.gates:
            net_values[gate.output_net] = gate.evaluate(net_values)
        return net_values

    def evaluate(self, inputs: Mapping[str, bool]) -> Dict[str, bool]:
        """Logical value of every named output for one primary-input vector."""
        net_values = self.evaluate_nets(inputs)
        return {name: net_values[net] for name, net in self.outputs.items()}

    def describe(self) -> str:
        lines = [
            f"DifferentialCircuit {self.name}: {len(self.primary_inputs)} inputs, "
            f"{self.gate_count()} gates, {self.device_count()} DPDN devices"
        ]
        for gate in self.gates:
            connections = ", ".join(
                f"{variable}<-{'~' if connection.inverted else ''}{connection.net}"
                for variable, connection in sorted(gate.connections.items())
            )
            lines.append(
                f"  {gate.name:<12} {gate.dpdn.function!r}  ({connections}) -> {gate.output_net}"
            )
        for name, net in self.outputs.items():
            lines.append(f"  output {name} = {net}")
        return "\n".join(lines)


# --------------------------------------------------------------------------- mapping

#: A mapped connection: ``(net id, inverted)``.  An expression variable
#: that is not a circuit net gets the id ``-1 - i`` (``i`` indexing the
#: mapper's undriven names) until the gate reading it is checked.
_Wire = Tuple[int, bool]


class _Mapper:
    """Recursive bounded-fan-in technology mapper writing gate rows."""

    def __init__(self, net_ids: Mapping[str, int], max_fanin: int, network_style: str) -> None:
        if max_fanin < 2:
            raise ValueError("max_fanin must be at least 2")
        if network_style not in ("fc", "genuine"):
            raise ValueError("network_style must be 'fc' or 'genuine'")
        self.net_ids = net_ids
        self.max_fanin = max_fanin
        self.build = synthesize_fc_dpdn if network_style == "fc" else build_genuine_dpdn
        self.first_output = len(net_ids)
        # One synthesised network per (operator, fan-in).
        self.templates: List[GateTemplate] = []
        self.template_ids: Dict[Tuple[type, int], int] = {}
        self.gate_template: List[int] = []
        self.arity: List[int] = []
        self.wires: List[_Wire] = []
        self.undriven: List[str] = []

    def map_expression(self, expr: Expr) -> _Wire:
        return self._map(expr if is_nnf(expr) else to_nnf(expr))

    def _net(self, name: str) -> int:
        net = self.net_ids.get(name)
        if net is None:
            self.undriven.append(name)
            return -len(self.undriven)
        return net

    def _map(self, expr: Expr) -> _Wire:
        kind = type(expr)
        if kind is Var:
            return self._net(expr.name), False
        if kind is Not and type(expr.args[0]) is Var:
            return self._net(expr.args[0].name), True
        if kind is Const:
            raise ValueError("constant nets are not supported in differential circuits")
        if kind is not And and kind is not Or:
            raise ValueError(f"unsupported expression node {kind.__name__}")

        # Literal arguments inline: most nodes of a sum of products are.
        wires: List[_Wire] = []
        for arg in expr.args:
            arg_kind = type(arg)
            if arg_kind is Var:
                wires.append((self._net(arg.name), False))
            elif arg_kind is Not and type(arg.args[0]) is Var:
                wires.append((self._net(arg.args[0].name), True))
            else:
                wires.append(self._map(arg))
        max_fanin = self.max_fanin
        while len(wires) > max_fanin:
            grouped: List[_Wire] = []
            for start in range(0, len(wires), max_fanin):
                chunk = wires[start : start + max_fanin]
                if len(chunk) == 1:
                    grouped.append(chunk[0])
                else:
                    grouped.append(self.emit(kind, chunk))
            wires = grouped
        return self.emit(kind, wires)

    def emit(self, operator: type, wires: List[_Wire]) -> _Wire:
        fanin = len(wires)
        template = self.template_ids.get((operator, fanin))
        if template is None:
            ports = tuple(f"in{i}" for i in range(fanin))
            network = self.build(operator(*(Var(port) for port in ports)))
            template = self.template_ids[(operator, fanin)] = len(self.templates)
            self.templates.append(GateTemplate(network, ports))
        row = len(self.gate_template)
        self.gate_template.append(template)
        self.arity.append(fanin)
        self.wires.extend(wires)
        return self.first_output + row, False

    def check_driven(self, start: int, prefix: str) -> None:
        """Raise for the first wire from ``start`` on that reads no net."""
        if not self.undriven:
            return
        for position in range(start, len(self.wires)):
            net = self.wires[position][0]
            if net < 0:
                ends = np.cumsum(self.arity)
                row = int(np.searchsorted(ends, position, side="right"))
                port = position - (int(ends[row - 1]) if row else 0)
                raise ValueError(
                    f"gate {prefix}g{2 * row + 1}: input in{port} references "
                    f"undriven net {self.undriven[-1 - net]!r}"
                )

    def rows(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(gate_template, gate_inputs, gate_inverted)`` of the mapped gates."""
        arity = np.array(self.arity, dtype=np.intp)
        used = np.arange(int(arity.max(initial=0))) < arity[:, None]
        inputs = np.full(used.shape, -1, dtype=np.intp)
        inverted = np.zeros(used.shape, dtype=bool)
        inputs[used] = [wire[0] for wire in self.wires]
        inverted[used] = [wire[1] for wire in self.wires]
        return np.array(self.gate_template, dtype=np.intp), inputs, inverted


@functools.lru_cache(maxsize=64)
def _row_names(prefix: str, count: int) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Names of ``count`` mapped gates and of the nets they drive.

    Cached: a campaign worker maps the same slice over and over, and
    these strings are the same every time.
    """
    return (
        tuple(f"{prefix}g{index}" for index in range(1, 2 * count, 2)),
        tuple(f"{prefix}n{index}" for index in range(2, 2 * count + 1, 2)),
    )


def map_expressions(
    expressions: Mapping[str, Expr],
    primary_inputs: Optional[Sequence[str]] = None,
    max_fanin: int = 2,
    network_style: str = "fc",
    name: str = "circuit",
) -> DifferentialCircuit:
    """Map named output expressions onto a circuit of differential gates.

    Args:
        expressions: output name to Boolean expression over the primary
            inputs.
        primary_inputs: explicit input ordering (derived from the
            expressions when omitted).
        max_fanin: maximum number of inputs per generated gate.
        network_style: ``"fc"`` builds fully connected (protected) gates,
            ``"genuine"`` builds conventional (leaky) gates -- the two
            circuits compared by the DPA benchmark.
        name: circuit name.

    Each distinct ``(operator, fan-in)`` network is synthesised once per
    call as a :class:`GateTemplate` with ports ``in0``, ``in1``, ...;
    the gates are rows of the circuit's arrays, gate ``i`` named
    ``<name>_g<2i+1>`` and driving net ``<name>_n<2i+2>``.
    """
    if primary_inputs is None:
        names = set()
        for expr in expressions.values():
            names |= expr.variables()
        primary_inputs = sorted(names)
    circuit = DifferentialCircuit(primary_inputs, name=name)
    mapper = _Mapper(
        {net: index for index, net in enumerate(circuit.net_names)}, max_fanin, network_style
    )
    prefix = f"{name}_"
    outputs: List[Tuple[str, int]] = []
    for output_name, expr in expressions.items():
        start = len(mapper.wires)
        net, inverted = mapper.map_expression(expr)
        if inverted:
            # A top-level complemented net is realised by a buffer gate so
            # the output has its own non-inverted net.
            net, inverted = mapper.emit(Or, [(net, True), (net, True)])
        mapper.check_driven(start, prefix)
        if net < 0:
            raise ValueError(
                f"cannot expose undriven net {mapper.undriven[-1 - net]!r} "
                f"as output {output_name!r}"
            )
        outputs.append((output_name, net))
    circuit.templates = mapper.templates
    circuit._append_rows(*mapper.rows(), *_row_names(prefix, len(mapper.gate_template)))
    circuit.outputs = {output_name: circuit.net_names[net] for output_name, net in outputs}
    return circuit
