"""Gate-level circuits of dynamic differential gates.

The power-analysis experiments need more than one gate: a small
combinational block (a key-mixed S-box) built out of SABL or CVSL gates,
simulated cycle by cycle.  This module provides

* :class:`GateInstance` -- one gate (a DPDN plus the connections of its
  local input variables to circuit nets),
* :class:`DifferentialCircuit` -- a topologically ordered netlist with
  primary inputs, internal nets and named outputs,
* :func:`map_expressions` -- a tiny technology mapper that decomposes
  arbitrary Boolean expressions into a DAG of gates with bounded fan-in.

Because the logic is differential, inversion is free: a connection simply
selects the complementary rail of its source net, so the mapper never
needs inverter gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..boolexpr.ast import And, Const, Expr, Not, Or, Var, Xor
from ..boolexpr.transforms import is_literal, to_nnf
from ..network.build import build_genuine_dpdn
from ..network.netlist import DifferentialPullDownNetwork
from ..core.synthesis import synthesize_fc_dpdn

__all__ = ["Connection", "GateInstance", "DifferentialCircuit", "map_expressions"]


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


class DifferentialCircuit:
    """A topologically ordered netlist of differential gates."""

    def __init__(self, primary_inputs: Sequence[str], name: str = "circuit") -> None:
        self.name = name
        self.primary_inputs: List[str] = list(primary_inputs)
        self.gates: List[GateInstance] = []
        self.outputs: Dict[str, str] = {}
        self._nets: Dict[str, str] = {net: "input" for net in self.primary_inputs}

    # ------------------------------------------------------------------ build

    def add_gate(self, gate: GateInstance) -> GateInstance:
        """Append a gate; its inputs must already be driven."""
        for variable, connection in gate.connections.items():
            if connection.net not in self._nets:
                raise ValueError(
                    f"gate {gate.name}: input {variable} references undriven net "
                    f"{connection.net!r}"
                )
        if gate.output_net in self._nets:
            raise ValueError(f"net {gate.output_net!r} already has a driver")
        self._nets[gate.output_net] = gate.name
        self.gates.append(gate)
        return gate

    def set_output(self, name: str, net: str) -> None:
        """Mark a net as a circuit output."""
        if net not in self._nets:
            raise ValueError(f"cannot expose undriven net {net!r} as output {name!r}")
        self.outputs[name] = net

    def nets(self) -> List[str]:
        return list(self._nets)

    def gate_count(self) -> int:
        return len(self.gates)

    def device_count(self) -> int:
        """Total transistor count of all pull-down networks."""
        return sum(gate.dpdn.device_count() for gate in self.gates)

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


class _Mapper:
    """Recursive bounded-fan-in technology mapper."""

    def __init__(
        self,
        circuit: DifferentialCircuit,
        max_fanin: int,
        network_style: str,
        prefix: str,
    ) -> None:
        if max_fanin < 2:
            raise ValueError("max_fanin must be at least 2")
        if network_style not in ("fc", "genuine"):
            raise ValueError("network_style must be 'fc' or 'genuine'")
        self.circuit = circuit
        self.max_fanin = max_fanin
        self.network_style = network_style
        self.prefix = prefix
        self._counter = 0
        # One synthesised network per (operator, fan-in): the network
        # style is fixed per mapper, and every gate gets its own copy.
        self._templates: Dict[Tuple[type, int], DifferentialPullDownNetwork] = {}

    def _fresh(self, stem: str) -> str:
        self._counter += 1
        return f"{self.prefix}{stem}{self._counter}"

    def map_expression(self, expr: Expr) -> Connection:
        expr = to_nnf(expr)
        return self._map(expr)

    def _map(self, expr: Expr) -> Connection:
        if isinstance(expr, Const):
            raise ValueError("constant nets are not supported in differential circuits")
        if isinstance(expr, Var):
            return Connection(expr.name, False)
        if isinstance(expr, Not) and isinstance(expr.operand, Var):
            return Connection(expr.operand.name, True)
        if not isinstance(expr, (And, Or)):
            raise ValueError(f"unsupported expression node {type(expr).__name__}")

        connections = [self._map(arg) for arg in expr.args]
        operator = And if isinstance(expr, And) else Or
        while len(connections) > self.max_fanin:
            grouped: List[Connection] = []
            for start in range(0, len(connections), self.max_fanin):
                chunk = connections[start : start + self.max_fanin]
                if len(chunk) == 1:
                    grouped.append(chunk[0])
                else:
                    grouped.append(self._emit_gate(operator, chunk))
            connections = grouped
        return self._emit_gate(operator, connections)

    def _template(self, operator, fanin: int) -> DifferentialPullDownNetwork:
        key = (operator, fanin)
        template = self._templates.get(key)
        if template is None:
            function = operator(*(Var(f"in{i}") for i in range(fanin)))
            build = synthesize_fc_dpdn if self.network_style == "fc" else build_genuine_dpdn
            template = self._templates[key] = build(function)
        return template

    def _emit_gate(self, operator, connections: List[Connection]) -> Connection:
        variables = [f"in{i}" for i in range(len(connections))]
        gate_name = self._fresh("g")
        output_net = self._fresh("n")
        gate = GateInstance(
            name=gate_name,
            dpdn=self._template(operator, len(connections)).copy(name=gate_name),
            connections={
                variable: connection
                for variable, connection in zip(variables, connections)
            },
            output_net=output_net,
        )
        self.circuit.add_gate(gate)
        return Connection(output_net, False)


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
    call; every gate holds its own copy of it, named after the gate.
    """
    if primary_inputs is None:
        names = set()
        for expr in expressions.values():
            names |= expr.variables()
        primary_inputs = sorted(names)
    circuit = DifferentialCircuit(primary_inputs, name=name)
    mapper = _Mapper(circuit, max_fanin, network_style, prefix=f"{name}_")
    for output_name, expr in expressions.items():
        connection = mapper.map_expression(expr)
        if connection.inverted:
            # A top-level complemented net is realised by a buffer gate so
            # the output has its own non-inverted net.
            buffer_gate = mapper._emit_gate(Or, [connection, connection])
            connection = buffer_gate
        circuit.set_output(output_name, connection.net)
    return circuit
