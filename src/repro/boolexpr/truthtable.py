"""Truth tables and semantic comparison of Boolean expressions.

Truth tables are the semantic ground truth used by the verification layer
(:mod:`repro.core.verify`): a differential pull-down network implements a
function ``f`` correctly when, for every complementary input assignment,
the X branch conducts exactly when ``f`` is true and the Y branch conducts
exactly when ``f`` is false.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .ast import Expr

__all__ = [
    "assignments",
    "TruthTable",
    "truth_table",
    "equivalent",
    "is_tautology",
    "is_contradiction",
    "minterms",
    "maxterms",
    "expression_from_function",
    "expression_from_column",
]


def assignments(variables: Sequence[str]) -> Iterator[Dict[str, bool]]:
    """Yield every assignment of the given variables, in binary counting order.

    The first variable is the most significant bit, so for ``["A", "B"]``
    the order is ``00, 01, 10, 11``.
    """
    names = list(variables)
    for bits in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, bits))


class TruthTable:
    """An explicit truth table over an ordered list of variables."""

    def __init__(self, variables: Sequence[str], outputs: Sequence[bool]) -> None:
        self.variables: Tuple[str, ...] = tuple(variables)
        expected = 1 << len(self.variables)
        outputs = tuple(bool(value) for value in outputs)
        if len(outputs) != expected:
            raise ValueError(
                f"truth table over {len(self.variables)} variables needs "
                f"{expected} rows, got {len(outputs)}"
            )
        self.outputs: Tuple[bool, ...] = outputs

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_expr(cls, expr: Expr, variables: Optional[Sequence[str]] = None) -> "TruthTable":
        """Build the table of ``expr``.

        ``variables`` fixes the column order (and may include extra,
        unused variables); by default the expression's own variables are
        used in sorted order.
        """
        if variables is None:
            variables = sorted(expr.variables())
        else:
            missing = expr.variables() - set(variables)
            if missing:
                raise ValueError(f"expression uses variables not listed: {sorted(missing)}")
        outputs = [expr.evaluate(assignment) for assignment in assignments(variables)]
        return cls(variables, outputs)

    # -- access ----------------------------------------------------------------

    def index_of(self, assignment: Mapping[str, bool]) -> int:
        """Row index of ``assignment`` (first variable = MSB)."""
        index = 0
        for name in self.variables:
            index = (index << 1) | (1 if assignment[name] else 0)
        return index

    def value(self, assignment: Mapping[str, bool]) -> bool:
        """Output value for ``assignment``."""
        return self.outputs[self.index_of(assignment)]

    def rows(self) -> Iterator[Tuple[Dict[str, bool], bool]]:
        """Yield ``(assignment, output)`` pairs in table order."""
        for assignment, output in zip(assignments(self.variables), self.outputs):
            yield assignment, output

    # -- comparisons and derived tables ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruthTable):
            return NotImplemented
        return self.variables == other.variables and self.outputs == other.outputs

    def __hash__(self) -> int:
        return hash((self.variables, self.outputs))

    def complement(self) -> "TruthTable":
        """The table of the complemented function."""
        return TruthTable(self.variables, tuple(not value for value in self.outputs))

    def count_true(self) -> int:
        """Number of assignments for which the function is true."""
        return sum(1 for value in self.outputs if value)

    def __repr__(self) -> str:
        bits = "".join("1" if value else "0" for value in self.outputs)
        return f"TruthTable({', '.join(self.variables)}: {bits})"


def truth_table(expr: Expr, variables: Optional[Sequence[str]] = None) -> TruthTable:
    """Shorthand for :meth:`TruthTable.from_expr`."""
    return TruthTable.from_expr(expr, variables)


def equivalent(left: Expr, right: Expr) -> bool:
    """True when the two expressions compute the same function.

    The comparison is over the union of both variable sets, so ``A`` and
    ``A & (B | ~B)`` are equivalent.
    """
    names = sorted(left.variables() | right.variables())
    for assignment in assignments(names):
        if left.evaluate(assignment) != right.evaluate(assignment):
            return False
    return True


def is_tautology(expr: Expr) -> bool:
    """True when ``expr`` evaluates to 1 for every assignment."""
    names = sorted(expr.variables())
    return all(expr.evaluate(assignment) for assignment in assignments(names))


def is_contradiction(expr: Expr) -> bool:
    """True when ``expr`` evaluates to 0 for every assignment."""
    names = sorted(expr.variables())
    return not any(expr.evaluate(assignment) for assignment in assignments(names))


def minterms(expr: Expr, variables: Optional[Sequence[str]] = None) -> List[int]:
    """Indices of the assignments for which ``expr`` is true."""
    table = truth_table(expr, variables)
    return [index for index, value in enumerate(table.outputs) if value]


def maxterms(expr: Expr, variables: Optional[Sequence[str]] = None) -> List[int]:
    """Indices of the assignments for which ``expr`` is false."""
    table = truth_table(expr, variables)
    return [index for index, value in enumerate(table.outputs) if not value]


def expression_from_function(
    function: Callable[[Mapping[str, bool]], bool],
    variables: Sequence[str],
) -> Expr:
    """Canonical sum-of-products expression of a Boolean function.

    ``function`` maps an assignment of ``variables`` to the output value;
    the assignments are swept in :func:`assignments` order, so the
    resulting minterm order is deterministic.  This is the multi-output
    synthesis entry point used by the crypto-scenario generators: each
    output bit of a wide datapath becomes one expression over only the
    variables in its cone of influence, keeping the product count at
    ``2**len(variables)`` instead of ``2**width``.
    """
    names = list(variables)
    return expression_from_column(
        names, [function(assignment) for assignment in assignments(names)]
    )


def expression_from_column(variables: Sequence[str], column: Sequence[bool]) -> Expr:
    """The :func:`expression_from_function` result of a truth column.

    ``column[j]`` is the output under assignment ``j`` in
    :func:`assignments` order (first variable = most significant bit),
    so a caller can compute a whole column at once, e.g. with NumPy.
    """
    from .ast import And, FALSE, TRUE, Not, Or, Var

    names = list(variables)
    if not names:
        return TRUE if column[0] else FALSE
    positive = [Var(name) for name in names]
    negative = [Not(var) for var in positive]
    last = len(names) - 1
    products: List[Expr] = []
    for index, value in enumerate(column):
        if value:
            literals = [
                positive[bit] if (index >> (last - bit)) & 1 else negative[bit]
                for bit in range(len(names))
            ]
            products.append(And._of(tuple(literals)) if len(literals) > 1 else literals[0])
    if not products:
        return FALSE
    return Or._of(tuple(products)) if len(products) > 1 else products[0]
