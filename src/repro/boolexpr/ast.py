"""Boolean expression abstract syntax tree.

This module provides the immutable expression objects that everything else
in :mod:`repro` is built on.  Expressions describe the *logical function*
``f`` that a differential pull-down network (DPDN) must implement; the
synthesis procedure of the paper (Section 4.1) walks this tree.

The node types are deliberately small:

* :class:`Const`  -- the constants 0 and 1,
* :class:`Var`    -- a named input signal,
* :class:`Not`    -- logical complement,
* :class:`And`    -- n-ary conjunction,
* :class:`Or`     -- n-ary disjunction,
* :class:`Xor`    -- n-ary exclusive-or (convenience; lowered before
  synthesis by :func:`repro.boolexpr.transforms.to_nnf`).

Expressions compare and hash structurally, support the operators ``&``,
``|``, ``^`` and ``~``, and can be evaluated against an assignment of
variable values.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Not",
    "And",
    "Or",
    "Xor",
    "TRUE",
    "FALSE",
    "ensure_expr",
]


class Expr:
    """Base class for Boolean expressions.

    Instances are immutable and hashable.  Sub-expressions are exposed via
    :attr:`args`; leaf nodes have an empty ``args`` tuple.
    """

    __slots__ = ()

    #: Tuple of child expressions (empty for leaves).
    args: Tuple["Expr", ...] = ()

    # -- construction helpers -------------------------------------------------

    def __and__(self, other: "Expr | int | bool") -> "Expr":
        return And(self, ensure_expr(other))

    def __rand__(self, other: "Expr | int | bool") -> "Expr":
        return And(ensure_expr(other), self)

    def __or__(self, other: "Expr | int | bool") -> "Expr":
        return Or(self, ensure_expr(other))

    def __ror__(self, other: "Expr | int | bool") -> "Expr":
        return Or(ensure_expr(other), self)

    def __xor__(self, other: "Expr | int | bool") -> "Expr":
        return Xor(self, ensure_expr(other))

    def __rxor__(self, other: "Expr | int | bool") -> "Expr":
        return Xor(ensure_expr(other), self)

    def __invert__(self) -> "Expr":
        return Not(self)

    # -- core protocol ---------------------------------------------------------

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate the expression under ``assignment``.

        ``assignment`` maps variable names to booleans (or 0/1 integers).
        Raises :class:`KeyError` if a variable is missing.
        """
        raise NotImplementedError

    def variables(self) -> FrozenSet[str]:
        """Return the set of variable names appearing in the expression."""
        raise NotImplementedError

    def walk(self) -> Iterator["Expr"]:
        """Yield the expression and all sub-expressions, depth first."""
        yield self
        for arg in self.args:
            yield from arg.walk()

    # -- metrics ---------------------------------------------------------------

    def literal_count(self) -> int:
        """Number of literal (variable) occurrences in the expression.

        Each occurrence counts once, so ``A & A`` has a literal count of 2.
        This is the number of transistors one branch of a series/parallel
        pull-down network built from this expression will contain.
        """
        return sum(1 for node in self.walk() if isinstance(node, Var))

    def depth(self) -> int:
        """Height of the expression tree (a single literal has depth 0)."""
        if not self.args:
            return 0
        return 1 + max(arg.depth() for arg in self.args)

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError(
            "Boolean expressions cannot be used in a python boolean context; "
            "use .evaluate(assignment) instead"
        )

    # Subclasses supply __eq__, __hash__, __repr__.


class Const(Expr):
    """A Boolean constant (0 or 1)."""

    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        object.__setattr__(self, "value", bool(value))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Const is immutable")

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return self.value

    def variables(self) -> FrozenSet[str]:
        return frozenset()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Const) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Const", self.value))

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"


#: The constant true expression.
TRUE = Const(True)
#: The constant false expression.
FALSE = Const(False)


class Var(Expr):
    """A named input variable."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not isinstance(name, str) or not name:
            raise ValueError(f"variable name must be a non-empty string, got {name!r}")
        object.__setattr__(self, "name", name)

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Var is immutable")

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return bool(assignment[self.name])

    def variables(self) -> FrozenSet[str]:
        return frozenset({self.name})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Var) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Var", self.name))

    def __repr__(self) -> str:
        return self.name


class Not(Expr):
    """Logical complement of a sub-expression."""

    __slots__ = ("args",)

    def __init__(self, operand: Expr) -> None:
        operand = ensure_expr(operand)
        object.__setattr__(self, "args", (operand,))

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError("Not is immutable")

    @property
    def operand(self) -> Expr:
        """The complemented sub-expression."""
        return self.args[0]

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return not self.operand.evaluate(assignment)

    def variables(self) -> FrozenSet[str]:
        return self.operand.variables()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and self.operand == other.operand

    def __hash__(self) -> int:
        return hash(("Not", self.operand))

    def __repr__(self) -> str:
        if isinstance(self.operand, (Var, Const)):
            return f"~{self.operand!r}"
        return f"~({self.operand!r})"


class _NaryOp(Expr):
    """Shared implementation of n-ary associative operators."""

    __slots__ = ("args",)

    _symbol = "?"
    _name = "?"

    def __init__(self, *operands: Expr) -> None:
        if len(operands) < 2:
            raise ValueError(
                f"{type(self).__name__} requires at least two operands, got {len(operands)}"
            )
        flattened = []
        for operand in operands:
            operand = ensure_expr(operand)
            # Flatten nested operators of the same type so that A & (B & C)
            # and (A & B) & C are the same object structurally.
            if type(operand) is type(self):
                flattened.extend(operand.args)
            else:
                flattened.append(operand)
        object.__setattr__(self, "args", tuple(flattened))

    @classmethod
    def _of(cls, args: Tuple[Expr, ...]) -> "_NaryOp":
        """``cls(*args)`` for two or more operands already known to be
        expressions of another type (literals under an ``And``, products
        under an ``Or``): there is nothing to coerce or flatten."""
        node = object.__new__(cls)
        object.__setattr__(node, "args", args)
        return node

    def __setattr__(self, name: str, value: object) -> None:  # pragma: no cover
        raise AttributeError(f"{type(self).__name__} is immutable")

    def variables(self) -> FrozenSet[str]:
        result: FrozenSet[str] = frozenset()
        for arg in self.args:
            result = result | arg.variables()
        return result

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.args == other.args

    def __hash__(self) -> int:
        return hash((self._name, self.args))

    def _wrap(self, arg: Expr) -> str:
        if isinstance(arg, (Var, Const, Not)):
            return repr(arg)
        return f"({arg!r})"

    def __repr__(self) -> str:
        return f" {self._symbol} ".join(self._wrap(arg) for arg in self.args)


class And(_NaryOp):
    """n-ary conjunction."""

    __slots__ = ()
    _symbol = "&"
    _name = "And"

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return all(arg.evaluate(assignment) for arg in self.args)


class Or(_NaryOp):
    """n-ary disjunction."""

    __slots__ = ()
    _symbol = "|"
    _name = "Or"

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return any(arg.evaluate(assignment) for arg in self.args)


class Xor(_NaryOp):
    """n-ary exclusive-or (odd parity of the operands)."""

    __slots__ = ()
    _symbol = "^"
    _name = "Xor"

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        result = False
        for arg in self.args:
            result ^= arg.evaluate(assignment)
        return result


def ensure_expr(value: "Expr | int | bool") -> Expr:
    """Coerce ``value`` into an :class:`Expr`.

    Accepts existing expressions, booleans and the integers 0/1.
    """
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return TRUE if value else FALSE
    if isinstance(value, int) and value in (0, 1):
        return TRUE if value else FALSE
    raise TypeError(f"cannot interpret {value!r} as a Boolean expression")


def variables(*exprs: Expr) -> FrozenSet[str]:
    """Union of the variable sets of several expressions."""
    result: FrozenSet[str] = frozenset()
    for expr in exprs:
        result = result | expr.variables()
    return result


def vars_(*names: str) -> Tuple[Var, ...]:
    """Create several :class:`Var` objects at once.

    Example::

        A, B, C = vars_("A", "B", "C")
    """
    return tuple(Var(name) for name in names)
