"""Lightweight Boolean simplification.

The synthesis procedure does not require a minimiser -- it works on
whatever factored form the designer supplies -- but the cell-library
generator and the cofactor machinery need constant folding and a handful
of cheap local rules (idempotence, complementation, absorption) to keep
intermediate expressions small and readable.

This is intentionally *not* a full two-level minimiser: the paper's flow
assumes the designer already has a factored expression (Step 0), and the
transistor count of the resulting DPDN follows that factored form.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from .ast import FALSE, TRUE, And, Const, Expr, Not, Or, Var, Xor, ensure_expr
from .transforms import complement, is_literal

__all__ = ["simplify_constants", "simplify"]


def simplify_constants(expr: Expr) -> Expr:
    """Fold constants out of ``expr`` (0/1 identity and domination rules).

    The logical structure of non-constant sub-expressions is preserved.
    """
    expr = ensure_expr(expr)
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Not):
        operand = simplify_constants(expr.operand)
        if isinstance(operand, Const):
            return FALSE if operand.value else TRUE
        if isinstance(operand, Not):
            return operand.operand
        return Not(operand)
    if isinstance(expr, And):
        operands: List[Expr] = []
        for arg in expr.args:
            arg = simplify_constants(arg)
            if isinstance(arg, Const):
                if not arg.value:
                    return FALSE
                continue  # drop TRUE
            if isinstance(arg, And):
                operands.extend(arg.args)
            else:
                operands.append(arg)
        if not operands:
            return TRUE
        if len(operands) == 1:
            return operands[0]
        return And(*operands)
    if isinstance(expr, Or):
        operands = []
        for arg in expr.args:
            arg = simplify_constants(arg)
            if isinstance(arg, Const):
                if arg.value:
                    return TRUE
                continue  # drop FALSE
            if isinstance(arg, Or):
                operands.extend(arg.args)
            else:
                operands.append(arg)
        if not operands:
            return FALSE
        if len(operands) == 1:
            return operands[0]
        return Or(*operands)
    if isinstance(expr, Xor):
        operands = []
        invert = False
        for arg in expr.args:
            arg = simplify_constants(arg)
            if isinstance(arg, Const):
                invert ^= arg.value
                continue
            operands.append(arg)
        if not operands:
            return TRUE if invert else FALSE
        result: Expr = operands[0] if len(operands) == 1 else Xor(*operands)
        if invert:
            result = Not(result)
        return result
    raise TypeError(f"unsupported expression type: {type(expr).__name__}")


def _dedupe(args: Tuple[Expr, ...]) -> List[Expr]:
    seen: Set[Expr] = set()
    result: List[Expr] = []
    for arg in args:
        if arg not in seen:
            seen.add(arg)
            result.append(arg)
    return result


def simplify(expr: Expr) -> Expr:
    """Apply cheap local simplification rules bottom-up.

    Rules applied (after constant folding):

    * idempotence: ``A & A -> A``, ``A | A -> A``
    * complementation: ``A & ~A -> 0``, ``A | ~A -> 1``
    * absorption over literals: ``A | (A & B) -> A``, ``A & (A | B) -> A``

    The result is logically equivalent to the input (property-tested in
    ``tests/test_boolexpr_simplify.py``).
    """
    expr = simplify_constants(expr)
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Not):
        operand = simplify(expr.operand)
        if isinstance(operand, Not):
            return operand.operand
        if isinstance(operand, Const):
            return FALSE if operand.value else TRUE
        return Not(operand)
    if isinstance(expr, Xor):
        return simplify_constants(Xor(*(simplify(arg) for arg in expr.args)))

    if isinstance(expr, And):
        same_type, other_type, annihilator = And, Or, FALSE
    elif isinstance(expr, Or):
        same_type, other_type, annihilator = Or, And, TRUE
    else:  # pragma: no cover - defensive
        raise TypeError(f"unsupported expression type: {type(expr).__name__}")

    simplified_args = [simplify(arg) for arg in expr.args]
    if len(simplified_args) == 1:
        return simplified_args[0]
    folded = simplify_constants(same_type(*simplified_args))
    if not isinstance(folded, same_type):
        return folded
    args = _dedupe(folded.args)

    # Complementation: a term together with its complement annihilates
    # (AND) or saturates (OR).
    literal_set = {arg for arg in args if is_literal(arg)}
    for arg in literal_set:
        if complement(arg) in literal_set:
            return annihilator

    # Absorption: drop any compound term of the *other* type that contains
    # one of our terms as an operand (e.g. drop ``A & B`` from
    # ``A | (A & B)``).
    kept: List[Expr] = []
    arg_set = set(args)
    for arg in args:
        if isinstance(arg, other_type) and any(part in arg_set for part in arg.args):
            continue
        kept.append(arg)
    if not kept:
        kept = args

    if len(kept) == 1:
        return kept[0]
    return same_type(*kept)
