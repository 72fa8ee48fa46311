"""Structural transforms on Boolean expressions.

These are the expression-level operations that the paper's design
procedure (Section 4.1) relies on:

* :func:`complement` -- the complementary output ``f̄`` of Step 0/2,
  pushed down with De Morgan's laws so that the result is again an
  AND/OR/literal structure (what the paper calls "complement the
  expression of f in x and y to get the dual expression").
* :func:`dual` -- the classical Boolean dual (swap AND/OR), provided for
  completeness and for property tests (``complement(f) ==
  dual(f)`` with all literals complemented).
* :func:`to_nnf` -- lower XOR and push negations
  onto literals so the synthesiser only ever sees AND, OR and literals.
* :func:`substitute` -- replace variables by sub-expressions (used when
  composing gates into circuits).
* :func:`expression_of_sop` / factoring helpers used by the cell library.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from .ast import FALSE, TRUE, And, Const, Expr, Not, Or, Var, Xor, ensure_expr

__all__ = [
    "complement",
    "dual",
    "to_nnf",
    "is_literal",
    "is_nnf",
    "literal_variable",
    "literal_polarity",
    "substitute",
    "sum_of_products",
    "product_of_sums",
    "cofactor",
    "shannon_expansion",
]


def is_literal(expr: Expr) -> bool:
    """True when ``expr`` is a variable or a complemented variable."""
    if isinstance(expr, Var):
        return True
    return isinstance(expr, Not) and isinstance(expr.operand, Var)


def literal_variable(expr: Expr) -> str:
    """Variable name of a literal expression."""
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Not) and isinstance(expr.operand, Var):
        return expr.operand.name
    raise ValueError(f"{expr!r} is not a literal")


def literal_polarity(expr: Expr) -> bool:
    """Polarity of a literal: ``True`` for ``A``, ``False`` for ``~A``."""
    if isinstance(expr, Var):
        return True
    if isinstance(expr, Not) and isinstance(expr.operand, Var):
        return False
    raise ValueError(f"{expr!r} is not a literal")


def complement(expr: Expr) -> Expr:
    """Complement of ``expr`` with negations pushed down to the literals.

    De Morgan's laws are applied recursively, so the result of
    complementing an AND/OR expression is again an AND/OR expression over
    literals -- exactly the "dual expression" the paper manipulates in
    Step 2 of the synthesis procedure.  XOR complements to XNOR, realised
    as XOR with one complemented operand.
    """
    expr = ensure_expr(expr)
    if isinstance(expr, Const):
        return FALSE if expr.value else TRUE
    if isinstance(expr, Var):
        return Not(expr)
    if isinstance(expr, Not):
        return to_nnf(expr.operand)
    if isinstance(expr, And):
        return Or(*(complement(arg) for arg in expr.args))
    if isinstance(expr, Or):
        return And(*(complement(arg) for arg in expr.args))
    if isinstance(expr, Xor):
        # Complement one operand (XNOR) and lower the XOR so the result is
        # in AND/OR/literal form like every other branch of this function.
        first, rest = expr.args[0], expr.args[1:]
        return to_nnf(Xor(complement(first), *(to_nnf(arg) for arg in rest)))
    raise TypeError(f"unsupported expression type: {type(expr).__name__}")


def dual(expr: Expr) -> Expr:
    """Boolean dual: swap AND/OR and the constants, leave literals alone."""
    expr = ensure_expr(expr)
    if isinstance(expr, Const):
        return FALSE if expr.value else TRUE
    if isinstance(expr, Var):
        return expr
    if isinstance(expr, Not):
        return Not(dual(expr.operand))
    if isinstance(expr, And):
        return Or(*(dual(arg) for arg in expr.args))
    if isinstance(expr, Or):
        return And(*(dual(arg) for arg in expr.args))
    if isinstance(expr, Xor):
        # dual(f)(x) = ~f(~x); expand via NNF to keep the result in AND/OR form.
        return dual(to_nnf(expr))
    raise TypeError(f"unsupported expression type: {type(expr).__name__}")


def to_nnf(expr: Expr) -> Expr:
    """Negation normal form: negations only on variables, XOR expanded.

    The result contains only AND, OR, literals and constants, which is the
    input form required by :func:`repro.core.synthesis.synthesize_fc_dpdn`.
    """
    expr = ensure_expr(expr)
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Not):
        return complement(expr.operand)
    if isinstance(expr, And):
        return And(*(to_nnf(arg) for arg in expr.args))
    if isinstance(expr, Or):
        return Or(*(to_nnf(arg) for arg in expr.args))
    if isinstance(expr, Xor):
        result = to_nnf(expr.args[0])
        for arg in expr.args[1:]:
            arg_nnf = to_nnf(arg)
            # a ^ b  ==  (a & ~b) | (~a & b)
            result = Or(
                And(result, complement(arg_nnf)),
                And(complement(result), arg_nnf),
            )
        return result
    raise TypeError(f"unsupported expression type: {type(expr).__name__}")


def is_nnf(expr: Expr) -> bool:
    """True when ``expr`` contains no XOR and negations only on variables.

    Such an expression is its own :func:`to_nnf` (the AND/OR constructors
    already flatten nested operators of one kind).
    """
    if isinstance(expr, (And, Or)):
        for arg in expr.args:
            if not is_nnf(arg):
                return False
        return True
    if isinstance(expr, Not):
        return isinstance(expr.operand, Var)
    return not isinstance(expr, Xor)


def substitute(expr: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Replace variables of ``expr`` according to ``mapping``.

    Variables not present in the mapping are left unchanged.
    """
    expr = ensure_expr(expr)
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return mapping.get(expr.name, expr)
    if isinstance(expr, Not):
        return Not(substitute(expr.operand, mapping))
    if isinstance(expr, And):
        return And(*(substitute(arg, mapping) for arg in expr.args))
    if isinstance(expr, Or):
        return Or(*(substitute(arg, mapping) for arg in expr.args))
    if isinstance(expr, Xor):
        return Xor(*(substitute(arg, mapping) for arg in expr.args))
    raise TypeError(f"unsupported expression type: {type(expr).__name__}")


def cofactor(expr: Expr, variable: str, value: bool) -> Expr:
    """Shannon cofactor of ``expr`` with respect to ``variable = value``."""
    from .simplify import simplify_constants

    replacement = TRUE if value else FALSE
    return simplify_constants(substitute(expr, {variable: replacement}))


def shannon_expansion(expr: Expr, variable: str) -> Tuple[Expr, Expr]:
    """Return the pair of cofactors ``(f|var=1, f|var=0)``."""
    return cofactor(expr, variable, True), cofactor(expr, variable, False)


def sum_of_products(expr: Expr, variables: Sequence[str] | None = None) -> Expr:
    """Canonical sum-of-products (minterm) form of ``expr``.

    The result enumerates one product term per true row of the truth
    table; it is therefore exponential in the variable count and intended
    for the small functions that become individual gates.
    """
    from .truthtable import assignments

    if variables is None:
        variables = sorted(expr.variables())
    products: List[Expr] = []
    for assignment in assignments(list(variables)):
        if expr.evaluate(assignment):
            literals = [
                Var(name) if assignment[name] else Not(Var(name)) for name in variables
            ]
            if not literals:
                return TRUE
            products.append(literals[0] if len(literals) == 1 else And(*literals))
    if not products:
        return FALSE
    if len(products) == 1:
        return products[0]
    return Or(*products)


def product_of_sums(expr: Expr, variables: Sequence[str] | None = None) -> Expr:
    """Canonical product-of-sums (maxterm) form of ``expr``."""
    from .truthtable import assignments

    if variables is None:
        variables = sorted(expr.variables())
    sums: List[Expr] = []
    for assignment in assignments(list(variables)):
        if not expr.evaluate(assignment):
            literals = [
                Not(Var(name)) if assignment[name] else Var(name) for name in variables
            ]
            if not literals:
                return FALSE
            sums.append(literals[0] if len(literals) == 1 else Or(*literals))
    if not sums:
        return TRUE
    if len(sums) == 1:
        return sums[0]
    return And(*sums)
