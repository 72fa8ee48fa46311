"""Boolean expression substrate.

Provides the expression AST, parser, truth tables and the structural
transforms (complement, NNF, decomposition) used by the fully-connected
DPDN synthesis procedure in :mod:`repro.core`.
"""

from .ast import FALSE, TRUE, And, Const, Expr, Not, Or, Var, Xor, ensure_expr, vars_
from .decompose import Decomposition, DecompositionStyle, decompose
from .parser import ParseError, parse
from .simplify import simplify, simplify_constants
from .transforms import (
    complement,
    cofactor,
    dual,
    is_literal,
    literal_polarity,
    literal_variable,
    product_of_sums,
    shannon_expansion,
    substitute,
    sum_of_products,
    to_nnf,
)
from .truthtable import (
    TruthTable,
    assignments,
    equivalent,
    expression_from_function,
    is_contradiction,
    is_tautology,
    maxterms,
    minterms,
    truth_table,
)

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
    "vars_",
    "parse",
    "ParseError",
    "TruthTable",
    "truth_table",
    "assignments",
    "equivalent",
    "is_tautology",
    "is_contradiction",
    "minterms",
    "maxterms",
    "expression_from_function",
    "complement",
    "dual",
    "to_nnf",
    "is_literal",
    "literal_variable",
    "literal_polarity",
    "substitute",
    "cofactor",
    "shannon_expansion",
    "sum_of_products",
    "product_of_sums",
    "simplify",
    "simplify_constants",
    "Decomposition",
    "DecompositionStyle",
    "decompose",
]
