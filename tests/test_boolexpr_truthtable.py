"""Unit tests for truth tables and semantic comparison."""

import pytest

from repro.boolexpr import (
    FALSE,
    TRUE,
    TruthTable,
    Var,
    assignments,
    equivalent,
    is_contradiction,
    is_tautology,
    maxterms,
    minterms,
    parse,
    truth_table,
)


class TestAssignments:
    def test_counting_order(self):
        rows = list(assignments(["A", "B"]))
        assert rows == [
            {"A": False, "B": False},
            {"A": False, "B": True},
            {"A": True, "B": False},
            {"A": True, "B": True},
        ]

    def test_empty_variable_list(self):
        assert list(assignments([])) == [{}]


class TestTruthTable:
    def test_from_expr_and2(self):
        table = truth_table(parse("A & B"))
        assert table.outputs == (False, False, False, True)

    def test_value_and_index(self):
        table = truth_table(parse("A | B"))
        assert table.value({"A": True, "B": False}) is True
        assert table.index_of({"A": True, "B": False}) == 2

    def test_explicit_variable_order(self):
        table = truth_table(parse("A"), variables=["B", "A"])
        assert table.outputs == (False, True, False, True)

    def test_extra_variables_rejected_when_missing(self):
        with pytest.raises(ValueError):
            truth_table(parse("A & B"), variables=["A"])

    def test_complement(self):
        table = truth_table(parse("A & B"))
        assert table.complement().outputs == (True, True, True, False)

    def test_count_true(self):
        assert truth_table(parse("A ^ B")).count_true() == 2

    def test_wrong_row_count_rejected(self):
        with pytest.raises(ValueError):
            TruthTable(["A", "B"], [True, False])

    def test_rows_iteration(self):
        table = truth_table(parse("A & B"))
        rows = list(table.rows())
        assert len(rows) == 4
        assert rows[-1] == ({"A": True, "B": True}, True)

    def test_equality_and_hash(self):
        left = truth_table(parse("A & B"))
        right = truth_table(parse("B & A"), variables=["A", "B"])
        assert left == right
        assert hash(left) == hash(right)


class TestSemantics:
    def test_equivalent_across_variable_sets(self):
        assert equivalent(parse("A"), parse("A & (B | ~B)"))

    def test_not_equivalent(self):
        assert not equivalent(parse("A & B"), parse("A | B"))

    def test_de_morgan_equivalence(self):
        assert equivalent(parse("~(A & B)"), parse("~A | ~B"))

    def test_tautology_and_contradiction(self):
        assert is_tautology(parse("A | ~A"))
        assert is_contradiction(parse("A & ~A"))
        assert not is_tautology(parse("A"))

    def test_minterms_and_maxterms_partition(self):
        expr = parse("(A & B) | C")
        on_set = minterms(expr)
        off_set = maxterms(expr)
        assert sorted(on_set + off_set) == list(range(8))
        assert set(on_set) & set(off_set) == set()

    def test_minterms_of_and2(self):
        assert minterms(parse("A & B")) == [3]


class TestExpressionFromColumn:
    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_equals_the_checked_constructors(self, width):
        # The sum of products is built without re-checking its operands;
        # it must equal, node for node, the one And/Or build.  Every
        # column up to three variables, 40 random ones of five.
        import random
        from itertools import product

        from repro.boolexpr import And, Not, Or
        from repro.boolexpr.truthtable import expression_from_column

        names = [f"x{index}" for index in range(width)]
        if width <= 3:
            columns = list(product([False, True], repeat=1 << width))
        else:
            draw = random.Random(width)
            columns = [[draw.random() < 0.5 for _ in range(1 << width)] for _ in range(40)]
        for column in columns:
            products = []
            for index, value in enumerate(column):
                if value:
                    literals = [
                        Var(name) if (index >> (width - 1 - bit)) & 1 else Not(Var(name))
                        for bit, name in enumerate(names)
                    ]
                    products.append(And(*literals) if width > 1 else literals[0])
            if not products:
                expected = FALSE
            else:
                expected = Or(*products) if len(products) > 1 else products[0]
            actual = expression_from_column(names, list(column))
            assert actual == expected
            assert repr(actual) == repr(expected)
            assert hash(actual) == hash(expected)
