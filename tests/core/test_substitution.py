"""Unit tests for substitution and bindings (Figures 2-3)."""

import pytest

from repro.core.bindings import (
    EllipsisBinding,
    ListBinding,
    merge,
    restrict,
    right_biased_union,
    split,
    to_term,
    union,
    without,
)
from repro.core.errors import PatternError, SubstitutionError
from repro.core.substitution import subst
from repro.core.terms import BodyTag, Const, Node, PList, PVar, Tagged


class TestSubst:
    def test_constant_is_fixed(self):
        assert subst({}, Const(5)) == Const(5)

    def test_variable_replaced(self):
        assert subst({"x": Const(1)}, PVar("x")) == Const(1)

    def test_unbound_variable_raises(self):
        with pytest.raises(SubstitutionError):
            subst({}, PVar("x"))

    def test_node_and_list(self):
        p = Node("Foo", (PVar("x"), PList((PVar("y"),))))
        out = subst({"x": Const(1), "y": Const(2)}, p)
        assert out == Node("Foo", (Const(1), PList((Const(2),))))

    def test_list_binding_becomes_list_term(self):
        sigma = {"x": ListBinding((Const(1), Const(2)))}
        assert subst(sigma, PVar("x")) == PList((Const(1), Const(2)))

    def test_ellipsis_expands_repetitions(self):
        p = PList((Const(0),), Node("W", (PVar("x"),)))
        sigma = {"x": ListBinding((Const(1), Const(2)))}
        assert subst(sigma, p) == PList(
            (Const(0), Node("W", (Const(1),)), Node("W", (Const(2),)))
        )

    def test_ellipsis_zero_repetitions(self):
        p = PList((), PVar("x"))
        assert subst({"x": ListBinding(())}, p) == PList(())

    def test_ellipsis_depth_mismatch_raises(self):
        p = PList((), PVar("x"))
        with pytest.raises(SubstitutionError):
            subst({"x": Const(1)}, p)

    def test_bare_ellipsis_variable_unbound_raises(self):
        with pytest.raises(SubstitutionError, match="unbound ellipsis variable"):
            subst({}, PList((Const(0),), PVar("x")))

    def test_bare_ellipsis_variable_depth_mismatch_raises(self):
        with pytest.raises(SubstitutionError, match="ellipsis depth mismatch"):
            subst({"x": Node("Foo", ())}, PList((), PVar("x")))

    def test_bare_ellipsis_variable_extends_with_items(self):
        lb = ListBinding((Const(1), ListBinding((Const(2),))))
        out = subst({"x": lb}, PList((Const(0),), PVar("x")))
        assert out == PList((Const(0), Const(1), PList((Const(2),))))

    def test_ellipsis_without_variables_raises(self):
        # The paper's (3 ...) example: repetition count undetermined.
        p = PList((), Const(3))
        with pytest.raises(SubstitutionError):
            subst({}, p)

    def test_nested_ellipses(self):
        p = PList((), PList((), PVar("x")))
        sigma = {
            "x": ListBinding(
                (
                    ListBinding((Const(1), Const(2))),
                    ListBinding((Const(3),)),
                )
            )
        }
        assert subst(sigma, p) == PList(
            (PList((Const(1), Const(2))), PList((Const(3),)))
        )

    def test_tags_pass_through(self):
        p = Tagged(BodyTag(), Node("Foo", (PVar("x"),)))
        out = subst({"x": Const(1)}, p)
        assert out == Tagged(BodyTag(), Node("Foo", (Const(1),)))

    def test_unequal_repetition_counts_raise(self):
        p = PList((), Node("P", (PVar("x"), PVar("y"))))
        sigma = {
            "x": ListBinding((Const(1),)),
            "y": ListBinding((Const(1), Const(2))),
        }
        with pytest.raises(SubstitutionError):
            subst(sigma, p)


class TestBindingOps:
    def test_merge_zips_environments(self):
        envs = [{"x": Const(1)}, {"x": Const(2)}]
        assert merge(envs, ["x"]) == {"x": ListBinding((Const(1), Const(2)))}

    def test_merge_empty_produces_empty_list_bindings(self):
        assert merge([], ["x", "y"]) == {
            "x": ListBinding(()),
            "y": ListBinding(()),
        }

    def test_merge_missing_variable_raises(self):
        with pytest.raises(PatternError):
            merge([{}], ["x"])

    def test_split_unzips(self):
        sigma = {"x": ListBinding((Const(1), Const(2)))}
        assert split(sigma, ["x"]) == ({"x": Const(1)}, {"x": Const(2)})

    def test_split_requires_variables(self):
        with pytest.raises(SubstitutionError):
            split({}, [])

    def test_to_term_on_ellipsis_binding_raises(self):
        b = EllipsisBinding((Const(1),), Const(2))
        with pytest.raises(SubstitutionError):
            to_term(b)

    def test_union_conflict_raises(self):
        with pytest.raises(PatternError):
            union({"x": Node("A", ())}, {"x": Node("B", ())})

    def test_union_allows_agreeing_atoms(self):
        assert union({"x": Const(1)}, {"x": Const(1)}) == {"x": Const(1)}

    def test_right_biased_union(self):
        out = right_biased_union({"x": Const(1)}, {"x": Const(2)})
        assert out == {"x": Const(2)}

    def test_restrict_and_without(self):
        sigma = {"x": Const(1), "y": Const(2)}
        assert restrict(sigma, ["x"]) == {"x": Const(1)}
        assert without(sigma, ["x"]) == {"y": Const(2)}
