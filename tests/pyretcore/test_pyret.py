"""Tests for the Pyret-like core, its syntax, and the Figure 5 sugars."""

import pytest

from repro.confection import Confection
from repro.core.errors import ParseError, StuckError
from repro.core.terms import BodyTag, Const, Node, PList, Tagged
from repro.pyretcore import make_semantics, make_stepper, parse_program, pretty
from repro.pyretcore.semantics import substitute
from repro.sugars.pyret_sugars import (
    FIGURE_5_ROWS,
    make_pyret_rules,
)


@pytest.fixture(scope="module")
def sem():
    return make_semantics()


@pytest.fixture(scope="module")
def conf():
    return Confection(make_pyret_rules(), make_stepper())


def final(conf, source):
    result = conf.lift(parse_program(source))
    return pretty(result.surface_sequence[-1])


def steps(conf, source):
    result = conf.lift(parse_program(source))
    return [pretty(t) for t in result.surface_sequence]


class TestParser:
    def test_literals(self):
        assert pretty(parse_program("42")) == "42"
        assert pretty(parse_program("true")) == "true"
        assert pretty(parse_program('"hi"')) == '"hi"'
        assert pretty(parse_program("nothing")) == "nothing"

    def test_roundtrip_core_shapes(self):
        for source in (
            "f(1, 2)",
            'o.["x"]',
            "o.x",
            "o:x",
            "[1, 2, 3]",
            "1 + 2",
            "not true",
            "(1 + 2)",
            "x ^ f(2)",
            "for map(x from lst): x + 1 end",
            "when true: 1 end",
            "if true: 1 else: 2 end",
            "fun(x): x end",
        ):
            term = parse_program(source)
            assert parse_program(pretty(term)) == term

    def test_fun_decl_structure(self):
        term = parse_program("fun f(x): x end f(1)")
        assert term.label == "FunDecl"

    def test_cases_structure(self):
        term = parse_program(
            "cases(List) x: | empty() => 0 | link(f, r) => 1 end"
        )
        assert term.label == "Cases"
        assert len(term.children[2].items) == 2

    def test_cases_else(self):
        term = parse_program("cases(List) x: | empty() => 0 | else => 9 end")
        assert term.label == "CasesElse"

    def test_op_currying(self):
        assert parse_program("_ + 3").label == "OpCurryL"
        assert parse_program("3 + _").label == "OpCurryR"

    def test_app_currying(self):
        assert parse_program("f(_, 3)").label == "CurryAppL"
        assert parse_program("f(3, _)").label == "CurryAppR"
        assert parse_program("f(_)").label == "CurryApp1"

    def test_double_blank_rejected(self):
        with pytest.raises(ParseError):
            parse_program("_ + _")

    def test_empty_block_rejected(self):
        with pytest.raises(ParseError):
            parse_program("")

    def test_declaration_must_have_scope(self):
        with pytest.raises(ParseError):
            parse_program("fun f(x): x end")


class TestCoreSemantics:
    def test_arithmetic_methods(self, conf):
        assert final(conf, "1 + 2") == "3"
        assert final(conf, "7 - 2") == "5"
        assert final(conf, "3 * 4") == "12"
        assert final(conf, "1 < 2") == "true"
        assert final(conf, "2 <= 1") == "false"
        assert final(conf, "2 == 2") == "true"

    def test_string_methods(self, conf):
        assert final(conf, '"ab" + "cd"') == '"abcd"'
        assert final(conf, '"x" == "x"') == "true"

    def test_not(self, conf):
        assert final(conf, "not true") == "false"
        assert final(conf, "not (1 < 2)") == "false"

    def test_objects(self, conf):
        assert final(conf, '{"x": 1, "y": 2}.["x"]') == "1"
        assert final(conf, '{"x": 1 + 1}.["x"]') == "2"

    def test_missing_field_is_stuck(self, sem):
        from repro.sugars.pyret_sugars import make_pyret_rules
        from repro.core.desugar import desugar

        core = desugar(make_pyret_rules(), parse_program('{"x": 1}.["y"]'))
        with pytest.raises(StuckError):
            sem.normal_form(core)

    def test_lambda_application(self, conf):
        assert final(conf, "fun(x, y): x + y end(3, 4)") == "7"

    def test_arity_mismatch_stuck(self, sem):
        from repro.core.desugar import desugar

        core = desugar(make_pyret_rules(), parse_program("fun(x): x end(1, 2)"))
        with pytest.raises(StuckError):
            sem.normal_form(core)

    def test_let_statement(self, conf):
        assert final(conf, "x = 5 x + 1") == "6"

    def test_blocks_sequence(self, conf):
        assert final(conf, "1 2 3") == "3"

    def test_raise_aborts(self, conf):
        assert final(conf, 'raise("boom")') == 'error: "boom"'
        assert final(conf, '1 + raise("boom")') == 'error: "boom"'

    def test_lists(self, conf):
        assert final(conf, '[1, 2].["first"]') == "1"
        assert final(conf, '[1, 2].["rest"]') == "[2]"


class TestSection4:
    LEN = """
    fun len(x):
      cases(List) x:
        | empty() => 0
        | link(f, tail) => len(tail) + 1
      end
    end
    len([1, 2])
    """

    def test_len_trace_shape(self, conf):
        shown = steps(conf, self.LEN)
        assert shown[-1] == "2"
        assert "len([1, 2])" in shown
        assert any(s.startswith("cases(List) [1, 2]:") for s in shown)
        assert any(s.startswith("cases(List) [2]:") for s in shown)
        assert any(s.startswith("cases(List) []:") for s in shown)
        assert "0 + 1 + 1" in shown
        assert "1 + 1" in shown

    def test_len_hides_core_machinery(self, conf):
        shown = steps(conf, self.LEN)
        # The _match dispatch, branch objects, and temp bindings never
        # leak into the surface trace (Abstraction).
        assert not any("_match" in s or "%temp" in s for s in shown)

    def test_substantial_hiding(self, conf):
        result = conf.lift(parse_program(self.LEN))
        assert result.skipped_count > result.shown_count

    def test_len_over_a_100_element_list_lifts(self, conf):
        """Reproducer: every Emulation check of a run used to draw on one
        shared expansion fuel, so this 1110-step lift tripped the
        10 000-expansion guard with a spurious ``ExpansionError``."""
        items = ", ".join(str(i) for i in range(100))
        source = self.LEN.replace("len([1, 2])", f"len([{items}])")
        result = conf.lift(parse_program(source))
        assert result.core_step_count == 1110
        assert result.shown_count == 304
        assert pretty(result.surface_sequence[-1]) == "100"


def _id(name):
    return Node("Id", (Const(name),))


class TestSubstituteSharing:
    """``substitute`` returns every subterm it does not rewrite as the
    same object, so contracta stay interned on their untouched parts."""

    BIG = Node(
        "Lam",
        (PList((Const("y"),)), Node("App", (_id("g"), PList((_id("y"), Const(1)))))),
    )

    def test_name_not_free_returns_the_input(self):
        assert substitute(self.BIG, "x", Const(5)) is self.BIG
        tagged = Tagged(BodyTag(), self.BIG)
        assert substitute(tagged, "x", Const(5)) is tagged

    def test_shadowing_let_keeps_its_body(self):
        closed = Node("Let", (Const("x"), self.BIG, _id("x")))
        assert substitute(closed, "x", Const(5)) is closed
        open_rhs = Node("Let", (Const("x"), _id("x"), _id("x")))
        out = substitute(open_rhs, "x", Const(5))
        assert out.children[1] == Const(5)
        assert out.children[2] is open_rhs.children[2]

    def test_beta_contractum_shares_every_untouched_subterm(self):
        body = Node("App", (_id("f"), PList((_id("x"), self.BIG))))
        out = substitute(body, "x", Const(5))
        assert out.children[0] is body.children[0]
        assert out.children[1].items[0] == Const(5)
        assert out.children[1].items[1] is self.BIG


class TestSection83BinOps:
    def test_naive_desugaring_skips_intermediate(self):
        conf = Confection(make_pyret_rules("naive"), make_stepper())
        shown = steps(conf, "1 + (2 + 3)")
        assert shown == ["1 + (2 + 3)", "6"]

    def test_figure_6_desugaring_shows_intermediate(self):
        conf = Confection(make_pyret_rules("object"), make_stepper())
        shown = steps(conf, "1 + (2 + 3)")
        assert shown == ["1 + (2 + 3)", "1 + 5", "6"]

    def test_both_desugarings_agree_on_results(self):
        for source in ("1 + 2 * 3", "(1 + 2) * 3", "10 - 2 - 3"):
            results = []
            for mode in ("naive", "object"):
                conf = Confection(make_pyret_rules(mode), make_stepper())
                results.append(final(conf, source))
            assert results[0] == results[1]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            make_pyret_rules("fancy")


class TestFigure5Sugars:
    """One probe program per implemented Figure 5 row."""

    PROBES = {
        "fun": ("fun f(x): x + 1 end f(4)", "5"),
        "when": ("when 1 < 2: 9 end", "9"),
        "if": ("if 1 > 2: 1 else if 2 > 1: 2 else: 3 end", "2"),
        "cases": (
            "cases(List) [7]: | empty() => 0 | link(f, r) => f end",
            "7",
        ),
        "cases-else": (
            "cases(List) []: | link(f, r) => f | else => 99 end",
            "99",
        ),
        "for": (
            "fun apply2(f, v): f(v) end "
            "for apply2(x from 10): x + 5 end",
            "15",
        ),
        "op": ("2 * 21", "42"),
        "not": ("not false", "true"),
        "paren": ("(((5)))", "5"),
        "left-app": ("fun add(a, b): a + b end 1 ^ add(2)", "3"),
        "list": ('[1, 2, 3].["rest"]', "[2, 3]"),
        "dot": ('{"x": 8}.x', "8"),
        "colon": ('{"x": 8}:x', "8"),
        "(currying)": ("(_ + 3)(4)", "7"),
    }

    @pytest.mark.parametrize("row", [r for r in FIGURE_5_ROWS if r[2]])
    def test_implemented_row(self, conf, row):
        name = row[0]
        source, expected = self.PROBES[name]
        assert final(conf, source) == expected

    def test_unimplemented_rows_are_graph_and_datatype(self):
        missing = [name for name, _, ok in FIGURE_5_ROWS if not ok]
        assert missing == ["graph", "datatype"]

    def test_currying_variants(self, conf):
        assert final(conf, "(3 + _)(4)") == "7"
        assert final(conf, "fun add(a, b): a + b end add(_, 2)(5)") == "7"
        assert final(conf, "fun add(a, b): a + b end add(2, _)(5)") == "7"
        assert final(conf, "fun inc(a): a + 1 end inc(_)(5)") == "6"

    def test_when_false_is_nothing(self, conf):
        assert final(conf, "when 1 > 2: 9 end") == "nothing"

    def test_if_without_else_raises_when_unmatched(self, conf):
        assert final(conf, "if 1 > 2: 1 end").startswith("error:")

    def test_cases_without_match_raises(self, conf):
        out = final(
            conf, "cases(List) []: | link(f, r) => f end"
        )
        assert out == 'error: "cases: no cases matched"'


class TestRecursion:
    def test_mutual_recursion_via_fun_decls(self, conf):
        source = """
        fun even(n):
          if n == 0: true else: odd(n - 1) end
        end
        fun odd(n):
          if n == 0: false else: even(n - 1) end
        end
        even(10)
        """
        assert final(conf, source) == "true"

    def test_sum_list(self, conf):
        source = """
        fun sum(x):
          cases(List) x:
            | empty() => 0
            | link(f, r) => f + sum(r)
          end
        end
        sum([1, 2, 3, 4])
        """
        assert final(conf, source) == "10"


class TestSection4Desugaring:
    """The paper prints the *full desugaring* of the len program
    (section 4); check our core term has the same moving parts."""

    def test_desugared_len_matches_papers_shape(self, conf):
        from repro.core.terms import strip_tags
        from repro.lang.render import render

        core = conf.desugar(parse_program(TestSection4.LEN))
        text = render(strip_tags(core))
        # "the cases expression desugars into an application of the
        # matchee's _match method on an object containing code for each
        # branch"
        assert '"_match"' in text
        assert '"empty"' in text and '"link"' in text
        # "...and an else thunk that raises"
        assert "cases: no cases matched" in text
        # "the function declaration desugars into a ... binding to a
        # lambda" (recursive, via the named store in our core)
        assert "DefRec" in text and "Lam" in text
        # "addition desugars into an application of a _plus method"
        assert '"_plus"' in text
        # "the list [1, 2] desugars into a chain of list constructors"
        assert text.count('"link"') >= 2 and '"empty"' in text

    def test_desugared_core_runs_to_the_same_answer(self, conf, sem):
        core = conf.desugar(parse_program(TestSection4.LEN))
        assert pretty(sem.normal_form(core)) == "2"


class TestScoping:
    def test_lambda_parameter_shadows_outer(self, conf):
        assert final(conf, "x = 1 fun(x): x + 10 end(5)") == "15"

    def test_let_shadows_outer_let(self, conf):
        assert final(conf, "x = 1 y = x + 1 x = 10 x + y") == "12"

    def test_cases_branch_params_shadow(self, conf):
        source = """
        f = 100
        cases(List) [7]: | empty() => 0 | link(f, r) => f end
        """
        assert final(conf, source) == "7"

    def test_fun_decl_name_visible_in_later_decls(self, conf):
        source = """
        fun inc(n): n + 1 end
        fun twice(n): inc(inc(n)) end
        twice(5)
        """
        assert final(conf, source) == "7"
