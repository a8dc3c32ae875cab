"""Unit tests for the stateful lambda core language."""

import pytest

from repro.core.errors import StuckError
from repro.core.terms import BodyTag, Const, Node, Tagged
from repro.lambdacore import (
    app,
    idref,
    lam,
    make_semantics,
    num,
    parse_program,
    pretty,
)
from repro.redex import MachineState


@pytest.fixture(scope="module")
def sem():
    return make_semantics()


def run(sem, source):
    return pretty(sem.normal_form(parse_program(source)))


class TestValues:
    def test_constants_are_values(self, sem):
        assert sem.is_value(num(3))
        assert sem.is_value(Const("s"))
        assert sem.is_value(Const(True))

    def test_lambdas_are_values(self, sem):
        assert sem.is_value(lam("x", idref("x")))

    def test_tagged_values(self, sem):
        assert sem.is_value(Tagged(BodyTag(), lam("x", idref("x"))))

    def test_applications_are_not_values(self, sem):
        assert not sem.is_value(app(lam("x", idref("x")), num(1)))

    def test_cells_are_values(self, sem):
        assert sem.is_value(Node("Cell", (Const("x"),)))


class TestEvaluation:
    def test_arithmetic(self, sem):
        assert run(sem, "(+ 1 (* 2 3))") == "7"
        assert run(sem, "(- 10 4)") == "6"
        assert run(sem, "(/ 9 3)") == "3.0"

    def test_comparison(self, sem):
        assert run(sem, "(< 1 2)") == "#t"
        assert run(sem, "(>= 2 2)") == "#t"
        assert run(sem, "(= 1 2)") == "#f"

    def test_beta(self, sem):
        assert run(sem, "((lambda (x) (+ x 1)) 41)") == "42"

    def test_shadowing(self, sem):
        assert run(sem, "((lambda (x) ((lambda (x) x) 2)) 1)") == "2"

    def test_if(self, sem):
        assert run(sem, "(if #t 1 2)") == "1"
        assert run(sem, "(if #f 1 2)") == "2"

    def test_if_does_not_evaluate_untaken_branch(self, sem):
        # The untaken branch would be stuck if evaluated.
        assert run(sem, '(if #t 1 (+ 1 "oops"))') == "1"

    def test_sequencing(self, sem):
        assert run(sem, "(begin 1 2 3)") == "3"

    def test_string_ops(self, sem):
        assert run(sem, '(first "abc")') == '"a"'
        assert run(sem, '(rest "abc")') == '"bc"'
        assert run(sem, '(empty? "")') == "#t"
        assert run(sem, '(equal? "a" "a")') == "#t"
        assert run(sem, '(string-append "ab" "cd")') == '"abcd"'

    def test_not_and_zero(self, sem):
        assert run(sem, "(not #f)") == "#t"
        assert run(sem, "(zero? 0)") == "#t"

    def test_stuck_on_type_error(self, sem):
        with pytest.raises(StuckError):
            sem.normal_form(parse_program('(+ 1 "two")'))

    def test_stuck_on_unbound_variable(self, sem):
        with pytest.raises(StuckError):
            sem.normal_form(parse_program("nonexistent-variable"))

    def test_stuck_on_applying_non_function(self, sem):
        with pytest.raises(StuckError):
            sem.normal_form(parse_program("(1 2)"))


class TestMutation:
    def test_set_and_read(self, sem):
        assert run(sem, "((lambda (x) (begin (set! x 10) (+ x 1))) 1)") == "11"

    def test_unassigned_parameter_substitutes_by_value(self, sem):
        states = sem.trace(parse_program("((lambda (x) (+ x 1)) 5)"))
        # One beta step straight to (+ 5 1): no cell machinery.
        assert pretty(states[1].term) == "(+ 5 1)"

    def test_assigned_parameter_becomes_named_cell(self, sem):
        states = sem.trace(
            parse_program("((lambda (x) (begin (set! x 2) x)) 1)")
        )
        assert "setcell" in pretty(states[1].term)
        assert states[-1].term == num(2)

    def test_shadowed_assignment_substitutes_by_value(self, sem):
        # The inner lambda rebinds x, so the set! is not of the parameter.
        states = sem.trace(
            parse_program("((lambda (x) ((lambda (x) (set! x 2)) x)) 1)")
        )
        assert pretty(states[1].term) == "((lambda (x) (set! x 2)) 1)"

    def test_assignment_under_tags_is_found(self, sem):
        body = Tagged(BodyTag(), parse_program("(begin (set! x 2) x)"))
        term = app(Node("Lam", (Const("x"), body)), num(1))
        states = sem.trace(term)
        assert "setcell" in pretty(states[1].term)
        assert states[-1].term == num(2)

    def test_substitute_signals_assignment(self):
        from repro.lambdacore.substitute import Assigned, substitute

        body = parse_program("(begin (set! x 2) x)")
        with pytest.raises(Assigned):
            substitute(body, "x", num(1))
        shadowed = parse_program("(lambda (x) (set! x 2))")
        assert substitute(shadowed, "x", num(1)) is shadowed

    def test_set_returns_void(self, sem):
        assert run(sem, "((lambda (x) (set! x 9)) 1)") == "<void>"

    def test_cell_names_stay_readable(self, sem):
        program = parse_program(
            "((lambda (counter) (begin (set! counter 1) (+ counter 1))) 0)"
        )
        shown = [pretty(s.term) for s in sem.trace(program)]
        assert any("(+ counter 1)" in s for s in shown)

    def test_fresh_cell_names_on_reentry(self, sem):
        # Applying the same assigning function twice must not share cells.
        source = """
        ((lambda (f) (+ (f 1) (f 10)))
         (lambda (x) (begin (set! x (+ x 1)) x)))
        """
        assert run(sem, source) == "13"

    def test_set_on_free_variable_creates_global_cell(self, sem):
        assert run(sem, "(begin (set! g 5) (g-ref))" if False else
                   "(begin (set! g 5) (+ g 1))") == "6"


class TestCallCC:
    def test_escape(self, sem):
        assert run(sem, "(call/cc (lambda (k) (+ 1 (k 42))))") == "42"

    def test_unused_continuation(self, sem):
        assert run(sem, "(call/cc (lambda (k) 7))") == "7"

    def test_continuation_restores_context(self, sem):
        assert run(sem, "(+ 1 (call/cc (lambda (k) (k 5))))") == "6"

    def test_continuation_discards_context(self, sem):
        # The (* 100 _) around the invocation is discarded.
        assert (
            run(sem, "(+ 1 (call/cc (lambda (k) (* 100 (k 5)))))") == "6"
        )


class TestAmb:
    def test_amb_branches(self, sem):
        states, edges = sem.trace_tree(parse_program("(amb 1 (+ 1 1))"))
        finals = [s.term for s in states if not sem.step(s)]
        assert num(1) in finals and num(2) in finals

    def test_amb_choices_unevaluated_until_chosen(self, sem):
        (left, right) = sem.step(
            MachineState(parse_program("(amb (+ 1 1) (+ 2 2))"))
        )
        assert pretty(left.term) == "(+ 1 1)"
        assert pretty(right.term) == "(+ 2 2)"


class TestSyntaxRoundTrip:
    def test_pretty_inverts_parse(self, sem):
        for source in (
            "(+ 1 2)",
            "((lambda (x) x) 1)",
            "(if #t 1 2)",
            "(begin 1 2)",
            '(let ((x 1) (y 2)) (+ x y))',
            "(letrec ((f 1)) f)",
            "(or 1 2 3)",
            "(and #t #f)",
            "(cond ((< 1 2) 1) (else 2))",
            "(function (x y) (+ x y))",
            "(thunk 3)",
            "(force f)",
            "(return 3)",
            "(when #t 1)",
            "(amb 1 2)",
            '(set! x 3)',
        ):
            term = parse_program(source)
            assert parse_program(pretty(term)) == term

    def test_automaton_roundtrip(self, sem):
        source = (
            '(automaton init (init : ("c" -> more)) '
            '(more : ("a" -> more) accept))'
        )
        term = parse_program(source)
        assert parse_program(pretty(term)) == term
