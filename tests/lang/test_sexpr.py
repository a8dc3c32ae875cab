"""Tests for the s-expression reader/writer."""

import pytest

from repro.core.errors import ParseError
from repro.core.terms import Symbol
from repro.lang.sexpr import read_sexpr, read_sexprs, write_sexpr


class TestRead:
    def test_atoms(self):
        assert read_sexpr("42") == 42
        assert read_sexpr("-1.5") == -1.5
        assert read_sexpr("#t") is True
        assert read_sexpr("#f") is False
        assert read_sexpr('"hi"') == "hi"
        assert read_sexpr("foo") == Symbol("foo")

    def test_nested_lists(self):
        assert read_sexpr("(let ((x 1)) x)") == [
            Symbol("let"),
            [[Symbol("x"), 1]],
            Symbol("x"),
        ]

    def test_square_brackets(self):
        assert read_sexpr("[1 2]") == [1, 2]

    def test_multiple_expressions(self):
        assert read_sexprs("1 2 (3)") == [1, 2, [3]]

    def test_comments(self):
        assert read_sexpr("(a ; comment\n b)") == [Symbol("a"), Symbol("b")]

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            read_sexpr("(a (b)")
        with pytest.raises(ParseError):
            read_sexpr("a)")

    def test_unterminated_string_names_its_quote(self):
        for source, at in (('(f "abc', 3), ('"', 0), ('(a b) ; c\n "q', 11)):
            with pytest.raises(ParseError) as err:
                read_sexpr(source)
            assert str(err.value) == f"unexpected character '\"' at {at}"
        # A backslash-newline is not an escape: the string stays open.
        with pytest.raises(ParseError, match="at 0"):
            read_sexpr('"a\\\nb"')

    def test_exactly_one_required(self):
        with pytest.raises(ParseError):
            read_sexpr("1 2")

    def test_string_escapes(self):
        assert read_sexpr(r'"a\"b"') == 'a"b'

    def test_operator_symbols(self):
        assert read_sexpr("(+ 1 2)") == [Symbol("+"), 1, 2]
        assert read_sexpr("call/cc") == Symbol("call/cc")


class TestWrite:
    def test_roundtrip(self):
        for source in (
            "(let ((x 1)) (+ x 2))",
            '(if #t "yes" "no")',
            "(f)",
            "3",
        ):
            expr = read_sexpr(source)
            assert read_sexpr(write_sexpr(expr)) == expr

    def test_bool_is_not_int(self):
        assert write_sexpr(True) == "#t"
        assert write_sexpr(1) == "1"
