"""Byte-for-byte CLI output for ``repro trace`` and ``repro lift --table``.

``repro trace`` prints every raw core state, tags and all, and the
``--table`` view prints the core term beside each surface step, so
these runs pin how both backends render *tagged* core terms; the golden
traces (``tests/golden/*.trace``) only cover tag-free surface terms.

``tests/golden/cli_expected.json`` holds the recorded stdout, stderr
and exit code of every case.  After an intended output change,
regenerate it with::

    PYTHONPATH=src python -m tests.test_cli_expected_output
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main

EXPECTED = Path(__file__).parent / "golden" / "cli_expected.json"

_LAMBDA = [
    ("or_chain", [], "(or #f #f #t)"),
    ("let_two", [], "(let ((x 1) (y (+ x 1))) (+ x y))"),
    (
        "letrec_fact",
        [],
        "(letrec ((f (lambda (n) (if (zero? n) 1 (* n (f (- n 1))))))) (f 3))",
    ),
    ("cond_three", [], "(cond ((< 2 1) 10) ((< 1 2) 20) (else 30))"),
    ("list_pairs", [], "(let ((l (cons 1 (cons 2 nil)))) (car (cdr (list l 3))))"),
    (
        "while_set",
        [],
        "((lambda (n) (begin (while (< 0 n) (set! n (- n 1))) n)) 3)",
    ),
    (
        "automaton",
        ["--sugar", "automaton"],
        '(let ((M (automaton s0 (s0 : ("a" -> s1)) (s1 : accept)))) (M "a"))',
    ),
    (
        "return",
        ["--sugar", "return"],
        "(+ 1 ((function (x) (+ 1 (return (+ x 2)))) (+ 3 4)))",
    ),
]

_PYRET = [
    (
        "len",
        [],
        "fun len(x): cases(List) x: | empty() => 0 "
        "| link(f, tail) => len(tail) + 1 end end len([1, 2])",
    ),
    ("binop_object", ["--op", "object"], "1 + (2 + 3)"),
    ("cases_else", [], "cases(List) [3]: | link(f, r) => f | else => 99 end"),
    ("for", [], "fun apply2(f, v): f(v) end for apply2(x from 10): x + 5 end"),
    ("method_call", [], "{double: fun(n): n + n end}.double(4)"),
    ("currying", [], "(_ + 3)(4)"),
    ("strings", [], 'if "a" == "b": "q" else: "r\\"s" end'),
]


def _cases():
    for lang, programs in (("lambda", _LAMBDA), ("pyret", _PYRET)):
        for name, extra, program in programs:
            for mode, argv in (
                ("trace", ["trace"]),
                ("table", ["lift", "--table"]),
            ):
                yield (
                    f"{lang}-{name}-{mode}",
                    [*argv, "--lang", lang, *extra, program],
                )


CASES = dict(_cases())


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _expected():
    return json.loads(EXPECTED.read_text())


def test_cases_cover_both_backends_and_modes():
    recorded = _expected()
    assert set(recorded) == set(CASES)
    for lang in ("lambda", "pyret"):
        for mode in ("trace", "table"):
            ids = [c for c in CASES if c.startswith(lang) and c.endswith(mode)]
            assert len(ids) >= 4


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_byte_identical(case):
    recorded = _expected()[case]
    assert recorded["argv"] == CASES[case]
    got = _run(CASES[case])
    assert got["code"] == recorded["code"]
    assert got["stdout"] == recorded["stdout"]
    assert got["stderr"] == recorded["stderr"]


if __name__ == "__main__":
    EXPECTED.write_text(
        json.dumps(
            {case: {"argv": argv, **_run(argv)} for case, argv in CASES.items()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {len(CASES)} cases to {EXPECTED}")
