"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.engine.registry import register_backend, unregister_backend


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLift:
    def test_lambda_or(self, capsys):
        code, out, err = run(capsys, "lift", "--lang", "lambda", "(or #t #f)")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "(or #t #f)"
        assert lines[-1] == "#t"
        assert "core steps" in err

    def test_pyret_naive_vs_object(self, capsys):
        _, naive_out, _ = run(capsys, "lift", "--lang", "pyret", "1 + (2 + 3)")
        _, object_out, _ = run(
            capsys, "lift", "--lang", "pyret", "--op", "object", "1 + (2 + 3)"
        )
        assert "1 + 5" not in naive_out
        assert "1 + 5" in object_out

    def test_transparent_flag(self, capsys):
        _, opaque, _ = run(capsys, "lift", "--lang", "lambda", "(or #f #f #t)")
        _, transparent, _ = run(
            capsys, "lift", "--lang", "lambda", "--transparent", "(or #f #f #t)"
        )
        assert "(or #f #t)" not in opaque
        assert "(or #f #t)" in transparent

    def test_tree(self, capsys):
        code, out, _ = run(
            capsys, "lift", "--lang", "lambda", "--tree", "(amb 1 2)"
        )
        assert code == 0
        assert "1" in out and "2" in out

    def test_show_skipped(self, capsys):
        _, out, _ = run(
            capsys, "lift", "--lang", "lambda", "--show-skipped", "(or #t #f)"
        )
        assert any(line.startswith("x ") for line in out.splitlines())

    def test_automaton_sugar_set(self, capsys):
        code, out, _ = run(
            capsys,
            "lift",
            "--lang",
            "lambda",
            "--sugar",
            "automaton",
            '(let ((M (automaton a (a : ("x" -> b)) (b : accept)))) (M "x"))',
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "#t"

    def test_unknown_sugar_set(self, capsys):
        with pytest.raises(SystemExit):
            main(["lift", "--lang", "lambda", "--sugar", "bogus", "1"])

    def test_program_from_file(self, capsys, tmp_path):
        path = tmp_path / "prog.scm"
        path.write_text("(+ 1 2)")
        code, out, _ = run(capsys, "lift", "--lang", "lambda", f"@{path}")
        assert code == 0
        assert out.strip().splitlines()[-1] == "3"

    def test_rules_file(self, capsys, tmp_path):
        path = tmp_path / "rules.confection"
        path.write_text('Twice(x) -> Op("*", [2, x]);\n')
        code, out, _ = run(
            capsys,
            "lift",
            "--lang",
            "lambda",
            "--rules-file",
            str(path),
            "@" + str(_write(tmp_path, "(+ 1 2)")),
        )
        assert code == 0


def _write(tmp_path, text):
    p = tmp_path / "p.scm"
    p.write_text(text)
    return p


@pytest.fixture
def recording_backend():
    """A registered backend whose sugar factory records the options the
    CLI hands it (a lambda-language clone)."""
    from repro.engine.registry import Backend
    from repro.lambdacore import make_stepper, parse_program, pretty
    from repro.sugars.scheme_sugars import make_scheme_rules

    recorded = {}

    def factory(**options):
        recorded.clear()
        recorded.update(options)
        return make_scheme_rules(
            transparent_recursion=options.get("transparent_recursion", False)
        )

    register_backend(
        Backend(
            name="probe",
            parse=parse_program,
            pretty=pretty,
            make_stepper=make_stepper,
            sugar_factories={"scheme": factory},
            default_sugar="scheme",
        )
    )
    yield recorded
    unregister_backend("probe")


class TestOptionMerging:
    def test_transparent_not_discarded_by_op(self, capsys, recording_backend):
        """Regression: --op used to *overwrite* the sugar-option dict,
        silently discarding --transparent.  Every backend's factory must
        now see the full merged option set."""
        code, out, _ = run(
            capsys,
            "lift", "--lang", "probe", "--transparent", "--op", "object",
            "(or #f #f #t)",
        )
        assert code == 0
        assert recording_backend["transparent_recursion"] is True
        assert recording_backend["op_desugaring"] == "object"
        # And the transparent flag actually took effect on the trace.
        assert "(or #f #t)" in out

    def test_pyret_still_accepts_both_flags(self, capsys):
        code, out, _ = run(
            capsys,
            "lift", "--lang", "pyret", "--transparent", "--op", "object",
            "1 + (2 + 3)",
        )
        assert code == 0
        assert "1 + 5" in out

    def test_registered_backend_appears_in_lang_choices(
        self, capsys, recording_backend
    ):
        from repro.cli import build_parser

        args = build_parser().parse_args(["lift", "--lang", "probe", "1"])
        assert args.lang == "probe"


class TestTreeFixes:
    def test_rootless_tree_reports_instead_of_crashing(self, capsys):
        """Regression: a tree whose root core term is not resugarable
        used to die with KeyError: None."""
        from repro.core.lift import FunctionStepper
        from repro.core.rules import RuleList
        from repro.core.terms import BodyTag, Const, Node, Tagged
        from repro.engine.registry import Backend
        from repro.lang.render import render

        register_backend(
            Backend(
                name="opaque-root",
                # Every parsed program is wrapped in an opaque body tag,
                # so no state ever has a surface representation.
                parse=lambda src: Tagged(
                    BodyTag(transparent=False), Node("Box", (Const(1),))
                ),
                pretty=lambda t: render(t, show_tags=False),
                make_stepper=lambda: FunctionStepper(lambda t: None),
                sugar_factories={"none": lambda **options: RuleList([])},
                default_sugar="none",
            )
        )
        try:
            code, out, err = run(
                capsys, "lift", "--lang", "opaque-root", "--tree", "ignored"
            )
        finally:
            unregister_backend("opaque-root")
        assert code == 1
        assert out == ""
        assert "no explored core state has a surface representation" in err
        assert "1 core states, 1 skipped" in err

    def test_max_steps_plumbed_to_max_nodes(self, capsys):
        """Regression: --max-steps was silently ignored for --tree."""
        code, _, err = run(
            capsys,
            "lift", "--lang", "lambda", "--tree", "--max-steps", "2",
            "(amb 1 2)",
        )
        assert code == 1
        assert "exceeded 2 core nodes" in err

    def test_tree_budget_truncates_cleanly(self, capsys):
        code, out, err = run(
            capsys,
            "lift", "--lang", "lambda", "--tree", "--max-steps", "2",
            "--on-budget", "truncate", "(amb 1 2)",
        )
        assert code == 0
        assert "(amb 1 2)" in out
        assert "truncated" in err


class TestBudgetFlags:
    def test_truncate_prints_notice_and_partial_trace(self, capsys):
        code, out, err = run(
            capsys,
            "lift", "--lang", "lambda", "--max-steps", "3",
            "--on-budget", "truncate", "(or #f #f #f #t)",
        )
        assert code == 0
        assert out.splitlines()[0] == "(or #f #f #f #t)"
        assert "truncated" in err and "steps budget" in err

    def test_raise_is_default_budget_policy(self, capsys):
        code, _, err = run(
            capsys,
            "lift", "--lang", "lambda", "--max-steps", "3", "(or #f #f #f #t)",
        )
        assert code == 1
        assert "did not finish within 3 steps" in err

    def test_max_seconds_flag(self, capsys):
        code, _, err = run(
            capsys,
            "lift", "--lang", "lambda", "--max-seconds", "0",
            "--on-budget", "truncate", "(or #t #f)",
        )
        assert code == 0
        assert "seconds budget" in err

    def test_table_marks_truncation(self, capsys):
        code, out, _ = run(
            capsys,
            "lift", "--lang", "lambda", "--table", "--max-steps", "3",
            "--on-budget", "truncate", "(or #f #f #f #t)",
        )
        assert code == 0
        assert "[truncated: budget exhausted]" in out

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["lift", "--max-steps", "-1", "(or #t #f)"], "max_steps"),
            (["lift", "--tree", "--max-steps", "-3", "(amb 1 2)"],
             "max_steps"),
            (["lift", "--max-seconds", "nan", "(or #t #f)"], "max_seconds"),
            (["lift", "--max-seconds", "inf", "(or #t #f)"], "max_seconds"),
            (["lift", "--max-seconds", "-1", "(or #t #f)"], "max_seconds"),
            (["lift-batch", "--max-steps", "-1", "unused.scm"], "max_steps"),
            (["lift-batch", "--max-seconds", "nan", "unused.scm"],
             "max_seconds"),
            (["trace", "--max-steps", "-5", "(or #f #t)"], "max_steps"),
        ],
    )
    def test_out_of_range_budgets_are_usage_errors(self, capsys, argv,
                                                   option):
        """Rejected before any lift runs, with argparse's exit status 2
        (not a late 'did not finish within -1 steps', and not a NaN
        deadline that never fires)."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert option in capsys.readouterr().err

    def test_zero_step_budget_is_still_valid(self, capsys):
        code, out, _ = run(
            capsys,
            "lift", "--max-steps", "0", "--on-budget", "truncate",
            "(or #t #f)",
        )
        assert code == 0
        assert out.splitlines() == ["(or #t #f)"]


class TestDesugar:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "desugar", "--lang", "lambda", "(or #t #f)")
        assert code == 0
        assert "lambda" in out  # the Or expansion is an applied lambda

    def test_tags(self, capsys):
        code, out, _ = run(
            capsys, "desugar", "--lang", "lambda", "--tags", "(or #t #f)"
        )
        assert code == 0
        assert "#" in out  # head-tag marker


class TestTrace:
    def test_core_trace(self, capsys):
        code, out, _ = run(capsys, "trace", "--lang", "lambda", "(+ 1 (* 2 3))")
        assert code == 0
        assert out.strip().splitlines() == ["(+ 1 (* 2 3))", "(+ 1 6)", "7"]

    def test_step_budget_still_stops_the_trace(self, capsys):
        code, out, err = run(
            capsys, "trace", "--max-steps", "1", "(+ 1 (* 2 3))"
        )
        assert code == 1
        assert out.strip().splitlines() == ["(+ 1 (* 2 3))"]
        assert "[stopped after 1 steps]" in err


class TestCheck:
    def test_valid_rules(self, capsys, tmp_path):
        path = tmp_path / "rules.confection"
        path.write_text("Swap(x, y) -> Pair(y, x);\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == 0
        assert "Swap" in out

    def test_overlapping_rules_fail(self, capsys, tmp_path):
        path = tmp_path / "rules.confection"
        path.write_text(
            'Max([]) -> Raise("e");\nMax(xs) -> MaxAcc(xs, -infinity);\n'
        )
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "error" in err

    def test_off_mode_accepts(self, capsys, tmp_path):
        path = tmp_path / "rules.confection"
        path.write_text(
            'Max([]) -> Raise("e");\nMax(xs) -> MaxAcc(xs, -infinity);\n'
        )
        code, out, _ = run(capsys, "check", str(path), "--disjointness", "off")
        assert code == 0
