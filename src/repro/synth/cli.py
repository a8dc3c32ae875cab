"""``repro synth`` — the synthesis pipeline and fuzzer as a command.

Split out of :mod:`repro.cli` so the synthesis machinery stays an
optional import: the main CLI only loads this module when the ``synth``
subcommand is actually invoked.
"""

from __future__ import annotations

import argparse
import sys

from repro.synth.pipeline import BACKEND_ALIASES, synthesize

__all__ = ["add_synth_arguments", "run_synth"]


def add_synth_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default="lambdacore",
        help="backend to synthesize rules for: lambdacore/pyretcore "
        "(aliases: %s) or any registered backend name"
        % ", ".join(f"{k}->{v}" for k, v in BACKEND_ALIASES.items()),
    )
    parser.add_argument(
        "--sugar",
        default=None,
        help="bundled sugar set to harvest from (default: the backend's "
        "standard set)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="random seed (the synthesis pipeline itself is "
        "deterministic; the seed drives --fuzz)",
    )
    parser.add_argument(
        "--program",
        action="append",
        default=None,
        metavar="SRC",
        help="replace the built-in seed bank with these surface "
        "programs (repeatable)",
    )
    parser.add_argument(
        "--max-list-len",
        type=int,
        default=5,
        help="longest list shape grown while harvesting (default: 5)",
    )
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip the golden re-lift comparison against the reference "
        "rules",
    )
    parser.add_argument(
        "--dump-rules",
        action="store_true",
        help="print every synthesized rule",
    )
    parser.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="TRIALS",
        help="instead of reporting a synthesized ruleset, run TRIALS "
        "perturbed-candidate trials through the engine and report the "
        "verdict histogram; exits non-zero on any engine crash",
    )


def _run_fuzz(args) -> int:
    from repro.synth.fuzz import fuzz_backend

    report = fuzz_backend(
        args.backend,
        seed=args.seed,
        trials=args.fuzz,
        sugar=args.sugar,
        max_list_len=min(args.max_list_len, 4),
    )
    print(
        f"fuzz: backend={report.backend} seed={report.seed} "
        f"trials={report.trials}"
    )
    for verdict in sorted(report.verdicts):
        print(f"  {verdict:18} {report.verdicts[verdict]}")
    if report.crashes:
        print(f"{len(report.crashes)} ENGINE CRASH(ES):", file=sys.stderr)
        for crash in report.crashes:
            print(f"-- op {crash.op}", file=sys.stderr)
            print(crash.detail, file=sys.stderr)
        return 1
    print("no engine crashes")
    return 0


def run_synth(args) -> int:
    if args.fuzz:
        return _run_fuzz(args)

    report = synthesize(
        args.backend,
        sugar=args.sugar,
        programs=args.program,
        max_list_len=args.max_list_len,
        validate=not args.no_validate,
    )
    print(
        f"synth: backend={report.backend} programs={report.programs} "
        f"buckets={report.buckets} examples={report.examples}"
    )
    print(
        f"  candidates={report.candidates} accepted={report.accepted} "
        "rejected="
        + (
            ", ".join(
                f"{verdict}:{count}"
                for verdict, count in sorted(report.rejections.items())
            )
            or "none"
        )
    )
    print(
        f"  installed {len(report.ruleset.rules)} rule(s), "
        f"{len(report.dropped)} dropped by disjointness"
    )
    print(
        f"  rediscovered {len(report.rediscovered)} hand-written rule(s): "
        + (", ".join(report.rediscovered) or "none")
    )
    if args.dump_rules:
        from repro.lang.render import render

        for rule in report.ruleset.rules:
            print(f"  {rule.name}: {render(rule.lhs)} => {render(rule.rhs)}")
    if report.validation is not None:
        v = report.validation
        status = "ok" if v.ok else "MISMATCH"
        print(
            f"  validation: {status} ({v.matched}/{v.programs} golden "
            "traces byte-identical)"
        )
        for mismatch in v.mismatches:
            print(f"    mismatch: {mismatch}", file=sys.stderr)
        if not v.ok:
            return 1
    return 0
