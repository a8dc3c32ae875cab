"""Command-line interface: CONFECTION as a tool.

The paper's artifact is a command-line program fed a grammar file and
rewrite rules; this CLI plays the same role for every language backend
registered with :mod:`repro.engine.registry` (the bundled ``lambda`` and
``pyret`` plus anything third-party code registers) and any user rules
file.  ``lift`` output *streams*: surface steps are printed as the
underlying :func:`~repro.engine.stream.lift_stream` produces them, so
the first step appears before evaluation finishes and long runs can be
budgeted with ``--max-steps`` / ``--max-seconds`` (``--on-budget
truncate`` turns budget exhaustion into a truncated-but-valid trace
instead of an error).

Examples::

    python -m repro lift --lang lambda '(or (not #t) (not #f))'
    python -m repro lift --lang pyret  '1 + (2 + 3)' --op object
    python -m repro lift --lang lambda --sugar automaton --tree '(amb 1 2)'
    python -m repro lift --lang lambda --max-seconds 1 --on-budget truncate @prog.scm
    python -m repro lift-batch --lang lambda --jobs 4 examples/corpus/*.scm
    python -m repro lift-batch --jobs 4 --trace t.jsonl examples/corpus/*.scm
    python -m repro obs report t.jsonl
    python -m repro obs skips t.jsonl
    python -m repro desugar --lang pyret 'not true'
    python -m repro trace --lang lambda '(+ 1 (* 2 3))'
    python -m repro check my_rules.confection
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.confection import Confection
from repro.core.errors import ReproError
from repro.core.wellformed import DisjointnessMode
from repro.engine import events
from repro.engine.config import ON_BUDGET_POLICIES, LiftConfig
from repro.engine.registry import Backend, available_backends, get_backend
from repro.lang.textmemo import memo_printer

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resugaring: lift core evaluation sequences through "
        "syntactic sugar (PLDI 2014 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_program=True):
        p.add_argument(
            "--lang",
            choices=available_backends(),
            default="lambda",
            help="object language backend (default: lambda)",
        )
        p.add_argument(
            "--sugar",
            default=None,
            help="bundled sugar set (lambda: scheme/automaton/return; "
            "pyret: pyret); default: the backend's standard set",
        )
        p.add_argument(
            "--rules-file",
            default=None,
            help="a rule-DSL file to use instead of a bundled sugar set",
        )
        p.add_argument(
            "--transparent",
            action="store_true",
            help="mark recursive sugar invocations transparent (!)",
        )
        p.add_argument(
            "--op",
            choices=("naive", "object"),
            default="naive",
            help="pyret only: binary-operator desugaring (section 8.3)",
        )
        if with_program:
            p.add_argument("program", help="program text (or @file to read one)")

    def budgets(p, steps_help, seconds_help, on_budget_help):
        # Checked by LiftConfig in main(), as usage errors.
        p.add_argument("--max-steps", type=int, default=100_000, help=steps_help)
        p.add_argument("--max-seconds", type=float, default=None, help=seconds_help)
        p.add_argument(
            "--on-budget", choices=ON_BUDGET_POLICIES, default="raise",
            help=on_budget_help,
        )

    lift = sub.add_parser("lift", help="lift a surface evaluation sequence")
    common(lift)
    lift.add_argument(
        "--tree", action="store_true", help="lift a nondeterministic tree"
    )
    budgets(
        lift,
        "step budget (explored core nodes with --tree)",
        "wall-clock budget for the lift",
        "budget exhaustion policy: error out, or truncate the trace "
        "(default: raise)",
    )
    lift.add_argument(
        "--show-skipped",
        action="store_true",
        help="also print skipped core steps, marked with 'x'",
    )
    lift.add_argument(
        "--table",
        action="store_true",
        help="two-column core/surface view of every step",
    )
    lift.add_argument(
        "--html",
        metavar="FILE",
        default=None,
        help="write a standalone HTML trace report to FILE",
    )
    lift.add_argument(
        "--trace",
        metavar="FILE.jsonl",
        default=None,
        help="enable observability and write a JSONL span trace of the "
        "lift (span id/parent/name/attrs/duration per line) to FILE",
    )
    lift.add_argument(
        "--metrics",
        action="store_true",
        help="enable observability and print a JSON metrics snapshot "
        "(lift.steps_total, match.attempts, resugar.cache_hits, ...) "
        "after the lift",
    )
    lift.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persistent lift-cache directory: a repeated lift replays "
        "its recorded trace instead of re-stepping (see docs/caching.md)",
    )

    batch = sub.add_parser(
        "lift-batch",
        help="lift a corpus of programs across worker processes",
    )
    common(batch, with_program=False)
    batch.add_argument(
        "inputs",
        nargs="+",
        help="program files; by default each file is one program "
        "(--per-line reads one program per non-empty line instead)",
    )
    batch.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: CPU count; 1 = in-process)",
    )
    batch.add_argument(
        "--per-line",
        action="store_true",
        help="treat every non-empty, non-comment line of each input "
        "file as its own program",
    )
    budgets(
        batch,
        "per-job step budget",
        "per-job wall-clock budget",
        "per-job budget policy (raise surfaces as a job error; the batch "
        "always continues)",
    )
    batch.add_argument(
        "--metrics",
        action="store_true",
        help="collect per-worker metrics and print the aggregated "
        "JSON snapshot after the batch",
    )
    batch.add_argument(
        "--trace",
        metavar="FILE.jsonl",
        default=None,
        help="collect per-job span trees (with job/worker attribution "
        "and resugar provenance) and write the merged cross-process "
        "trace to FILE; analyze it with 'repro obs'",
    )
    batch.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persistent lift-cache directory shared by every worker",
    )
    batch.add_argument(
        "--chunk",
        type=int,
        default=None,
        help="jobs per pool submission (default: automatic; chunking "
        "amortizes pickling for large corpora of small jobs)",
    )

    obs = sub.add_parser(
        "obs",
        help="analyze a JSONL span trace written by lift/lift-batch",
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    for name, help_text in (
        ("report", "span totals, per-step outcomes, critical-path timing"),
        ("hot-rules", "per-rule expansion/unexpansion/failure table"),
        ("skips", "explain every skipped core step from its provenance"),
    ):
        obs_cmd = obs_sub.add_parser(name, help=help_text)
        obs_cmd.add_argument("trace_file", help="a JSONL trace file")
        obs_cmd.add_argument(
            "--strict",
            action="store_true",
            help="fail on a truncated final line instead of dropping it",
        )

    desugar = sub.add_parser("desugar", help="show a program's core form")
    common(desugar)
    desugar.add_argument(
        "--tags", action="store_true", help="show origin tags in the output"
    )

    trace = sub.add_parser("trace", help="show the raw core trace (no lifting)")
    common(trace)
    trace.add_argument("--max-steps", type=int, default=100_000)

    serve = sub.add_parser(
        "serve",
        help="run the resugaring server (HTTP + WebSocket lift sessions)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8750,
        help="bind port (default: 8750; 0 picks a free port)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="batch worker processes for /lift-batch (default: 1 = "
        "in-process; lift sessions always run on threads)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        default=64,
        help="concurrent session cap; excess requests get a 503 "
        "(default: 64)",
    )
    serve.add_argument(
        "--max-steps-cap",
        type=int,
        default=100_000,
        help="server-side cap clamped onto every request's step budget",
    )
    serve.add_argument(
        "--max-seconds-cap",
        type=float,
        default=30.0,
        help="server-side cap clamped onto every request's wall-clock "
        "budget (applies even when the request sets none; default: 30; "
        "0 disables the cap)",
    )
    serve.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persistent lift-cache directory shared by sessions and "
        "batch workers",
    )

    cache = sub.add_parser(
        "cache",
        help="inspect or empty a persistent lift-cache directory",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="per-tier entry counts and byte sizes, as JSON"
    )
    cache_stats.add_argument("cache_dir", help="a lift-cache directory")
    cache_clear = cache_sub.add_parser(
        "clear", help="delete every cache entry under the directory"
    )
    cache_clear.add_argument("cache_dir", help="a lift-cache directory")

    synth = sub.add_parser(
        "synth",
        help="synthesize desugaring rules from harvested (surface, core) "
        "examples, or fuzz the engine with perturbed candidate rules",
    )
    from repro.synth.cli import add_synth_arguments

    add_synth_arguments(synth)

    check = sub.add_parser("check", help="statically check a rule-DSL file")
    check.add_argument("rules_file")
    check.add_argument(
        "--disjointness",
        choices=[m.value for m in DisjointnessMode],
        default="strict",
    )
    check.add_argument(
        "--hygiene",
        action="store_true",
        help="also lint binder names against the %%-namespace convention",
    )
    return parser


def _read_program(arg: str) -> str:
    if arg.startswith("@"):
        with open(arg[1:]) as handle:
            return handle.read()
    return arg


def _build_confection(args) -> tuple[Confection, Backend]:
    backend = get_backend(args.lang)
    if args.rules_file:
        with open(args.rules_file) as handle:
            rules_source = handle.read()
        return Confection(rules_source, backend.make_stepper()), backend
    # Every backend's factories see the full option set and pick what
    # they understand (the registry contract) — so no flag can be
    # silently discarded by a language-specific override.
    options = {
        "transparent_recursion": args.transparent,
        "op_desugaring": args.op,
    }
    try:
        confection = backend.make_confection(args.sugar, **options)
    except ReproError as exc:
        raise SystemExit(str(exc))
    return confection, backend


def _print_budget_notice(event: events.BudgetExhausted) -> None:
    print(f"[truncated: {event.describe()}]", file=sys.stderr)


def _cmd_lift(args) -> int:
    confection, backend = _build_confection(args)
    if args.cache is not None:
        from repro.cache import LiftCache

        confection.cache = LiftCache(args.cache)
    obs_config = None
    if args.trace or args.metrics:
        from repro.obs import Observability

        obs_config = Observability(trace_path=args.trace)
        confection.obs = obs_config
    try:
        code = _run_lift(args, confection, backend)
    finally:
        if obs_config is not None:
            obs_config.close()
    if obs_config is not None:
        if args.metrics:
            import json

            print(json.dumps(obs_config.snapshot(), indent=2, sort_keys=True))
        if args.trace:
            print(f"wrote {args.trace}", file=sys.stderr)
    return code


def _run_lift(args, confection, backend) -> int:
    program = backend.parse(_read_program(args.program))
    if args.tree:
        return _cmd_lift_tree(args, confection, backend, program)
    if args.html or args.table:
        # These renderings need the whole trace; fold the stream.
        result = confection.lift(program, config=args.config)
        if args.html:
            from repro.viz import render_html

            with open(args.html, "w") as handle:
                handle.write(render_html(result, backend.pretty))
            print(f"wrote {args.html}", file=sys.stderr)
        else:
            from repro.viz import render_text

            print(render_text(result, backend.pretty))
        return 0

    # Streaming path: print surface steps as the engine produces them,
    # through one text memo for the whole sequence.
    pretty = memo_printer(backend.pretty)
    core = skipped = 0
    exhausted: Optional[events.BudgetExhausted] = None
    for event in confection.lift_events(program, args.config):
        if isinstance(event, events.CoreStepped):
            core += 1
        elif isinstance(event, events.SurfaceEmitted):
            line = (
                f"  {pretty(event.core_term)}"
                if args.show_skipped
                else pretty(event.surface_term)
            )
            print(line, flush=True)
        elif isinstance(event, events.StepSkipped):
            skipped += 1
            if args.show_skipped:
                print(f"x {pretty(event.core_term)}", flush=True)
        elif isinstance(event, events.Deduped):
            if args.show_skipped:
                print(f"= {pretty(event.core_term)}", flush=True)
        elif isinstance(event, events.BudgetExhausted):
            exhausted = event
    coverage = 1.0 - skipped / core if core else 1.0
    print(
        f"[{core} core steps, {skipped} skipped, coverage {coverage:.0%}]",
        file=sys.stderr,
    )
    if exhausted is not None:
        _print_budget_notice(exhausted)
    return 0


def _cmd_lift_tree(args, confection, backend, program) -> int:
    tree = confection.lift_tree(program, config=args.config)
    if tree.root is not None:
        stack = [(tree.root, 0)]
        while stack:
            node_id, depth = stack.pop()
            print("  " * depth + backend.pretty(tree.nodes[node_id]))
            stack.extend(
                (child, depth + 1) for child in reversed(tree.children(node_id))
            )
    print(
        f"[{tree.core_node_count} core states, "
        f"{tree.skipped_count} skipped]",
        file=sys.stderr,
    )
    if tree.truncated:
        print("[truncated: node or time budget exhausted]", file=sys.stderr)
    if tree.root is None:
        print(
            "no explored core state has a surface representation; "
            "nothing to display (try --show-skipped with a sequence "
            "lift, or check the sugar's transparency annotations)",
            file=sys.stderr,
        )
        return 1
    return 0


def _collect_batch_jobs(args, backend):
    """Read the input files into named LiftJobs (parse errors are
    usage errors and fail fast — fault isolation is for runtime
    faults, not malformed invocations)."""
    from repro.parallel import LiftJob

    jobs = []
    for path in args.inputs:
        with open(path) as handle:
            text = handle.read()
        if args.per_line:
            for lineno, line in enumerate(text.splitlines(), start=1):
                line = line.strip()
                if not line or line.startswith(";") or line.startswith("#"):
                    continue
                jobs.append(
                    LiftJob(
                        backend.parse(line),
                        name=f"{path}:{lineno}",
                        config=args.config,
                    )
                )
        else:
            jobs.append(
                LiftJob(backend.parse(text), name=path, config=args.config)
            )
    if not jobs:
        raise SystemExit("no programs found in the given inputs")
    return jobs


def _cmd_lift_batch(args) -> int:
    from repro.parallel import aggregate_metrics, lift_corpus_stream

    confection, backend = _build_confection(args)
    jobs = _collect_batch_jobs(args, backend)
    outcomes = []
    failed = 0
    interrupted = False
    try:
        for outcome in lift_corpus_stream(
            (confection.rules, confection.stepper),
            jobs,
            jobs=args.jobs,
            payload="rendered",
            pretty=backend.pretty,
            collect_metrics=args.metrics,
            collect_spans=args.trace is not None,
            cache_dir=args.cache,
            chunk=args.chunk,
        ):
            outcomes.append(outcome)
            name = jobs[outcome.job_index].name
            if isinstance(outcome, events.JobError):
                failed += 1
                print(
                    f"== job {outcome.job_index}: {name} FAILED ==",
                    flush=True,
                )
                print(
                    f"{outcome.error_type}: {outcome.error_message}",
                    file=sys.stderr,
                )
                continue
            print(f"== job {outcome.job_index}: {name} ==", flush=True)
            for line in outcome.rendered:
                print(line, flush=True)
    except KeyboardInterrupt:
        # Graceful shutdown: the stream's finally block has already
        # cancelled the queued tail and the pool teardown reaped the
        # workers; report the partial results and exit with the
        # conventional SIGINT code.
        interrupted = True
    print(
        f"[{len(outcomes)}/{len(jobs)} jobs, {failed} failed, "
        f"jobs={args.jobs if args.jobs is not None else 'auto'}"
        + (", interrupted" if interrupted else "")
        + "]",
        file=sys.stderr,
    )
    if args.metrics:
        import json

        print(json.dumps(aggregate_metrics(outcomes), indent=2, sort_keys=True))
    if args.trace is not None:
        from repro.obs import write_trace
        from repro.parallel import aggregate_trace

        count = write_trace(aggregate_trace(outcomes), args.trace)
        print(f"wrote {args.trace} ({count} spans)", file=sys.stderr)
    if interrupted:
        return 130
    return 1 if failed else 0


def _cmd_obs(args) -> int:
    from repro.obs import analyze, read_trace

    try:
        records = read_trace(
            args.trace_file, tolerate_truncation=not args.strict
        )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.obs_command == "report":
        print(analyze.format_report(analyze.summarize(records)))
    elif args.obs_command == "hot-rules":
        print(analyze.format_hot_rules(analyze.hot_rules(records)))
    else:  # skips
        core_steps = sum(1 for r in records if r["name"] == "lift.step")
        print(
            analyze.format_skips(analyze.skip_report(records), core_steps)
        )
    return 0


def _cmd_desugar(args) -> int:
    confection, backend = _build_confection(args)
    core = confection.desugar(backend.parse(_read_program(args.program)))
    if args.tags:
        from repro.lang.render import render

        print(render(core, show_tags=True))
    else:
        print(backend.pretty(core))
    return 0


def _cmd_trace(args) -> int:
    confection, backend = _build_confection(args)
    core = confection.desugar(backend.parse(_read_program(args.program)))
    stepper = confection.stepper
    state = stepper.load(core)
    for _ in range(args.max_steps):
        print(backend.pretty(stepper.term(state)))
        successors = stepper.step(state)
        if not successors:
            return 0
        if len(successors) > 1:
            print("[nondeterministic branch; use lift --tree]", file=sys.stderr)
            return 1
        state = successors[0]
    print(f"[stopped after {args.max_steps} steps]", file=sys.stderr)
    return 1


def _cmd_check(args) -> int:
    from repro.lang.rule_parser import parse_rulelist

    with open(args.rules_file) as handle:
        source = handle.read()
    mode = DisjointnessMode(args.disjointness)
    rules = parse_rulelist(source, mode)
    print(
        f"ok: {len(rules)} rule(s), labels: "
        + ", ".join(sorted(rules.labels))
    )
    if args.hygiene:
        from repro.core.hygiene import lint_hygiene

        warnings = lint_hygiene(rules)
        for warning in warnings:
            print(f"hygiene: {warning}", file=sys.stderr)
        if any(w.kind == "capturable-binder" for w in warnings):
            return 2
    return 0


def _cmd_synth(args) -> int:
    from repro.synth.cli import run_synth

    return run_synth(args)


def _cmd_cache(args) -> int:
    import json

    from repro.cache import CacheStore

    store = CacheStore(args.cache_dir)
    if args.cache_command == "stats":
        print(json.dumps(store.scan(), indent=2, sort_keys=True))
        return 0
    removed = store.clear()
    print(f"removed {removed} cache file(s) from {args.cache_dir}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.server import ReproServer, ServerLimits

    async def run() -> None:
        server = ReproServer(
            args.host,
            args.port,
            jobs=args.jobs,
            max_sessions=args.max_sessions,
            limits=ServerLimits(
                max_steps_cap=args.max_steps_cap,
                # 0 (or negative) disables the wall-clock cap entirely;
                # uncapped sessions are whole-lift cacheable.
                max_seconds_cap=(
                    args.max_seconds_cap
                    if args.max_seconds_cap > 0
                    else None
                ),
            ),
            cache_dir=args.cache,
        )
        async with server:
            print(
                f"serving on http://{server.host}:{server.port} "
                f"(max {args.max_sessions} sessions, "
                f"{args.jobs} batch worker(s))",
                file=sys.stderr,
                flush=True,
            )
            try:
                await server.serve_forever()
            except asyncio.CancelledError:
                pass

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        # Graceful: asyncio.run cancels serve_forever and the context
        # manager drains live sessions before the process exits.
        print("shutting down", file=sys.stderr)
        return 130
    return 0


def _lift_config(args) -> LiftConfig:
    """The one LiftConfig of a ``lift`` / ``lift-batch`` invocation;
    ``trace`` builds one too, so its ``--max-steps`` is checked alike."""
    return LiftConfig(
        mode="tree" if getattr(args, "tree", False) else "sequence",
        max_steps=args.max_steps,
        max_seconds=getattr(args, "max_seconds", None),
        on_budget=getattr(args, "on_budget", "raise"),
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("lift", "lift-batch", "trace"):
        try:
            args.config = _lift_config(args)
        except ValueError as exc:
            parser.error(str(exc))  # a usage error: exit status 2
    handlers = {
        "lift": _cmd_lift,
        "lift-batch": _cmd_lift_batch,
        "obs": _cmd_obs,
        "desugar": _cmd_desugar,
        "trace": _cmd_trace,
        "check": _cmd_check,
        "serve": _cmd_serve,
        "synth": _cmd_synth,
        "cache": _cmd_cache,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
