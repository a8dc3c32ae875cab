"""The correctness gate: golden traces, cross-path identity, known defects.

Every workload replays ``tests/golden/*.trace`` through its own path —
in-process lifting, the warm pool, or the server wire — and compares the
rendered steps with the hand-checked expected sequences.  Each workload
also compares a seeded sample of its own outputs with the in-process
rendering, so the three paths are held byte-identical pairwise.  Any
mismatch is a failed operation and makes the run exit non-zero.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from perfbench.common import GOLDEN, Outcomes

# Golden ``# sugar:`` name -> (backend, sugar set, factory options,
# the same selection as ``/lift`` request fields or None when the
# protocol cannot express it).
GOLDEN_CONFIGS = {
    "scheme": ("lambda", "scheme", {}, {}),
    "scheme-transparent": (
        "lambda", "scheme", {"transparent_recursion": True},
        {"transparent": True},
    ),
    "return": ("lambda", "return", {}, {}),
    "automaton": ("lambda", "automaton", {}, {}),
    "pyret": ("pyret", "pyret", {}, {}),
    "pyret-object": (
        "pyret", "pyret", {"op_desugaring": "object"}, {"op": "object"}
    ),
    "pyret-datatype": ("pyret", "pyret", {"with_datatype": True}, None),
}


@dataclass(frozen=True)
class Golden:
    name: str
    sugar: str
    program: str
    trace: List[str]
    options: Dict[str, str]

    @property
    def lift_kwargs(self) -> dict:
        kwargs: dict = {}
        if "max_steps" in self.options:
            kwargs["max_steps"] = int(self.options["max_steps"])
        if "on_budget" in self.options:
            kwargs["on_budget"] = self.options["on_budget"]
        return kwargs

    def request(self) -> Optional[dict]:
        """The ``/lift`` body for this trace, or None if the wire
        protocol cannot select its sugar configuration."""
        lang, sugar, _options, fields = GOLDEN_CONFIGS[self.sugar]
        if fields is None:
            return None
        body = {"program": self.program, "lang": lang, "sugar": sugar}
        body.update(fields)
        body["on_budget"] = self.options.get("on_budget", "raise")
        if "max_steps" in self.options:
            body["max_steps"] = int(self.options["max_steps"])
        return body


def load_golden() -> List[Golden]:
    """Parse every golden trace (format: ``tests/test_golden_traces.py``)."""
    goldens = []
    for path in sorted(Path(GOLDEN).glob("*.trace")):
        lines = path.read_text().splitlines()
        sugar = lines[0][len("# sugar: "):]
        at = 1
        options: Dict[str, str] = {}
        if lines[at].startswith("# options: "):
            options = dict(
                part.split("=", 1)
                for part in lines[at][len("# options: "):].split()
            )
            at += 1
        trace_at = lines.index("# trace:")
        stats_at = next(
            i for i, line in enumerate(lines) if line.startswith("# stats:")
        )
        goldens.append(
            Golden(
                path.stem,
                sugar,
                "\n".join(lines[at + 1 : trace_at]),
                lines[trace_at + 1 : stats_at],
                options,
            )
        )
    if not goldens:
        raise FileNotFoundError(f"no golden traces under {GOLDEN}")
    return goldens


def golden_confection(golden: Golden):
    from repro.engine.registry import get_backend

    lang, sugar, options, _fields = GOLDEN_CONFIGS[golden.sugar]
    backend = get_backend(lang)
    return backend.make_confection(sugar, **options), backend


def render_lift(confection, backend, program: str, **kwargs) -> List[str]:
    """What ``repro lift`` prints for ``program``: every shown step."""
    from repro.engine.events import SurfaceEmitted

    return [
        backend.pretty(event.surface_term)
        for event in confection.lift_stream(backend.parse(program), **kwargs)
        if isinstance(event, SurfaceEmitted)
    ]


def golden_in_process(outcomes: Outcomes) -> None:
    for golden in load_golden():
        confection, backend = golden_confection(golden)
        try:
            shown = render_lift(
                confection, backend, golden.program, **golden.lift_kwargs
            )
        except Exception as exc:  # noqa: BLE001 — reported as a failure
            outcomes.fail(f"golden {golden.name}: {type(exc).__name__}: {exc}")
            continue
        outcomes.check(
            shown == golden.trace, f"golden {golden.name}: in-process trace differs"
        )


def golden_pool(pool, backend, sugar: str, outcomes: Outcomes) -> None:
    """Replay the goldens whose configuration is the pool's own."""
    from repro.engine.events import JobError
    from repro.parallel import LiftJob

    goldens = [g for g in load_golden() if g.sugar == sugar]
    jobs = [
        LiftJob(backend.parse(g.program), name=g.name, **g.lift_kwargs)
        for g in goldens
    ]
    for golden, outcome in zip(goldens, pool.run(jobs)):
        if isinstance(outcome, JobError):
            outcomes.fail(f"golden {golden.name}: pool {outcome.error_type}")
            continue
        outcomes.check(
            list(outcome.rendered) == golden.trace,
            f"golden {golden.name}: pool trace differs",
        )


def golden_wire(server, outcomes: Outcomes) -> None:
    """Replay every protocol-expressible golden over ``/lift``."""
    for golden in load_golden():
        body = golden.request()
        if body is None:
            continue
        record = server.lift(body)
        outcomes.check(
            record.error is None
            and record.terminal is not None
            and record.terminal["type"] in ("halted", "budget")
            and record.texts == golden.trace,
            f"golden {golden.name}: wire trace differs ({record.error})",
        )


def same_as_in_process(
    engines, samples, outcomes: Outcomes, path: str, **kwargs
) -> None:
    """``samples`` is ``[(Program, rendered texts)]`` from another path;
    each must equal the in-process rendering byte for byte."""
    from repro.engine.registry import get_backend

    for program, texts in samples:
        expected = render_lift(
            engines[program.lang], get_backend(program.lang), program.text,
            **kwargs,
        )
        outcomes.check(
            list(texts) == expected,
            f"{path} output differs from in-process for {program.text[:60]}",
        )


def known_defect() -> List[str]:
    """The pyret ``len`` emulation-fuel defect, reported but never
    counted as a failure: the line flips when a fix lands."""
    from repro.engine.registry import get_backend
    from perfbench.programs import pyret_len

    backend = get_backend("pyret")
    confection = backend.make_confection()
    program = pyret_len(100).text
    started = time.perf_counter()
    try:
        steps = len(render_lift(confection, backend, program))
        status = f"FIXED: lifts with {steps} shown steps"
    except Exception as exc:  # noqa: BLE001 — the defect under watch
        status = f"still failing: {type(exc).__name__}: {exc}"
    return [
        "known defect: pyret len over a 100-element list "
        "(generator caps at 80); default lift "
        f"{status} ({time.perf_counter() - started:.1f}s)",
        "  reproducer: python -m repro lift --lang pyret "
        + json.dumps(program),
    ]
