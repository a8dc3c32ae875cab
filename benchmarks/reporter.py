"""Machine-readable benchmark reporting: ``BENCH_lift.json``.

Benchmarks record measurements through the module-level
:data:`REPORTER`; a session-scoped fixture in ``conftest.py`` writes the
accumulated payload to ``BENCH_lift.json`` at the repo root when the
pytest session ends (only if something was recorded).  The file is
committed, so performance changes show up in review diffs and CI can
validate the numbers without parsing pytest output.

Schema (``repro-bench-lift/1``)::

    {
      "schema": "repro-bench-lift/1",
      "generated": "<ISO 8601>",
      "python": "3.11.7", "implementation": "CPython", "platform": "...",
      "workloads": {
        "<name>": {"core_steps": ..., "naive_seconds": ...,
                   "incremental_seconds": ..., "speedup": ...,
                   "incremental_steps_per_sec": ...,
                   "resugar_calls_saved": ..., "resugar_hit_rate": ...,
                   ...}
      }
    }

Workload field sets vary by benchmark; :func:`validate` checks only the
envelope plus per-workload sanity (numeric values, non-empty).
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict

__all__ = [
    "BenchReporter",
    "REPORTER",
    "SERVE_REPORTER",
    "DEFAULT_PATH",
    "SERVE_PATH",
    "SCHEMA",
    "SERVE_SCHEMA",
    "validate",
    "summarize",
]

DEFAULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_lift.json"
SCHEMA = "repro-bench-lift/1"
SERVE_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
SERVE_SCHEMA = "repro-bench-serve/1"


def _git_revision() -> str:
    """The repo's short HEAD revision, or ``"unknown"`` outside a git
    checkout (e.g. an unpacked source archive)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    revision = out.stdout.strip()
    return revision if out.returncode == 0 and revision else "unknown"


class BenchReporter:
    """Accumulates named workload measurements and serializes them."""

    def __init__(
        self, path: Path = DEFAULT_PATH, schema: str = SCHEMA
    ) -> None:
        self.path = Path(path)
        self.schema = schema
        self._workloads: Dict[str, Dict[str, Any]] = {}

    def record(self, workload: str, **fields: Any) -> None:
        """Merge ``fields`` into ``workload``'s entry (later wins)."""
        self._workloads.setdefault(workload, {}).update(fields)

    def record_metrics(
        self, workload: str, snapshot: Dict[str, Any], prefix: str = "metrics."
    ) -> None:
        """Record an observability metrics snapshot
        (:func:`repro.obs.metrics_snapshot`) under ``workload``.

        Nested histogram snapshots are flattened to dotted scalar keys
        (``metrics.desugar.depth.count``, ``....buckets.le_8``, ...) so
        the report stays scalar-only and :func:`validate` keeps passing.
        """
        flat: Dict[str, Any] = {}

        def flatten(prefix_: str, value: Any) -> None:
            if isinstance(value, dict):
                for key, sub in value.items():
                    flatten(f"{prefix_}.{key}", sub)
            else:
                flat[prefix_] = value

        for name, value in snapshot.items():
            flatten(prefix + name, value)
        self.record(workload, **flat)

    @property
    def dirty(self) -> bool:
        return bool(self._workloads)

    def payload(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "generated": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "git_revision": _git_revision(),
            "workloads": dict(sorted(self._workloads.items())),
        }

    def write(self) -> Path:
        self.path.write_text(json.dumps(self.payload(), indent=2) + "\n")
        return self.path


def summarize(samples, digits: int = 4) -> Dict[str, float]:
    """Median, min and interquartile range of repeated measurements
    (at least 5, so the quartiles mean something)."""
    if len(samples) < 5:
        raise ValueError(f"need >= 5 repeats, got {len(samples)}")
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {
        "median": round(statistics.median(samples), digits),
        "min": round(min(samples), digits),
        "iqr": round(q3 - q1, digits),
    }


REPORTER = BenchReporter()

#: The serving load test writes ``BENCH_serve.json`` — same envelope,
#: its own schema tag, flushed by the same session fixture.
SERVE_REPORTER = BenchReporter(SERVE_PATH, SERVE_SCHEMA)


def validate(payload: Dict[str, Any], schema: str = SCHEMA) -> None:
    """Raise ``ValueError`` if ``payload`` is not a well-formed report.

    Used by the CI benchmark smoke job (and tests) to guarantee the
    committed ``BENCH_lift.json`` stays machine-readable.
    """
    if not isinstance(payload, dict):
        raise ValueError("report must be a JSON object")
    if payload.get("schema") != schema:
        raise ValueError(f"unexpected schema: {payload.get('schema')!r}")
    for key in ("generated", "python", "implementation", "platform",
                "git_revision"):
        if not isinstance(payload.get(key), str) or not payload[key]:
            raise ValueError(f"missing or empty field: {key!r}")
    workloads = payload.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        raise ValueError("report has no workloads")
    for name, fields in workloads.items():
        if not isinstance(fields, dict) or not fields:
            raise ValueError(f"workload {name!r} has no measurements")
        for field_name, value in fields.items():
            if not isinstance(value, (int, float, str, bool)):
                raise ValueError(
                    f"workload {name!r} field {field_name!r} is not scalar"
                )
