"""Shared plumbing: the checkout layout, statistics, memory, outcomes."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
# Scratch space for cache directories and server logs; inside the
# checkout (the benchmark reads and writes nowhere else) and ignored by git.
SCRATCH = ROOT / ".bench_tmp"
# Programs of each run replayed by the traced run, and outputs of each run
# compared byte for byte with the in-process rendering.
TRACE_PROGRAMS = 24
SAMPLE_PROGRAMS = 8


def load_config() -> dict:
    return json.loads((HERE / "config.json").read_text())


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, failed server)."""


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))


def fresh_dir(name: str) -> Path:
    path = SCRATCH / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def median(values: Iterable[float]) -> float:
    return percentile(list(values), 50)


def p90_supported(values: List[float]) -> bool:
    """A p90 needs ten samples beyond it."""
    return len(values) - math.ceil(0.9 * len(values)) >= 10


def self_peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def proc_peak_rss_mib(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise SetupError(f"no VmHWM for pid {pid}")


class Outcomes:
    """Operations attempted and failed, with the first few failures kept
    for the report (any failure makes the run incorrect)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, note: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def check(self, condition: bool, note: str) -> bool:
        if condition:
            self.attempted += 1
        else:
            self.fail(note)
        return condition


class Result:
    """What one run reports: outcomes, metrics, and human-readable lines."""

    def __init__(self) -> None:
        self.outcomes = Outcomes()
        self.metrics: dict = {}
        self.lines: List[str] = []
        # (program, lift kwargs) pairs for the traced layer replay
        self.replay: list = []


class Clock:
    """``perf_counter`` with a deadline."""

    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.deadline = self.start + seconds

    def left(self) -> float:
        return self.deadline - time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def latency_metrics(name: str, samples_s: List[float]) -> dict:
    """``name.p50`` / ``name.p90`` in milliseconds from seconds."""
    ms = [s * 1000 for s in samples_s]
    return {
        f"{name}.p50": metric(percentile(ms, 50), "ms"),
        f"{name}.p90": metric(percentile(ms, 90), "ms"),
    }
