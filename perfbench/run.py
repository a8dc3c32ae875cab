"""The repository benchmark: one command, four workloads.

    python3 perfbench/run.py --workload lift_cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's inputs are generated
from ``--seed``; the run measures for ``--seconds``, checks every output
(the correctness gate in ``gate.py``), prints human-readable lines, and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics (from a replay that times each layer's public functions) with
``--trace 1``.  Any wrong output makes the exit code 1; a checkout that
cannot run the benchmark exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import SetupError, load_config, use_checkout_sources  # noqa: E402

WORKLOADS = ("lift_cold", "batch_cold", "serve_cold", "serve_hot")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from perfbench import inproc, layers, serve

    cfg = load_config()
    if name == "lift_cold":
        result = inproc.lift_cold(cfg, seed, seconds, trace)
    elif name == "batch_cold":
        result = inproc.batch_cold(cfg, seed, seconds, trace)
    else:
        result = serve.serve_workload(name, cfg, seed, seconds, trace)
    if trace:
        result.metrics = layers.replay(
            result.replay, result.outcomes, result.lines, name
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout_sources()
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except (SetupError, ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    for line in result.lines:
        print(line)
    for note in result.outcomes.notes:
        print(f"FAILED: {note}")
    outcomes = result.outcomes
    correct = outcomes.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcomes.attempted,
                "failed": outcomes.failed,
                "metrics": result.metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
