"""End-to-end benchmark of the HYBRID shortest-paths simulator.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload apsp-ladder --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see README.md beside this file).  The last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; a
run record (graph statistics, versions, warnings, per-kind counts, trace
tables) and, for traced runs, a Chrome trace are written under
``benchmarks/e2e/out/``.  The exit status is non-zero when any answer is
wrong or any query fails.  serve-churn leaves ``shortest-paths`` requests
out of its timed mix, because the server answers every one with
``internal``; each run serves one outside the timed part and records the
outcome under ``known_defects``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import sys
import time
import warnings
from collections import Counter
from typing import Any

STARTED = time.perf_counter()
HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("apsp-ladder", "apsp-mesh", "serve-churn")


def hash_seed(seed: int) -> str:
    """The ``PYTHONHASHSEED`` a run uses: derived from ``--seed``.

    Processes normally hash strings in a random order.  Deriving the order
    from the seed lets a set of runs over several seeds sample it, as
    production processes would, while one seed still repeats its run.
    """
    return str(seed % 2**32)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _count_warnings() -> Counter:
    """Count every Python warning by source location instead of printing it."""
    counts: Counter = Counter()

    def record(message, category, filename, lineno, file=None, line=None) -> None:
        path = pathlib.Path(filename)
        parts = path.parts
        where = "/".join(parts[parts.index("src") + 1 :]) if "src" in parts else path.name
        counts[f"{where}:{lineno}: {category.__name__}: {message}"] += 1

    warnings.showwarning = record
    warnings.simplefilter("always")
    return counts


def main(argv: list[str]) -> int:
    args = _parse(argv)
    wanted = hash_seed(args.seed)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        environment = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable, [sys.executable, __file__, *argv], environment)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    warning_counts = _count_warnings()

    import numpy
    import scipy
    import workloads
    from metrics import units

    workloads.warm_up_process()
    warm_up_s = time.perf_counter() - STARTED

    scale = workloads.Scale()
    if args.workload == "serve-churn":
        outcome = workloads.run_serve(args.seed, args.seconds, bool(args.trace), scale)
    else:
        outcome = workloads.run_apsp(
            args.workload, args.seed, args.seconds, bool(args.trace), scale
        )
    if not args.trace:
        outcome.metrics["setup_s"] += warm_up_s

    record: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "python_hash_seed": wanted,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": outcome.metrics,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "process_warm_up_s": warm_up_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
        },
        "warnings": dict(warning_counts.most_common()),
        **outcome.record,
    }
    chrome = record.pop("chrome_trace", None)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if chrome is not None:
        (out / f"{stem}.chrome.json").write_text(json.dumps(chrome) + "\n")

    names = units(bool(args.trace))
    missing = sorted(set(names) - set(outcome.metrics))
    if missing:
        outcome.problems.append(f"metrics not measured: {', '.join(missing)}")
    for problem in outcome.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for defect in outcome.record.get("known_defects", []):
        print(f"known defect: {defect}", file=sys.stderr)
    for name, unit in names.items():
        print(f"{name:34s} {outcome.metrics.get(name, float('nan')):14.6g} {unit}")
    print(f"attempted {outcome.attempted}  failed {outcome.failed}")
    print(f"record    {out / (stem + '.json')}")
    correct = not outcome.problems
    result = {
        "correct": correct,
        "attempted": sum(outcome.attempted.values()),
        "failed": sum(outcome.failed.values()),
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in names.items()
            if name in outcome.metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
