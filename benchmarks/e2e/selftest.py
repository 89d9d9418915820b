"""Self-test of the end-to-end benchmark at tiny n (a few seconds).

Run from the repository root::

    python3 benchmarks/e2e/selftest.py

It checks that the metric catalogue matches ``BENCHMARK.json``, that traced
runs give every per-layer metric with correctly nested spans whose self times
add up to each op's wall time within the op's reported tracing overhead, and
that the answer checks flag planted wrong distances.  Exits non-zero on the
first failed group, listing every failure.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
TINY = {"ladder_columns": 48, "mesh_nodes": 96, "serve_columns": 24, "setup_repeats": 2}


def check_catalogue(failures: list[str]) -> None:
    """Names and units in metrics.py equal those in BENCHMARK.json."""
    from metrics import END_TO_END, MOVES, PER_LAYER, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from metrics.WORKLOADS")
    declared = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    if declared != list(END_TO_END):
        failures.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    declared_layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared_layers != list(PER_LAYER):
        failures.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    if set(MOVES) != {name for name, _, _ in PER_LAYER}:
        failures.append("metrics.MOVES does not cover exactly the per-layer metrics")


def check_traced_runs(failures: list[str]) -> None:
    """Traced runs report every per-layer metric; spans nest and add up."""
    import workloads
    from metrics import PER_LAYER, units

    scale = workloads.Scale(**TINY)
    for name in ("apsp-ladder", "apsp-mesh", "serve-churn"):
        for trace in (False, True):
            if name == "serve-churn":
                outcome = workloads.run_serve(5, 2.0, trace, scale)
            else:
                outcome = workloads.run_apsp(name, 5, 1.0, trace, scale)
            expected = set(units(trace)) - ({"setup_s"} if trace else set())
            missing = expected - set(outcome.metrics)
            if missing:
                failures.append(f"{name} trace={trace}: missing metrics {sorted(missing)}")
            if outcome.problems:
                failures.append(f"{name} trace={trace}: unexpected problems {outcome.problems[:3]}")
            if sum(outcome.failed.values()):
                failures.append(f"{name} trace={trace}: failed ops {outcome.failed}")
            if name == "serve-churn" and "shortest_paths_probe_error" not in outcome.record:
                failures.append(f"{name} trace={trace}: no shortest-paths probe outcome")
            if not trace:
                zero = [key for key in expected if not outcome.metrics.get(key)]
                if zero:
                    failures.append(f"{name}: end-to-end metrics read 0: {zero}")
                continue
            if len(outcome.metrics) != len(PER_LAYER):
                failures.append(f"{name}: traced run gives {len(outcome.metrics)} metrics")
            trace_record = outcome.record["trace"]
            if trace_record["nesting_errors"]:
                failures.append(f"{name}: {trace_record['nesting_errors'][:3]}")
            if trace_record["missing_targets"]:
                failures.append(f"{name}: untraced targets {trace_record['missing_targets']}")
            rows = trace_record.get("per_op_additivity")
            if not rows:
                failures.append(f"{name}: the trace record has no per-op additivity")
            for op in rows or []:
                if not 0 <= op["gap_s"] <= op["overhead_s"]:
                    failures.append(
                        f"{name}: op {op['op']} self times miss the wall time by "
                        f"{op['gap_s']:.3g} s, more than its tracing overhead "
                        f"{op['overhead_s']:.3g} s"
                    )


def check_planted_errors(failures: list[str]) -> None:
    """Each checker flags a planted wrong distance and passes the true answer."""
    import random

    import numpy as np
    import workloads
    from checks import check_apsp, check_diameter, check_sssp, matrix_digest, reference_matrix

    graph = workloads.ladder_graph(12, random.Random(3))
    truth = reference_matrix(graph)
    planted = truth.copy()
    planted[2, 17] += 1
    diameter = float(truth.max())
    outcomes = {
        "check_apsp": (
            check_apsp(matrix_digest(truth), truth, "apsp"),
            check_apsp(matrix_digest(planted), truth, "apsp"),
        ),
        "check_sssp": (
            check_sssp(truth[2], truth[2], "sssp"),
            check_sssp(planted[2], truth[2], "sssp"),
        ),
        "check_diameter": (
            check_diameter(diameter, 1.5, diameter, "diameter"),
            check_diameter(diameter - 1, 1.5, diameter, "diameter"),
        ),
    }
    for name, (clean, flagged) in outcomes.items():
        if clean or not flagged:
            failures.append(f"{name} does not separate the true answer from a planted error")

    # A served window: a wrong response of each kind the checks can tell apart.
    scale = workloads.Scale(**TINY)
    session = workloads.HybridSession(
        workloads.ladder_graph(scale.serve_columns, random.Random(0), 1), workloads.ModelConfig()
    )
    session.apsp()
    window = asyncio.run(workloads.serve_window(session, 1.0, 5, scale, None))
    problems, _, _ = workloads.check_window(window)
    if problems:
        failures.append(f"clean serving window reported {problems[:3]}")
    plants = {
        "sssp": lambda answer: answer + np.eye(1, answer.size, answer.size - 1),
        "apsp": lambda answer: "0" * 8,
        "diameter": lambda answer: answer - 1,
    }
    for kind, plant in plants.items():
        served = next(q for q in window.queries if q.kind == kind and q.error is None)
        true_answer = served.answer
        served.answer = plant(true_answer)
        problems, _, _ = workloads.check_window(window)
        served.answer = true_answer
        if not any(served.request["id"] in problem for problem in problems):
            failures.append(f"check_window missed a planted wrong {kind} response")


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: run from a checkout with src/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    failures: list[str] = []
    for group in (check_catalogue, check_planted_errors, check_traced_runs):
        group(failures)
        print(f"{group.__name__}: {'FAIL' if failures else 'ok'}")
        if failures:
            for failure in failures:
                print(f"  {failure}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
