"""The benchmark's metric catalogue: names, units, direction, and what moves what.

``BENCHMARK.json`` at the repository root lists the same names and units; the
self-test (``selftest.py``) fails when the two drift apart.  ``MOVES`` records,
for every per-layer metric, which end-to-end metrics it is expected to move
and on which workloads -- written down before any optimisation is measured.
"""

from __future__ import annotations

WORKLOADS = ("apsp-ladder", "apsp-mesh", "serve-churn")
APSP = ("apsp-ladder", "apsp-mesh")

#: (name, unit, better, bound) of every end-to-end metric (``--trace 0``).
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("cold_apsp_s", "s", "lower", 0.25),
    ("warm_apsp_s", "s", "lower", 0.25),
    ("sssp_s", "s", "lower", 0.25),
    ("rounds", "rounds", "lower", 0.1),
    ("serve_qps", "1/s", "higher", 0.25),
    ("serve_p50_ms", "ms", "lower", 0.25),
    ("serve_p95_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: (name, unit, better) of every per-layer metric (``--trace 1``).  Seconds
#: are self time (span time minus child spans) per op; counts are per op.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("graphs.hop_limited_s", "s", "lower"),
    ("graphs.hop_diameter_s", "s", "lower"),
    ("graphs.knowledge_finite_share", "ratio", "lower"),
    ("localnet.explore_s", "s", "lower"),
    ("core.skeleton_s", "s", "lower"),
    ("core.skeleton_size", "nodes", "lower"),
    ("core.hop_length", "hops", "lower"),
    ("core.h_over_D", "ratio", "lower"),
    ("core.publish_s", "s", "lower"),
    ("core.apsp_self_s", "s", "lower"),
    ("core.routing_s", "s", "lower"),
    ("core.routing_tokens", "count", "lower"),
    ("core.clique_sim_s", "s", "lower"),
    ("core.repair_s", "s", "lower"),
    ("core.repair_share", "ratio", "higher"),
    ("hybrid.exchange_s", "s", "lower"),
    ("hybrid.global_rounds", "count", "lower"),
    ("hybrid.messages", "count", "lower"),
    ("util.hash_s", "s", "lower"),
    ("util.hash_calls", "count", "lower"),
    ("session.self_s", "s", "lower"),
    ("session.context_hits", "count", "higher"),
    ("session.context_misses", "count", "lower"),
    ("session.preprocessing_rounds", "rounds", "lower"),
    ("serving.queue_wait_ms", "ms", "lower"),
    ("serving.pass_s", "s", "lower"),
    ("serving.busy_share", "ratio", "lower"),
    ("serving.queries_per_pass", "count", "higher"),
)

#: Per-layer metric -> ((end-to-end metrics it should move), (workloads)).
MOVES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "graphs.hop_limited_s": (("cold_apsp_s", "serve_p95_ms"), WORKLOADS),
    "graphs.hop_diameter_s": (("cold_apsp_s", "serve_p95_ms"), WORKLOADS),
    "graphs.knowledge_finite_share": ((), WORKLOADS),
    "localnet.explore_s": (("cold_apsp_s",), APSP),
    "core.skeleton_s": (("cold_apsp_s",), APSP),
    "core.skeleton_size": (("warm_apsp_s", "rounds"), WORKLOADS),
    "core.hop_length": (("cold_apsp_s", "rounds"), WORKLOADS),
    "core.h_over_D": ((), WORKLOADS),
    "core.publish_s": (("cold_apsp_s",), APSP),
    "core.apsp_self_s": (("warm_apsp_s", "cold_apsp_s", "peak_rss_mb"), APSP),
    "core.routing_s": (("warm_apsp_s",), APSP),
    "core.routing_tokens": (("warm_apsp_s",), APSP),
    "core.clique_sim_s": (("sssp_s", "serve_qps", "serve_p50_ms"), WORKLOADS),
    "core.repair_s": (("serve_p95_ms",), ("serve-churn",)),
    "core.repair_share": (("serve_p95_ms",), ("serve-churn",)),
    "hybrid.exchange_s": (("warm_apsp_s", "serve_qps"), WORKLOADS),
    "hybrid.global_rounds": (("warm_apsp_s", "serve_qps"), WORKLOADS),
    "hybrid.messages": (("warm_apsp_s", "serve_qps"), WORKLOADS),
    "util.hash_s": (("warm_apsp_s",), APSP),
    "util.hash_calls": (("warm_apsp_s",), APSP),
    "session.self_s": (("cold_apsp_s", "warm_apsp_s"), WORKLOADS),
    "session.context_hits": (("serve_p95_ms",), ("serve-churn",)),
    "session.context_misses": (("serve_p95_ms",), ("serve-churn",)),
    "session.preprocessing_rounds": (("serve_p95_ms", "rounds"), ("serve-churn",)),
    "serving.queue_wait_ms": (("serve_p50_ms", "serve_p95_ms", "serve_qps"), ("serve-churn",)),
    "serving.pass_s": (("serve_p50_ms", "serve_p95_ms", "serve_qps"), ("serve-churn",)),
    "serving.busy_share": (("serve_p50_ms", "serve_p95_ms", "serve_qps"), ("serve-churn",)),
    "serving.queries_per_pass": (("serve_p50_ms", "serve_p95_ms", "serve_qps"), ("serve-churn",)),
}


def units(trace: bool) -> dict[str, str]:
    """Metric name -> unit for one run mode."""
    if trace:
        return {name: unit for name, unit, _ in PER_LAYER}
    return {name: unit for name, unit, _, _ in END_TO_END}
