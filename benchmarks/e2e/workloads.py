"""Inputs, timed loops and answer checks of the three benchmark workloads.

* ``apsp-ladder`` -- a 2 x 1024 ladder with random weights 1..8 (n = 2048,
  D = 1024, h = 259): the paper's regime, where the exploration knows under
  half of the distance matrix and the skeleton, routing and combine work.
* ``apsp-mesh`` -- the weighted locality mesh (a ring where each node links to
  its two nearest IDs, plus 1% random long links, weights 1..8; n = 1024,
  D = 136, h = 167): the same ops, but h >= D, so the exploration already
  knows every distance.  A density-dependent optimisation must win on the
  ladder and hold still here.  The mesh is half the ladder's n because its
  cold APSP costs about three times as much per node pair: at n = 2048 a run
  would hold two or three ops.
* ``serve-churn`` -- a :class:`QueryServer` over a warm session on an
  unweighted 2 x 512 ladder, driven by a closed loop of four clients on the
  server's own event loop; about one client step in twenty toggles a rung.

Inputs come from ``random.Random``, so they do not depend on the program's
own RNG code; the program sees only the graph and requests.  Cold APSP time
swings by 15-20% from one random ladder or mesh instance to the next, more
than a bound can absorb, so each APSP workload runs on one fixed instance
(:data:`INSTANCE`) and ``--seed`` picks its SSSP sources; on serve-churn the
seed picks the requests and rung toggles.
"""

from __future__ import annotations

import asyncio
import functools
import gc
import random
import resource
import statistics
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from checks import (
    check_apsp,
    check_diameter,
    check_shortest_paths,
    check_sssp,
    distance_row,
    matrix_digest,
    reference_matrix,
    reference_rows,
)
from tracing import Span, Tracer

from repro import HybridSession, ModelConfig
from repro.graphs.graph import WeightedGraph
from repro.serving import protocol
from repro.serving.server import QueryServer, ServerConfig

clock = time.perf_counter

MAX_WEIGHT = 8
#: The seed of the one graph instance each APSP workload runs on.
INSTANCE = 1
#: Serve-churn query mix per block of 16 queries: 87.5% sssp, 6.25% diameter,
#: 6.25% apsp.  Blocks are shuffled per client, so every run sees the same
#: proportions in a seed-dependent order.  A client makes about 90 steps in
#: a run, so blocks are short: with blocks of 50 the partial last block left
#: 18-28 apsp requests per run, each about 0.3 s of the server's executor.
#: ``shortest-paths`` is left out because the server answers every such
#: request with ``internal`` (see :func:`probe_shortest_paths`).
QUERY_MIX = ("sssp",) * 14 + ("diameter",) + ("apsp",)
#: One client step in this many toggles a rung (clients are phase-shifted).
MUTATION_PERIOD = 20
#: Closed-loop client coroutines driving serve-churn.
CLIENTS = 4
SHORTEST_PATHS_SOURCES = 4
#: SSSP queries per op, each from its own seeded source.  A mesh SSSP costs
#: about 3% of the op's cold APSP (a ladder SSSP about 4%), so the mesh runs
#: more per op: ``sssp_s`` then comes from over a hundred calls per run.
SSSP_PER_OP = {"apsp-ladder": 5, "apsp-mesh": 15}


@dataclass(frozen=True)
class Scale:
    """Input sizes; the self-test shrinks them."""

    ladder_columns: int = 1024
    mesh_nodes: int = 1024
    serve_columns: int = 512
    setup_repeats: int = 7


@dataclass
class Outcome:
    """What one workload run measured and what its checks found."""

    metrics: dict[str, float]
    attempted: dict[str, int]
    failed: dict[str, int]
    problems: list[str]
    record: dict[str, Any]


# ----------------------------------------------------------------- inputs
def ladder_graph(columns: int, rng: random.Random, max_weight: int = MAX_WEIGHT) -> WeightedGraph:
    """A 2 x ``columns`` grid; node ``r * columns + c``; weights uniform in 1..max_weight."""
    graph = WeightedGraph(2 * columns)
    for row in range(2):
        for col in range(columns):
            node = row * columns + col
            if col + 1 < columns:
                graph.add_edge(node, node + 1, rng.randint(1, max_weight))
            if row == 0:
                graph.add_edge(node, node + columns, rng.randint(1, max_weight))
    return graph


def mesh_graph(n: int, rng: random.Random) -> WeightedGraph:
    """Ring with links to the 2 nearest IDs, ``n // 100`` random links, weights 1..8."""
    edges: dict[tuple[int, int], None] = {}
    for u in range(n):
        for offset in (1, 2):
            edges[min(u, (u + offset) % n), max(u, (u + offset) % n)] = None
    for _ in range(n // 100):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges[min(u, v), max(u, v)] = None
    graph = WeightedGraph(n)
    for u, v in edges:
        graph.add_edge(u, v, rng.randint(1, MAX_WEIGHT))
    return graph


def build_apsp_graph(workload: str, scale: Scale) -> WeightedGraph:
    """The input graph of an APSP workload (identical on every call)."""
    if workload == "apsp-ladder":
        return ladder_graph(scale.ladder_columns, random.Random(INSTANCE))
    return mesh_graph(scale.mesh_nodes, random.Random(INSTANCE))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between samples (never beyond them)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def warm_up_process() -> None:
    """One tiny query of every kind, so lazy imports are paid before timing."""
    rng = random.Random(0)
    session = HybridSession(ladder_graph(16, rng), ModelConfig())
    session.apsp()
    session.sssp(1)
    unweighted = HybridSession(ladder_graph(16, rng, max_weight=1), ModelConfig())
    unweighted.diameter()
    unweighted.shortest_paths([0, 5])

    async def one_request() -> None:
        async with QueryServer(unweighted, ServerConfig()) as server:
            await server.submit({"id": "warm-up", "op": "sssp", "source": 0})

    asyncio.run(one_request())


def graph_record(session: HybridSession) -> dict[str, Any]:
    """n, m, h, D, h/D, knowledge finite share and skeleton size of a warm session."""
    graph = session.graph
    context = session.context()
    skeleton = context.skeleton
    diameter = float(graph.hop_diameter())
    knowledge = skeleton.knowledge_matrix
    return {
        "n": graph.node_count,
        "m": graph.edge_count,
        "h": skeleton.hop_length,
        "D": diameter,
        "h_over_D": skeleton.hop_length / diameter,
        "knowledge_finite_share": float(np.isfinite(knowledge).mean()),
        "skeleton_size": skeleton.size,
    }


# ------------------------------------------------------------ span metrics
def span_metrics(tracer: Tracer, spans: list[Span]) -> dict[str, float]:
    """Per-layer self seconds and counts over one set of spans."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    tokens = 0
    misses = set()
    for span in spans:
        self_s[span.name] = self_s.get(span.name, 0.0) + span.self_time
        calls[span.name] = calls.get(span.name, 0) + 1
        tokens += span.attrs.get("tokens", 0)
        if span.name == "core.skeleton":
            # A context lookup that had to build a skeleton is a cache miss.
            parent = span.parent
            while parent >= 0 and tracer.spans[parent].name != "session.context":
                parent = tracer.spans[parent].parent
            if parent >= 0:
                misses.add(parent)
    return {
        "graphs.hop_limited_s": self_s.get("graphs.hop_limited", 0.0),
        "graphs.hop_diameter_s": self_s.get("graphs.hop_diameter", 0.0),
        "localnet.explore_s": self_s.get("localnet.explore", 0.0),
        "core.skeleton_s": self_s.get("core.skeleton", 0.0),
        "core.publish_s": self_s.get("core.publish", 0.0),
        "core.apsp_self_s": self_s.get("core.apsp", 0.0),
        "core.routing_s": self_s.get("core.routing", 0.0),
        "core.routing_tokens": float(tokens),
        "core.clique_sim_s": self_s.get("core.clique_sim", 0.0),
        "core.repair_s": self_s.get("core.repair", 0.0),
        "hybrid.exchange_s": self_s.get("hybrid.exchange", 0.0),
        "util.hash_s": self_s.get("util.hash", 0.0),
        "util.hash_calls": float(calls.get("util.hash", 0)),
        "session.self_s": sum(
            value for name, value in self_s.items() if name.startswith("session.")
        ),
        "session.context_hits": float(calls.get("session.context", 0) - len(misses)),
        "session.context_misses": float(len(misses)),
    }


def mean_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    """Key-wise mean of per-op metric rows."""
    return {key: statistics.fmean(row[key] for row in rows) for key in rows[0]}


def additivity(tracer: Tracer, walls: list[tuple[int, float]]) -> list[dict[str, float]]:
    """Per op: wall time, its spans' self-time sum, the gap, and the tracing overhead.

    An op's tracing overhead is the time the tracer spent opening and closing
    the op's spans, measured in place (:attr:`Span.bookkeeping`).
    """
    by_op = tracer.ops()
    rows = []
    for op_id, wall in walls:
        spans = by_op.get(op_id, [])
        covered = sum(span.self_time for span in spans)
        rows.append(
            {
                "op": op_id,
                "wall_s": wall,
                "self_sum_s": covered,
                "gap_s": wall - covered,
                "spans": len(spans),
                "overhead_s": sum(span.bookkeeping for span in spans),
            }
        )
    return rows


def layer_record(tracer: Tracer) -> dict[str, Any]:
    """The traced run's export: per-name and per-layer self-time tables."""
    return {
        "self_time_table": tracer.self_time_table(),
        "layer_self_s": tracer.layer_table(),
        "missing_targets": tracer.missing,
        "nesting_errors": tracer.nesting_errors(),
    }


# -------------------------------------------------------- APSP workloads
@dataclass
class ApspOp:
    """Timings and answers of one op: fresh session, cold + warm APSP, SSSPs."""

    traced: bool
    cold_s: float
    warm_s: float
    sssp_s: list[float]
    sources: list[int]
    rounds: int
    cold_digest: int
    warm_digest: int
    sssp_rows: list[np.ndarray]


def op_samples(ops: list[ApspOp]) -> dict[str, list[float]]:
    """The cold, warm and SSSP call times of ``ops``, by metric name.

    A run reports the median of each list: over ten apsp-mesh runs it spread
    about half as much from run to run as the lower quartile or the tenth
    percentile of the same calls.
    """
    return {
        "cold_apsp_s": [op.cold_s for op in ops],
        "warm_apsp_s": [op.warm_s for op in ops],
        "sssp_s": [value for op in ops for value in op.sssp_s],
    }


def timed(call: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``call`` after a full garbage collection; return (result, seconds).

    Collecting first gives every timed call the same collector state, so a
    collection triggered by an earlier call's garbage is not charged to
    whichever call happens to cross the threshold.
    """
    gc.collect()
    started = clock()
    result = call()
    return result, clock() - started


def run_apsp(workload: str, seed: int, seconds: float, trace: bool, scale: Scale) -> Outcome:
    """Time fresh-session cold APSP, warm APSP and SSSP ops for ``seconds``.

    With ``trace`` every second op runs under the tracer; end-to-end metrics
    come from the untraced ops and the difference is the tracing overhead.
    """
    setup_times = []
    for _ in range(scale.setup_repeats):
        started = clock()
        HybridSession(build_apsp_graph(workload, scale), ModelConfig())
        setup_times.append(clock() - started)

    sources = random.Random(f"sources-{seed}")
    sssp_per_op = SSSP_PER_OP[workload]
    tracer = Tracer()
    ops: list[ApspOp] = []
    layer_rows: list[dict[str, float]] = []
    walls: list[tuple[int, float]] = []
    started = clock()
    while True:
        op_started = clock()
        traced = trace and len(ops) % 2 == 1
        graph = build_apsp_graph(workload, scale)
        session = HybridSession(graph, ModelConfig())
        # Distinct sources: a session answers a repeated source from its cache.
        op_sources = sources.sample(range(graph.node_count), sssp_per_op)
        recording = tracer.installed() if traced else nullcontext()
        with recording, tracer.op(len(ops)) as op_id:
            cold, cold_s = timed(session.apsp)
            warm, warm_s = timed(session.apsp)
            answers = [timed(functools.partial(session.sssp, source)) for source in op_sources]
        n = graph.node_count
        ops.append(
            ApspOp(
                traced=traced,
                cold_s=cold_s,
                warm_s=warm_s,
                sssp_s=[taken for _, taken in answers],
                sources=op_sources,
                rounds=session.metrics.total_rounds,
                cold_digest=matrix_digest(cold.matrix),
                warm_digest=matrix_digest(warm.matrix),
                sssp_rows=[distance_row(answer.distances, n) for answer, _ in answers],
            )
        )
        del cold, warm, answers
        if traced:
            spans = tracer.ops().get(op_id, [])
            row = span_metrics(tracer, spans)
            row["hybrid.global_rounds"] = float(session.metrics.global_rounds)
            row["hybrid.messages"] = float(session.metrics.global_messages)
            row["session.preprocessing_rounds"] = float(session.preprocessing_rounds)
            layer_rows.append(row)
            walls.append((op_id, cold_s + warm_s + sum(ops[-1].sssp_s)))
        # Stop when half another op of this one's length would overrun; a
        # traced run needs one untraced and one traced op.
        enough = len(ops) >= (2 if trace else 1)
        now = clock()
        if enough and (now - started) + (now - op_started) / 2 >= seconds:
            break
    elapsed = clock() - started
    peak = peak_rss_mb()

    problems: list[str] = []
    attempted = {"apsp": 2 * len(ops), "sssp": sssp_per_op * len(ops)}
    failed = {"apsp": 0, "sssp": 0}
    expected = reference_matrix(graph)
    for index, op in enumerate(ops):
        found = [
            ("apsp", check_apsp(op.cold_digest, expected, f"op {index} cold apsp")),
            ("apsp", check_apsp(op.warm_digest, expected, f"op {index} warm apsp")),
        ]
        for source, row in zip(op.sources, op.sssp_rows, strict=True):
            found.append(("sssp", check_sssp(row, expected[source], f"op {index} sssp {source}")))
        for kind, wrong in found:
            failed[kind] += bool(wrong)
            problems += wrong
    del expected

    timed_ops = [op for op in ops if not op.traced]
    samples = op_samples(timed_ops)
    # The serving metrics' side reading here: one op is one request.
    latencies = [op.cold_s + op.warm_s + sum(op.sssp_s) for op in timed_ops]
    stats = graph_record(session)
    metrics_out = {
        **{key: statistics.median(values) for key, values in samples.items()},
        "rounds": statistics.median(op.rounds for op in timed_ops),
        "serve_qps": len(latencies) / sum(latencies),
        "serve_p50_ms": 1e3 * statistics.median(latencies),
        "serve_p95_ms": 1e3 * percentile(latencies, 95),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak,
    }
    record: dict[str, Any] = {
        "graph": stats,
        "acceleration": session.acceleration(),
        "ops": len(ops),
        "elapsed_s": elapsed,
        "op_timings": [
            {"traced": op.traced, "cold_s": op.cold_s, "warm_s": op.warm_s, "sssp_s": op.sssp_s}
            for op in ops
        ],
        "setup_repeats_s": setup_times,
    }
    if trace:
        traced_samples = op_samples([op for op in ops if op.traced])
        layers = mean_metrics(layer_rows)
        layers.update(
            {
                "graphs.knowledge_finite_share": stats["knowledge_finite_share"],
                "core.skeleton_size": float(stats["skeleton_size"]),
                "core.hop_length": float(stats["h"]),
                "core.h_over_D": stats["h_over_D"],
                "core.repair_share": 0.0,
                "serving.queue_wait_ms": 0.0,
                "serving.pass_s": 0.0,
                "serving.busy_share": 0.0,
                "serving.queries_per_pass": 0.0,
            }
        )
        metrics_out = layers
        record["trace"] = layer_record(tracer)
        record["trace"]["per_op_additivity"] = additivity(tracer, walls)
        record["trace"]["overhead"] = {
            key: statistics.median(values) - statistics.median(samples[key])
            for key, values in traced_samples.items()
        }
        record["chrome_trace"] = tracer.chrome_trace()
    return Outcome(metrics_out, attempted, failed, problems, record)


# ----------------------------------------------------------- serve-churn
class Recorder:
    """Times the server session's query calls and keeps the guarantees it declares.

    Installed around the public :class:`HybridSession` query methods for the
    serving window (in traced and untraced runs alike).  Per call it takes
    two clock reads and, for diameter and shortest-paths answers, keeps the
    estimate and the declared guarantee (``guaranteed_alpha``, a formula over
    the result's fields) that the checks test responses against.
    """

    METHODS = ("apsp", "sssp_batch", "diameter", "shortest_paths")

    def __init__(self) -> None:
        #: (op, graph version at call entry, diameter estimate or None, alpha).
        self.guarantees: list[tuple[str, int, float | None, float]] = []
        #: Session seconds of every call, by method.
        self.seconds: dict[str, list[float]] = {}

    @contextmanager
    def installed(self) -> Iterator[Recorder]:
        """Wrap the session methods for the duration of the block."""
        originals = {name: getattr(HybridSession, name) for name in self.METHODS}
        for name, original in originals.items():
            setattr(HybridSession, name, self._wrap(name, original))
        try:
            yield self
        finally:
            for name, original in originals.items():
                setattr(HybridSession, name, original)

    def _wrap(self, name: str, original: Callable) -> Callable:
        def recorded(session: HybridSession, *args: Any, **kwargs: Any) -> Any:
            version = session.graph.version
            started = clock()
            result = original(session, *args, **kwargs)
            self.seconds.setdefault(name, []).append(clock() - started)
            if name == "diameter":
                self.guarantees.append(
                    ("diameter", version, result.estimate, result.guaranteed_alpha())
                )
            elif name == "shortest_paths":
                alpha = result.guaranteed_alpha(weighted=False)
                self.guarantees.append(("shortest-paths", version, None, alpha))
            return result

        return recorded


@dataclass
class Query:
    """One client request and the compared part of its response (``answer``)."""

    kind: str
    request: dict[str, Any]
    first_version: int
    last_version: int
    latency_s: float
    error: str | None
    answer: Any


def compact_answer(kind: str, result: dict[str, Any]) -> Any:
    """The part of a response the checks compare, as an array or a scalar."""
    if kind == "apsp":
        return result["checksum"]
    if kind == "diameter":
        return result["estimate"]
    if kind == "sssp":
        rows = [result["distances"]]
    else:
        rows = [result["distances"][str(source)] for source in result["sources"]]
    # The wire encodes unreachable as null, which a float array reads as nan.
    answer = np.array(rows, dtype=np.float64)
    answer[np.isnan(answer)] = np.inf
    return answer


@dataclass
class ServeWindow:
    """State and results of one closed-loop serving window."""

    columns: int
    base_version: int
    rungs: list[bool]
    toggles: list[tuple[int, bool]] = field(default_factory=list)
    queries: list[Query] = field(default_factory=list)
    #: Per mutation: whether the server reported the expected graph version.
    mutations: list[bool] = field(default_factory=list)
    #: (tracer op id, wall seconds) of every executor job of a traced window.
    jobs: list[tuple[int, float]] = field(default_factory=list)
    elapsed_s: float = 0.0
    recorder: Recorder = field(default_factory=Recorder)


def ladder_at(columns: int, toggles: list[tuple[int, bool]]) -> WeightedGraph:
    """The unweighted serve ladder after applying ``toggles`` (rung, present)."""
    graph = ladder_graph(columns, random.Random(0), max_weight=1)
    for rung, present in toggles:
        if present:
            graph.add_edge(rung, columns + rung, 1)
        else:
            graph.remove_edge(rung, columns + rung)
    return graph


def client_steps(rng: random.Random, index: int) -> Iterator[str]:
    """Endless step kinds of one client: shuffled mix blocks plus mutations."""
    offset = (MUTATION_PERIOD - 1 + index * MUTATION_PERIOD // CLIENTS) % MUTATION_PERIOD
    block: list[str] = []
    step = 0
    while True:
        if step % MUTATION_PERIOD == offset:
            yield "mutate"
        else:
            if not block:
                block = list(QUERY_MIX)
                rng.shuffle(block)
            yield block.pop()
        step += 1


def time_jobs(
    loop: asyncio.AbstractEventLoop, tracer: Tracer, jobs: list[tuple[int, float]]
) -> None:
    """Time every job submitted to an executor through ``loop``, outside its spans.

    Each job (a serving pass or a mutation) runs as one tracer op under a
    ``serving.job`` root span, so the server's own code around the traced
    calls (a mutation's dispatch, say) is charged to the serving layer, and
    the job's wall time can be set against the self times of its spans.
    """
    submit = loop.run_in_executor

    def timed_job(func: Callable, *args: Any) -> Any:
        with tracer.op() as op_id:
            started = clock()
            span = tracer.open("serving.job")
            try:
                return func(*args)
            finally:
                tracer.close(span)
                jobs.append((op_id, clock() - started))

    def run_in_executor(executor: Any, func: Callable, *args: Any) -> asyncio.Future:
        return submit(executor, timed_job, func, *args)

    loop.run_in_executor = run_in_executor


async def serve_window(
    session: HybridSession, seconds: float, seed: int, scale: Scale, tracer: Tracer | None
) -> ServeWindow:
    """Drive a fresh :class:`QueryServer` over ``session`` for ``seconds``."""
    columns = scale.serve_columns
    n = session.graph.node_count
    window = ServeWindow(columns, session.graph.version, [True] * columns)

    async def client(index: int, server: QueryServer, deadline: float) -> None:
        rng = random.Random(f"client-{seed}-{index}")
        steps = client_steps(rng, index)
        count = 0
        while clock() < deadline:
            kind = next(steps)
            count += 1
            if kind == "mutate":
                # Rung 0 never toggles, so the ladder always stays connected.
                rung = rng.randrange(1, columns)
                present = not window.rungs[rung]
                window.rungs[rung] = present
                window.toggles.append((rung, present))
                expected = window.base_version + len(window.toggles)
                reply = await server.mutate(
                    "add" if present else "remove", rung, columns + rung, 1 if present else None
                )
                window.mutations.append(reply["version"] == expected)
                continue
            request: dict[str, Any] = {"id": f"c{index}-{count}", "op": kind, "tenant": f"c{index}"}
            if kind == "sssp":
                request["source"] = rng.randrange(n)
            first_version = session.graph.version
            started = clock()
            response = await server.submit(request)
            latency = clock() - started
            last_version = session.graph.version
            if response.get("ok"):
                error, answer = None, compact_answer(kind, response["result"])
            else:
                error, answer = response.get("error", {}).get("code"), None
            window.queries.append(
                Query(kind, request, first_version, last_version, latency, error, answer)
            )

    recording = tracer.installed() if tracer is not None else nullcontext()
    with recording, window.recorder.installed():
        async with QueryServer(session, ServerConfig()) as server:
            if tracer is not None:
                time_jobs(asyncio.get_running_loop(), tracer, window.jobs)
            started = clock()
            deadline = started + seconds
            await asyncio.gather(*(client(i, server, deadline) for i in range(CLIENTS)))
            window.elapsed_s = clock() - started
    return window


def check_window(window: ServeWindow) -> tuple[list[str], dict[str, int], dict[str, int]]:
    """Check every response of one window against the reference.

    A response is correct when it matches the reference on some graph
    version between the one at submit and the one at response time (the
    benchmark replays its own rung toggles to rebuild each version): APSP by
    the reference matrix's checksum, SSSP exactly, and diameter within the
    guarantee the session declared on that version.  An error response is a
    failed query.
    """
    problems: list[str] = []
    columns = window.columns
    if not all(window.mutations):
        problems.append("a mutation returned an unexpected graph version")
    guarantees: dict[tuple[str, int], list[tuple[float | None, float]]] = {}
    for kind, version, estimate, alpha in window.recorder.guarantees:
        guarantees.setdefault((kind, version), []).append((estimate, alpha))

    attempted: dict[str, int] = {"mutate": len(window.mutations)}
    failed: dict[str, int] = {"mutate": window.mutations.count(False)}
    by_version: dict[int, list[int]] = {}
    for index, query in enumerate(window.queries):
        attempted[query.kind] = attempted.get(query.kind, 0) + 1
        failed.setdefault(query.kind, 0)
        if query.error is not None:
            failed[query.kind] += 1
            problems.append(f"{query.request['id']} {query.kind} failed: {query.error}")
            continue
        for version in range(query.first_version, query.last_version + 1):
            by_version.setdefault(version, []).append(index)

    matched: set[int] = set()
    for version in sorted(by_version):
        offset = version - window.base_version
        waiting = [index for index in by_version[version] if index not in matched]
        if not waiting or not 0 <= offset <= len(window.toggles):
            continue
        graph = ladder_at(columns, window.toggles[:offset])
        if all(window.queries[index].kind == "sssp" for index in waiting):
            # Only SSSP responses to match here: reference rows suffice.
            sources = sorted({window.queries[index].request["source"] for index in waiting})
            expected = dict(zip(sources, reference_rows(graph, sources), strict=True))
        else:
            expected = reference_matrix(graph)
        checksum = None
        for index in waiting:
            query = window.queries[index]
            if query.kind == "sssp":
                correct = np.array_equal(query.answer[0], expected[query.request["source"]])
            elif query.kind == "apsp":
                checksum = checksum or protocol.matrix_checksum(expected)
                correct = query.answer == checksum
            else:
                true_diameter = float(expected.max())
                correct = any(
                    estimate == query.answer
                    and not check_diameter(query.answer, alpha, true_diameter, "")
                    for estimate, alpha in guarantees.get(("diameter", version), [])
                )
            if correct:
                matched.add(index)

    for index, query in enumerate(window.queries):
        if query.error is None and index not in matched:
            failed[query.kind] += 1
            problems.append(
                f"{query.request['id']} {query.kind}: response matches no correct answer "
                f"on graph versions {query.first_version}..{query.last_version}"
            )
    return problems, attempted, failed


def probe_shortest_paths(columns: int, seed: int) -> tuple[str | None, list[str]]:
    """Serve one shortest-paths request outside the timed part: (error code, problems).

    Every such request currently fails with ``internal``
    (``QueryServer._simulate`` calls ``.items()`` on the list
    ``ShortestPathsResult.estimates``), so the timed mix leaves them out and
    each run records this probe's outcome instead.  That known error is not
    a problem; any other error, or an answer outside the guarantee the
    session declared, is.
    """
    session = HybridSession(ladder_graph(columns, random.Random(0), 1), ModelConfig())
    sources = random.Random(f"probe-{seed}").sample(range(2 * columns), SHORTEST_PATHS_SOURCES)
    recorder = Recorder()

    async def submit() -> dict[str, Any]:
        async with QueryServer(session, ServerConfig()) as server:
            request = {"id": "probe", "op": "shortest-paths", "sources": sources}
            return await server.submit(request)

    with recorder.installed():
        response = asyncio.run(submit())
    if not response.get("ok"):
        code = response.get("error", {}).get("code")
        return code, [] if code == "internal" else [f"shortest-paths probe failed: {code}"]
    answer = compact_answer("shortest-paths", response["result"])
    alpha = recorder.guarantees[-1][3]
    expected = reference_rows(session.graph, sources)
    return None, check_shortest_paths(answer, alpha, expected, "shortest-paths probe")


def serve_metrics(window: ServeWindow, rounds: int) -> dict[str, float]:
    """Session call times, throughput, latency and rounds per query of one window."""
    latencies = [query.latency_s for query in window.queries]
    answered = sum(1 for query in window.queries if query.error is None)
    seconds = window.recorder.seconds
    return {
        "warm_apsp_s": statistics.median(seconds.get("apsp", [0.0])),
        "sssp_s": statistics.median(seconds.get("sssp_batch", [0.0])),
        "serve_qps": answered / window.elapsed_s,
        "serve_p50_ms": 1e3 * statistics.median(latencies),
        "serve_p95_ms": 1e3 * percentile(latencies, 95),
        "rounds": rounds / max(1, len(window.queries)),
    }


def serving_layers(
    tracer: Tracer, window: ServeWindow, session: HybridSession, before: dict[str, int]
) -> dict[str, float]:
    """Per-layer metrics of a traced window, per executor job (pass or mutation)."""
    roots = [span for span in tracer.spans if span.parent < 0 and span.end]
    jobs = max(1, len(roots))
    totals = span_metrics(tracer, [span for span in tracer.spans if span.end])
    layers = {key: value / jobs for key, value in totals.items()}
    passes = [span for span in tracer.spans if span.name == "serving.pass" and span.end]
    durations = [span.duration for span in passes]
    session_time = {span.index: 0.0 for span in passes}
    for span in tracer.spans:
        if span.parent in session_time and span.layer == "session":
            session_time[span.parent] += span.duration
    pass_of = {query_id: span for span in passes for query_id in span.attrs.get("queries", ())}
    waits = [
        query.latency_s - session_time[pass_of[query.request["id"]].index]
        for query in window.queries
        if query.request["id"] in pass_of
    ]
    repairs = session.repairs[before["repairs"] :]
    repaired = sum(1 for repair in repairs if repair.action == "repaired")
    served = sum(len(span.attrs.get("queries", ())) for span in passes)
    preprocessing = session.preprocessing_rounds - before["preprocessing_rounds"]
    metrics = session.metrics
    layers.update(
        {
            "hybrid.global_rounds": (metrics.global_rounds - before["global_rounds"]) / jobs,
            "hybrid.messages": (metrics.global_messages - before["messages"]) / jobs,
            "session.preprocessing_rounds": preprocessing / jobs,
            "core.repair_share": repaired / max(1, len(repairs)),
            "serving.queue_wait_ms": 1e3 * statistics.median(waits) if waits else 0.0,
            "serving.pass_s": statistics.median(durations) if durations else 0.0,
            "serving.busy_share": sum(span.duration for span in roots) / window.elapsed_s,
            "serving.queries_per_pass": served / max(1, len(passes)),
        }
    )
    return layers


def run_serve(seed: int, seconds: float, trace: bool, scale: Scale) -> Outcome:
    """Set up warm server sessions, then serve a closed-loop churn window.

    Setup (repeated ``scale.setup_repeats`` times, median reported) builds
    the graph and a session and warms it with an APSP, an SSSP and a
    diameter query; the APSPs give the workload's ``cold_apsp_s``.  In the
    window, ``warm_apsp_s`` and ``sssp_s`` are the session seconds of the
    server's APSP and batched SSSP calls (medians of the calls).  With
    ``trace`` the window is split into an untraced and a traced half, each
    on its own warm session, and the difference is the tracing overhead.
    """
    columns = scale.serve_columns
    n = 2 * columns
    sources = random.Random(f"sources-{seed}")
    setup_times, cold = [], []
    sessions: list[HybridSession] = []
    problems: list[str] = []
    expected = reference_matrix(ladder_graph(columns, random.Random(0), 1))
    for _ in range(scale.setup_repeats):
        started = clock()
        session = HybridSession(ladder_graph(columns, random.Random(0), 1), ModelConfig())
        answer, cold_s = timed(session.apsp)
        source = sources.randrange(n)
        sssp = session.sssp(source)
        diameter = session.diameter()
        setup_times.append(clock() - started)
        cold.append(cold_s)
        sessions = [*sessions[-1:], session]
        problems += check_apsp(matrix_digest(answer.matrix), expected, "setup apsp")
        problems += check_sssp(distance_row(sssp.distances, n), expected[source], "setup sssp")
        alpha = diameter.guaranteed_alpha()
        problems += check_diameter(diameter.estimate, alpha, float(expected.max()), "setup")
    del expected, answer
    stats = graph_record(sessions[-1])
    probe_error, found = probe_shortest_paths(columns, seed)
    problems += found

    halves = [(sessions[0], None), (sessions[-1], Tracer())] if trace else [(sessions[-1], None)]
    attempted: dict[str, int] = {}
    failed: dict[str, int] = {}
    windows: list[dict[str, Any]] = []
    record: dict[str, Any] = {
        "graph": stats,
        "acceleration": sessions[-1].acceleration(),
        "shortest_paths_probe_error": probe_error,
    }
    if probe_error == "internal":
        record["known_defects"] = ["a served shortest-paths request fails with 'internal'"]
    metrics_out: dict[str, float] = {}
    peak = 0.0
    for session, tracer in halves:
        before = {
            "rounds": session.metrics.total_rounds,
            "global_rounds": session.metrics.global_rounds,
            "messages": session.metrics.global_messages,
            "preprocessing_rounds": session.preprocessing_rounds,
            "repairs": len(session.repairs),
        }
        window = asyncio.run(serve_window(session, seconds / len(halves), seed, scale, tracer))
        peak = max(peak, peak_rss_mb())
        found, tried, lost = check_window(window)
        problems += found
        for kind, count in tried.items():
            attempted[kind] = attempted.get(kind, 0) + count
            failed[kind] = failed.get(kind, 0) + lost.get(kind, 0)
        values = serve_metrics(window, session.metrics.total_rounds - before["rounds"])
        actions = [repair.action for repair in session.repairs[before["repairs"] :]]
        windows.append(
            {
                "traced": tracer is not None,
                "elapsed_s": window.elapsed_s,
                "queries": len(window.queries),
                "mutations": len(window.mutations),
                "repairs": {action: actions.count(action) for action in ("repaired", "rebuilt")},
                **values,
            }
        )
        if tracer is None:
            metrics_out = {
                "cold_apsp_s": statistics.median(cold),
                **values,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak,
            }
        else:
            layers = serving_layers(tracer, window, session, before)
            layers.update(
                {
                    "graphs.knowledge_finite_share": stats["knowledge_finite_share"],
                    "core.skeleton_size": float(stats["skeleton_size"]),
                    "core.hop_length": float(stats["h"]),
                    "core.h_over_D": stats["h_over_D"],
                }
            )
            metrics_out = layers
            record["trace"] = layer_record(tracer)
            record["trace"]["per_op_additivity"] = additivity(tracer, window.jobs)
            record["trace"]["overhead"] = {key: values[key] - windows[0][key] for key in values}
            record["chrome_trace"] = tracer.chrome_trace()
    record["windows"] = windows
    record["setup_repeats_s"] = setup_times
    return Outcome(metrics_out, attempted, failed, problems, record)
