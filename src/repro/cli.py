"""Command-line interface for regenerating the paper's evaluation.

Usage::

    python -m repro.cli list
    python -m repro.cli run E2 [--scale medium]
    python -m repro.cli run-all [--scale small] [--output EXPERIMENTS_GENERATED.md]
    python -m repro.cli sweep [--jobs 4] [--resume] [--only E3,E14] [--scale medium]
    python -m repro.cli regress --baseline benchmarks/BENCH_baseline.json
    python -m repro.cli query [--n 200] [--seed 1] [--repeat 2]
    python -m repro.cli bench [--n 4096] [--profile]
    python -m repro.cli lint [--format json|github] [--select RL001,RL006] [--waiver-report]

``run`` prints one experiment's markdown table; ``run-all`` renders every
registered experiment serially (the content recorded in EXPERIMENTS.md).
``sweep`` is the scalable path: it decomposes the selected experiments into
independent shards, executes them across a process pool, persists each shard
to a resumable artifact store and assembles the same tables from the stored
payloads -- including the E15 robustness sweep (``--only E15``), which runs
the loss-tolerant protocols under seeded
:class:`~repro.hybrid.faults.FaultModel` drop schedules and reports round
overhead and accuracy per drop rate and graph family.
``regress`` diffs a fresh ``BENCH_core.json`` (or sweep manifest)
against a committed baseline and exits non-zero on tolerance violations --
the CI regression gate.  ``query`` serves a mixed SSSP/diameter/APSP workload
from one :class:`~repro.session.HybridSession` and prints the per-query
amortized vs cold-equivalent accounting.  ``bench`` times the hot graph
kernels on the numpy plane vs the compiled plane of
:mod:`repro.graphs.compiled` (bit-identity checked), with ``--profile``
adding a cProfile per-kernel breakdown.  ``lint`` runs the static invariant
linter (:mod:`repro.analysis.lint`): AST-level checks RL001-RL005 for
nondeterminism sources, unordered iteration, plane parity, metrics-accounting
discipline and RNG fork labels, plus the whole-program rules RL006-RL008
(fork safety, njit nopython subset, cache-invalidation discipline) built on
the symbol-table/call-graph layer, honouring inline
``# repro-lint: waive[CODE] -- reason`` comments and exiting non-zero on any
unwaived finding or stale waiver -- the CI invariant gate.  ``--format
github`` emits workflow ``::error`` annotations; ``--waiver-report`` lists
every reviewed waiver with its reason instead of linting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.experiments import SCALES, available_experiments, run_all, run_experiment


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Computing Shortest Paths and Diameter in the "
            "Hybrid Network Model' (Kuhn & Schneider, PODC 2020)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment and print its table")
    run_parser.add_argument("experiment", help="experiment id, e.g. E2")
    run_parser.add_argument(
        "--scale", choices=list(SCALES), default="small", help="sweep size"
    )

    run_all_parser = subparsers.add_parser("run-all", help="run every experiment serially")
    run_all_parser.add_argument(
        "--scale", choices=list(SCALES), default="small", help="sweep size"
    )
    run_all_parser.add_argument(
        "--output", default=None, help="write the markdown report to this file instead of stdout"
    )

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run experiments as parallel, resumable shards through the artifact store",
    )
    sweep_parser.add_argument(
        "--scale", choices=list(SCALES), default="small", help="sweep size"
    )
    sweep_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = serial, the default)"
    )
    sweep_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip shards whose artifact already matches (finish an interrupted sweep)",
    )
    sweep_parser.add_argument(
        "--only",
        default=None,
        help="comma-separated experiment ids to run (default: all), e.g. E3,E14",
    )
    sweep_parser.add_argument(
        "--artifacts", default="artifacts", help="artifact store root directory"
    )
    sweep_parser.add_argument(
        "--trials",
        type=int,
        default=1,
        help="replica trials per shard for reseedable sweeps (spawned seed stream)",
    )
    sweep_parser.add_argument(
        "--root-seed",
        type=int,
        default=2020,
        help="entropy of the SeedSequence stream replica trials draw from",
    )
    sweep_parser.add_argument(
        "--output", default=None, help="write the markdown report to this file instead of stdout"
    )

    regress_parser = subparsers.add_parser(
        "regress",
        help="diff fresh benchmark records / sweep manifest against a committed baseline",
    )
    regress_parser.add_argument(
        "--baseline", required=True, help="committed baseline JSON (records or manifest)"
    )
    regress_parser.add_argument(
        "--current",
        default="BENCH_core.json",
        help="freshly produced JSON to check (default: BENCH_core.json)",
    )
    regress_parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=0.25,
        help="relative wall-clock tolerance (default 0.25 = ±25%%)",
    )
    regress_parser.add_argument(
        "--no-normalize",
        action="store_true",
        help="disable machine-speed normalization of wall-clock ratios",
    )
    regress_parser.add_argument(
        "--min-wall-seconds",
        type=float,
        default=0.05,
        help=(
            "skip the wall-clock check (only) for records whose baseline wall time "
            "is below this; round counts still gate them (default 0.05)"
        ),
    )
    regress_parser.add_argument(
        "--report", default=None, help="write the machine-readable JSON report to this file"
    )

    query_parser = subparsers.add_parser(
        "query", help="serve a mixed SSSP/diameter/APSP workload from one session"
    )
    query_parser.add_argument("--n", type=int, default=200, help="graph size")
    query_parser.add_argument("--seed", type=int, default=1, help="graph and model seed")
    query_parser.add_argument(
        "--repeat", type=int, default=2, help="how many times to repeat the workload"
    )
    query_parser.add_argument(
        "--mutate",
        type=int,
        default=0,
        help="edge-weight mutations applied between repetitions; the warm "
        "session repairs its contexts through the delta log (DESIGN.md §12)",
    )

    bench_parser = subparsers.add_parser(
        "bench",
        help="time the hot graph kernels on the numpy vs compiled plane",
    )
    bench_parser.add_argument("--n", type=int, default=1024, help="graph size")
    bench_parser.add_argument("--seed", type=int, default=3, help="graph seed")
    bench_parser.add_argument(
        "--sources", type=int, default=64, help="number of traversal sources per kernel"
    )
    bench_parser.add_argument(
        "--max-weight",
        type=int,
        default=8,
        help="edge weights drawn from [1, max-weight]; 1 = unit weights",
    )
    bench_parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile each kernel run and print the hottest functions",
    )
    bench_parser.add_argument(
        "--top",
        type=int,
        default=10,
        help="rows of the per-kernel profile breakdown (with --profile)",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the asyncio multi-tenant query server over TCP (DESIGN.md §11)",
    )
    serve_parser.add_argument("--n", type=int, default=200, help="graph size")
    serve_parser.add_argument("--seed", type=int, default=1, help="graph and model seed")
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8642, help="bind port (0 picks a free one)"
    )
    serve_parser.add_argument(
        "--batch-window",
        type=float,
        default=0.005,
        help="seconds the batcher waits before draining the queue",
    )
    serve_parser.add_argument(
        "--max-pending", type=int, default=64, help="bound on admitted, unanswered requests"
    )
    serve_parser.add_argument(
        "--tenant-quota",
        type=int,
        default=None,
        help="per-tenant bound within --max-pending (default: no quota)",
    )
    serve_parser.add_argument(
        "--max-batch", type=int, default=32, help="largest coalesced group (one pass)"
    )
    serve_parser.add_argument(
        "--no-coalesce",
        action="store_true",
        help="serve one query per pass (the E16 baseline mode)",
    )

    client_parser = subparsers.add_parser(
        "client",
        help="send newline-delimited JSON requests (stdin or args) to a running server",
    )
    client_parser.add_argument("--host", default="127.0.0.1", help="server address")
    client_parser.add_argument("--port", type=int, default=8642, help="server port")
    client_parser.add_argument(
        "requests",
        nargs="*",
        default=None,
        help="request JSON objects; with none given, lines are read from stdin",
    )

    serve_bench_parser = subparsers.add_parser(
        "serve-bench",
        help="run the E16 serving benchmark (batched vs sequential) and write its artifacts",
    )
    serve_bench_parser.add_argument("--n", type=int, default=256, help="graph size")
    serve_bench_parser.add_argument(
        "--queries", type=int, default=40, help="SSSP queries in the workload mix"
    )
    serve_bench_parser.add_argument("--seed", type=int, default=7, help="workload seed")
    serve_bench_parser.add_argument(
        "--batch-window", type=float, default=0.005, help="server batch window in seconds"
    )
    serve_bench_parser.add_argument(
        "--out",
        default=None,
        help="directory for manifest.json + metrics.jsonl + summary.json (default: print only)",
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the static invariant linter (RL001-RL009) over the source tree",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: src/repro)",
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help=(
            "output format (json is the nightly artifact schema; github "
            "emits ::error workflow annotations)"
        ),
    )
    lint_parser.add_argument(
        "--select",
        default=None,
        help="comma-separated checker codes to run (default: all), e.g. RL001,RL006",
    )
    lint_parser.add_argument(
        "--show-waived",
        action="store_true",
        help="also print waived findings in text format",
    )
    lint_parser.add_argument(
        "--waiver-report",
        action="store_true",
        help="list every reviewed waiver (code, location, reason) instead of linting",
    )
    return parser


def run_lint_command(args) -> int:
    """Run the invariant linter; exit 0 only with zero unwaived findings."""
    from repro.analysis.lint import lint_paths, waiver_inventory

    if args.waiver_report:
        waivers = waiver_inventory(args.paths or None)
        if args.format == "json":
            print(json.dumps(waivers_as_dict(waivers), indent=2))
        else:
            for waiver in waivers:
                codes = ",".join(waiver.codes)
                print(
                    f"{waiver.path}:{waiver.target_line} [{codes}] {waiver.reason}"
                )
            print(f"waivers: {len(waivers)} reviewed")
        return 0
    select = None
    if args.select:
        select = [token for token in args.select.split(",") if token.strip()]
    try:
        report = lint_paths(args.paths or None, select=select)
    except ValueError as error:
        print(f"lint: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2))
    elif args.format == "github":
        print(report.format_github())
    else:
        print(report.format_text(show_waived=args.show_waived))
    return 0 if report.ok else 1


def waivers_as_dict(waivers) -> dict:
    """The ``--waiver-report --format json`` document (mirrors the report schema)."""
    return {
        "version": 1,
        "count": len(waivers),
        "waivers": [
            {
                "path": waiver.path,
                "comment_line": waiver.comment_line,
                "target_line": waiver.target_line,
                "codes": list(waiver.codes),
                "reason": waiver.reason,
            }
            for waiver in waivers
        ],
    }


def run_sweep_command(args) -> int:
    """Plan, execute (parallel + resumable) and render the selected sweeps."""
    from repro.experiments import (
        ArtifactStore,
        ExperimentEngine,
        assemble_tables,
        plan_shards,
    )

    if args.only:
        # dict.fromkeys: dedupe (--only E6,E6) while keeping the given order.
        ids = list(
            dict.fromkeys(token.strip().upper() for token in args.only.split(",") if token.strip())
        )
    else:
        ids = None
    try:
        shards = plan_shards(
            ids, scale=args.scale, trials=args.trials, root_seed=args.root_seed
        )
    except (KeyError, ValueError) as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2

    store = ArtifactStore(args.artifacts)
    engine = ExperimentEngine(store, jobs=args.jobs, resume=args.resume)
    total = len(shards)
    done = {"count": 0}

    def progress(status: str, shard, wall: float) -> None:
        done["count"] += 1
        if status == "executed":
            detail = f"({wall:.2f}s)"
        else:
            detail = f"({status})"
        print(f"[{done['count']}/{total}] {shard.key} {detail}")

    print(
        f"sweep: {total} shard(s) across {len(set(s.experiment for s in shards))} "
        f"experiment(s) at scale {args.scale!r}, jobs={args.jobs}, "
        f"resume={'on' if args.resume else 'off'}, store={args.artifacts}"
    )
    report = engine.run(shards, progress=progress)
    print(f"engine: {report.summary()}; manifest: {store.manifest_path()}")
    if report.failed:
        for key, error in report.failed.items():
            print(f"FAILED {key}: {error}", file=sys.stderr)
        return 1

    sections = [table.to_markdown() for table in assemble_tables(store, shards)]
    rendered = (
        "# Regenerated experiment tables (sharded engine)\n\n"
        + f"Scale: {args.scale}\n\n"
        + "\n\n".join(sections)
        + "\n"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.output}")
    else:
        print(rendered)
    return 0


def run_regress_command(args) -> int:
    """Run the regression gate; exit 0 on pass, 1 on violations."""
    from repro.analysis.regression import run_regression

    try:
        report = run_regression(
            args.baseline,
            args.current,
            wall_tolerance=args.wall_tolerance,
            normalize=not args.no_normalize,
            min_wall_seconds=args.min_wall_seconds,
        )
    except (OSError, ValueError) as error:
        print(f"regress: {error}", file=sys.stderr)
        return 2
    print(report.format_text())
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.report}")
    return 0 if report.status == "pass" else 1


def serve_query_workload(n: int, seed: int, repeat: int, mutate: int = 0) -> int:
    """Answer a mixed workload from one session and print the accounting.

    The workload interleaves SSSP, diameter and APSP queries ``repeat`` times
    against a single :class:`~repro.session.HybridSession`; only the first
    pass pays preprocessing, which is exactly what the printed amortized vs
    cold-equivalent columns show.  With ``mutate > 0`` that many random
    edge-weight updates land between repetitions and the session repairs its
    warm contexts through the delta log instead of rebuilding them
    (DESIGN.md §12); the per-key repair decisions are printed at the end.
    """
    from repro.graphs import generators
    from repro.session import HybridSession
    from repro.hybrid import ModelConfig
    from repro.util.rand import RandomSource

    if n < 2:
        print("--n must be at least 2", file=sys.stderr)
        return 2
    if repeat < 1:
        print("--repeat must be at least 1", file=sys.stderr)
        return 2
    if mutate < 0:
        print("--mutate must be at least 0", file=sys.stderr)
        return 2
    graph = generators.random_geometric_like_graph(
        n, neighbourhood=2, rng=RandomSource(seed), extra_edge_probability=0.01
    )
    session = HybridSession(graph, ModelConfig(rng_seed=seed))
    source_rng = RandomSource(seed + 1)
    print(
        f"serving on n={n}, m={graph.edge_count}, hop diameter "
        f"{graph.hop_diameter():.0f} (seed {seed})\n"
    )
    header = (
        f"{'query':>14s} {'amortized':>10s} {'cold-equiv':>10s} {'new prep':>9s} {'wall ms':>8s}"
    )
    print(header)
    print("-" * len(header))
    mutation_rng = RandomSource(seed).fork("cli:mutations")
    edges = sorted((u, v) for u, v, _ in graph.edges())
    for repetition in range(repeat):
        if mutate and repetition:
            for _ in range(mutate):
                u, v = edges[mutation_rng.randrange(len(edges))]
                new_weight = graph.weight(u, v) + 1 + mutation_rng.randrange(4)
                session.update_weight(u, v, new_weight)
                print(f"{'mutate':>14s} edge {{{u}, {v}}} -> weight {new_weight}")
        workload = [
            ("sssp", source_rng.randrange(n)),
            # Weight mutations leave the unit-weight regime, where the
            # Section 5 diameter algorithm does not apply.
            ("diameter", None) if not mutate else ("sssp", source_rng.randrange(n)),
            ("sssp", source_rng.randrange(n)),
            ("apsp", None),
        ]
        for kind, argument in workload:
            # repro-lint: waive[RL001] -- wall-clock display only; never feeds simulation state
            started = time.perf_counter()
            if kind == "sssp":
                session.sssp(argument)
            elif kind == "diameter":
                session.diameter()
            else:
                session.apsp()
            # repro-lint: waive[RL001] -- wall-clock display only; never feeds simulation state
            elapsed_ms = (time.perf_counter() - started) * 1e3
            record = session.last_query
            label = kind if argument is None else f"{kind}({argument})"
            print(
                f"{label:>14s} {record.amortized_rounds:>10d} {record.cold_rounds:>10d} "
                f"{record.preparation_rounds:>9d} {elapsed_ms:>8.1f}"
            )
    total_amortized = sum(record.amortized_rounds for record in session.queries)
    print(
        f"\n{len(session.queries)} queries: {total_amortized} amortized rounds total "
        f"+ {session.preprocessing_rounds} preprocessing rounds (paid once); "
        f"cold-equivalent total {sum(record.cold_rounds for record in session.queries)}."
    )
    if session.repairs:
        decisions = ", ".join(
            f"{record.key_tag}: {record.action} ({record.rounds} rounds)"
            for record in session.repairs
        )
        print(f"context repairs after mutations: {decisions}")
    return 0


def run_serve_command(args) -> int:
    """Start the asyncio query server over TCP and block until interrupted.

    Builds the seeded workload graph, wraps it in a
    :class:`~repro.session.HybridSession`, and serves the line-delimited JSON
    protocol of DESIGN.md §11 on ``--host``/``--port`` until Ctrl-C; the
    shutdown path drains every admitted request before exiting.
    """
    import asyncio

    from repro.graphs import generators
    from repro.hybrid import ModelConfig
    from repro.serving import QueryServer, ServerConfig, serve_tcp
    from repro.session import HybridSession
    from repro.util.rand import RandomSource

    if args.n < 2:
        print("--n must be at least 2", file=sys.stderr)
        return 2
    graph = generators.random_geometric_like_graph(
        args.n, neighbourhood=2, rng=RandomSource(args.seed), extra_edge_probability=0.01
    )
    session = HybridSession(graph, ModelConfig(rng_seed=args.seed))
    config = ServerConfig(
        batch_window=args.batch_window,
        max_pending=args.max_pending,
        tenant_quota=args.tenant_quota,
        max_batch=args.max_batch,
        coalesce=not args.no_coalesce,
    )

    async def _serve() -> int:
        import contextlib
        import signal

        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            # Graceful drain on both signals; add_signal_handler is
            # unavailable on some platforms (then Ctrl-C still interrupts).
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, stop.set)
        async with QueryServer(session, config) as server:
            listener = await serve_tcp(server, host=args.host, port=args.port)
            bound = listener.sockets[0].getsockname()
            print(
                f"serving n={args.n} (seed {args.seed}) on {bound[0]}:{bound[1]} -- "
                f"window {config.batch_window}s, max_pending {config.max_pending}, "
                f"quota {config.tenant_quota}, coalesce {config.coalesce}",
                flush=True,
            )
            try:
                await stop.wait()
            finally:
                listener.close()
                await listener.wait_closed()
        summary = server.tenant_summary()
        if summary:
            print(f"drained; per-tenant totals: {json.dumps(summary, sort_keys=True)}")
        return 0

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nserver stopped")
        return 0


def run_client_command(args) -> int:
    """Send requests to a running server and print one response per line."""
    import asyncio

    from repro.serving import query_tcp

    lines = args.requests if args.requests else [line for line in sys.stdin if line.strip()]
    requests = []
    for line in lines:
        try:
            requests.append(json.loads(line))
        except ValueError as error:
            print(f"client: bad request line {line!r}: {error}", file=sys.stderr)
            return 2
    if not requests:
        print("client: no requests given", file=sys.stderr)
        return 2
    try:
        responses = asyncio.run(query_tcp(args.host, args.port, requests))
    except OSError as error:
        print(f"client: cannot reach {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    for response in responses:
        print(json.dumps(response, sort_keys=True))
    return 0 if all(response.get("ok") for response in responses) else 1


def run_serve_bench_command(args) -> int:
    """Run the E16 benchmark and optionally persist its artifact trio."""
    from repro.serving import benchmark as serving_benchmark

    if args.n < 2 or args.queries < 1:
        print("--n must be >= 2 and --queries >= 1", file=sys.stderr)
        return 2
    summary = serving_benchmark.run_comparison(
        args.n, args.queries, args.seed, batch_window=args.batch_window
    )
    batched = summary["modes"]["batched"]
    sequential = summary["modes"]["sequential"]
    print(
        f"E16 n={summary['n']} queries={summary['query_count']} seed={summary['seed']}:\n"
        f"  batched:    {batched['passes']} passes, {batched['total_rounds']} rounds, "
        f"{batched['qps']} qps, p50 {batched['p50_ms']}ms, p99 {batched['p99_ms']}ms\n"
        f"  sequential: {sequential['passes']} passes, {sequential['total_rounds']} rounds, "
        f"{sequential['qps']} qps, p50 {sequential['p50_ms']}ms, p99 {sequential['p99_ms']}ms\n"
        f"  round ratio {summary['round_throughput_ratio']}x, "
        f"answers identical: {summary['responses_identical']}"
    )
    if args.out:
        paths = serving_benchmark.write_run_artifacts(args.out, summary)
        print(f"wrote {paths['manifest']}, {paths['metrics']}, {paths['summary']}")
    return 0 if summary["responses_identical"] else 1


def run_bench_command(args) -> int:
    """Time the hot graph kernels on the numpy plane vs the compiled plane.

    Runs multi-source exact distances, BFS levels and hop-limited ``d_h`` on
    one random connected graph through both :mod:`repro.graphs.csr` (the
    numpy oracle) and :mod:`repro.graphs.compiled`, verifies the outputs are
    bit-identical, and prints wall clock plus speedup per kernel.  With
    ``--profile`` each plane's run happens under :mod:`cProfile` and the
    hottest functions are printed per kernel -- the quickest way to see where
    a slow configuration actually spends its time.
    """
    import cProfile
    import io
    import pstats

    import numpy as np

    from repro.graphs import compiled as compiled_plane
    from repro.graphs import csr as numpy_plane
    from repro.graphs import generators
    from repro.util.rand import RandomSource

    if args.n < 2:
        print("--n must be at least 2", file=sys.stderr)
        return 2
    if args.sources < 1:
        print("--sources must be at least 1", file=sys.stderr)
        return 2
    graph = generators.random_connected_graph(
        args.n, 4.0, RandomSource(args.seed), max_weight=max(1, args.max_weight)
    )
    csr = graph.csr()
    sources = list(range(min(args.sources, args.n)))
    hop_limit = max(1, int(args.n).bit_length())
    report = compiled_plane.kernel_report()
    print(
        f"bench: n={args.n}, m={graph.edge_count}, sources={len(sources)}, "
        f"hop_limit={hop_limit}, unit_weights={csr.unit_weights}"
    )
    print(
        f"compiled plane: numba={'yes' if report['numba'] else 'no'}, "
        f"scipy={'yes' if report['scipy'] else 'no'} "
        f"(distance={report['distance_matrix']}, bfs={report['bfs_level_matrix']}, "
        f"hop-limited={report['hop_limited_matrix']})"
    )
    kernels = [
        ("distance_matrix", lambda plane: plane.distance_matrix(csr, sources)),
        ("bfs_level_matrix", lambda plane: plane.bfs_level_matrix(csr, sources)),
        ("hop_limited_matrix", lambda plane: plane.hop_limited_matrix(csr, sources, hop_limit)),
    ]
    profiles: list[tuple[str, pstats.Stats]] = []

    def timed(plane, kernel, label):
        if args.profile:
            profiler = cProfile.Profile()
            profiler.enable()
        # repro-lint: waive[RL001] -- kernel timing harness; measures, never decides
        started = time.perf_counter()
        result = kernel(plane)
        # repro-lint: waive[RL001] -- kernel timing harness; measures, never decides
        elapsed = time.perf_counter() - started
        if args.profile:
            profiler.disable()
            profiles.append((label, pstats.Stats(profiler)))
        return result, elapsed

    header = (
        f"{'kernel':>20s} {'numpy s':>9s} {'compiled s':>11s} {'speedup':>8s} {'identical':>9s}"
    )
    print()
    print(header)
    print("-" * len(header))
    mismatched = False
    for name, kernel in kernels:
        # Warm-up run so one-time costs (njit compilation, the cached sparse
        # view) are not billed to the measured pass.
        kernel(compiled_plane)
        baseline, baseline_s = timed(numpy_plane, kernel, f"{name} [numpy]")
        candidate, candidate_s = timed(compiled_plane, kernel, f"{name} [compiled]")
        identical = bool(np.array_equal(baseline, candidate))
        mismatched = mismatched or not identical
        speedup = baseline_s / candidate_s if candidate_s > 0 else float("inf")
        print(
            f"{name:>20s} {baseline_s:>9.4f} {candidate_s:>11.4f} {speedup:>7.2f}x "
            f"{'yes' if identical else 'NO':>9s}"
        )
    if args.profile:
        for label, stats in profiles:
            buffer = io.StringIO()
            stats.stream = buffer
            stats.sort_stats("cumulative").print_stats(args.top)
            print(f"\n=== profile: {label} (top {args.top} by cumulative time) ===")
            # Drop the pstats preamble (ordering banner etc.) down to the table.
            lines = buffer.getvalue().splitlines()
            for line in lines:
                if line.strip():
                    print(line)
    if mismatched:
        print("\nbench: compiled plane DIVERGED from the numpy oracle", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment_id in available_experiments():
            print(experiment_id)
        return 0

    if args.command == "run":
        try:
            table = run_experiment(args.experiment, scale=args.scale)
        except KeyError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(table.to_markdown())
        return 0

    if args.command == "sweep":
        return run_sweep_command(args)

    if args.command == "regress":
        return run_regress_command(args)

    if args.command == "query":
        return serve_query_workload(args.n, args.seed, args.repeat, args.mutate)

    if args.command == "serve":
        return run_serve_command(args)

    if args.command == "client":
        return run_client_command(args)

    if args.command == "serve-bench":
        return run_serve_bench_command(args)

    if args.command == "bench":
        return run_bench_command(args)

    if args.command == "lint":
        return run_lint_command(args)

    if args.command == "run-all":
        sections = [table.to_markdown() for table in run_all(scale=args.scale)]
        report = (
            "# Regenerated experiment tables\n\n"
            + f"Scale: {args.scale}\n\n"
            + "\n\n".join(sections)
            + "\n"
        )
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report)
            print(f"wrote {args.output}")
        else:
            print(report)
        return 0

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # e.g. `repro.cli lint | head`: the reader closed the pipe; suppress
        # the traceback and exit with the conventional SIGPIPE status.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 128 + 13
    raise SystemExit(code)
