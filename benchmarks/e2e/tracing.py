"""Outside-in span tracer for the end-to-end benchmark.

The tracer records spans from the benchmark's side only: :meth:`Tracer.install`
replaces each target function of :data:`TARGETS` (the public entry points of
one layer of ``repro``) with a wrapper that opens a span, calls the original
and closes the span.  Nothing under ``src/`` knows about it, and
:meth:`Tracer.uninstall` puts every original back.

A span carries its name, start, end, parent span and op id.  Spans nest per
thread (the serving layer runs its passes on an executor thread), every root
span belongs to one op, and a span's self time is its duration minus the
durations of its direct children -- so the self times of one op's spans add
up to the op's root spans exactly.  Spans stay in memory until
:meth:`Tracer.chrome_trace` and :meth:`Tracer.self_time_table` export them.
Each span also times the tracer's own bookkeeping around it (from entering
:meth:`Tracer.open` to its start, and from its end to leaving
:meth:`Tracer.close`): the tracing overhead the span adds, measured in place.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

#: (span name, module, qualified name) of every traced entry point.  The span
#: name's prefix up to the first dot is the layer.  A target the tree does not
#: define (renamed or deleted by a later change) is skipped and listed in
#: :attr:`Tracer.missing`, so the benchmark keeps running on such a tree.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("graphs.hop_limited", "repro.graphs.graph", "WeightedGraph.hop_limited_distance_matrix"),
    ("graphs.hop_diameter", "repro.graphs.graph", "WeightedGraph.hop_diameter"),
    ("localnet.explore", "repro.localnet.flooding", "explore_limited_distance_matrix"),
    ("core.skeleton", "repro.core.skeleton", "compute_skeleton"),
    ("core.publish", "repro.core.context", "SkeletonContext.published_skeleton_distances"),
    ("core.apsp", "repro.core.apsp", "apsp_exact"),
    ("core.routing", "repro.core.token_routing", "TokenRouter.route"),
    ("core.clique_sim", "repro.core.sssp", "sssp_exact"),
    ("core.clique_sim", "repro.core.kssp", "shortest_paths_via_clique"),
    ("core.clique_sim", "repro.core.diameter", "approximate_diameter"),
    ("core.repair", "repro.core.context", "SkeletonContext.repair"),
    ("hybrid.exchange", "repro.hybrid.network", "HybridNetwork.global_round"),
    ("hybrid.exchange", "repro.hybrid.network", "HybridNetwork.run_global_exchange"),
    ("hybrid.exchange", "repro.hybrid.network", "HybridNetwork.run_reliable_exchange"),
    ("util.hash", "repro.util.hashing", "KWiseHashFunction.many"),
    ("session.context", "repro.session", "HybridSession.context"),
    ("session.query", "repro.session", "HybridSession.apsp"),
    ("session.query", "repro.session", "HybridSession.sssp"),
    ("session.query", "repro.session", "HybridSession.sssp_batch"),
    ("session.query", "repro.session", "HybridSession.shortest_paths"),
    ("session.query", "repro.session", "HybridSession.diameter"),
    ("session.mutate", "repro.session", "HybridSession.add_edge"),
    ("session.mutate", "repro.session", "HybridSession.remove_edge"),
    ("session.mutate", "repro.session", "HybridSession.update_weight"),
    # The only boundary around one serving pass is this private method; if a
    # later tree renames it, passes are still covered by their session spans.
    ("serving.pass", "repro.serving.server", "QueryServer._execute_group"),
)


def _routing_attrs(args: tuple, kwargs: dict) -> dict[str, Any]:
    tokens = args[1] if len(args) > 1 else kwargs.get("tokens", ())
    return {"tokens": len(tokens)}


def _pass_attrs(args: tuple, kwargs: dict) -> dict[str, Any]:
    group = args[1] if len(args) > 1 else kwargs.get("group", ())
    return {"queries": [query.id for query in group]}


#: Per-span-name argument summaries recorded as span attributes.
ATTRS: dict[str, Callable[[tuple, dict], dict[str, Any]]] = {
    "core.routing": _routing_attrs,
    "serving.pass": _pass_attrs,
}


@dataclass
class Span:
    """One timed call into a traced layer."""

    index: int
    name: str
    start: float
    parent: int
    op: int
    thread: int
    end: float = 0.0
    child_time: float = 0.0
    #: perf_counter on entering open() and on leaving close().
    entered: float = 0.0
    left: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        """The layer the span belongs to (its name's first component)."""
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        """Wall seconds from open to close."""
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration not covered by direct child spans."""
        return self.duration - self.child_time

    @property
    def bookkeeping(self) -> float:
        """Seconds the tracer spent opening and closing this span."""
        return (self.start - self.entered) + (self.left - self.end)


def _resolve(module_name: str, qualname: str) -> tuple[Any, str, Any] | None:
    """The (owner, attribute, original) a target names, or None if absent."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attribute, None)
    if original is None or not callable(original):
        return None
    return owner, attribute, original


class Tracer:
    """In-memory span recorder installed around the :data:`TARGETS`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Targets that the tree under test does not define.
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_ids = itertools.count()
        self._patches: list[tuple[Any, str, Any, bool]] = []
        self.origin = time.perf_counter()

    # ------------------------------------------------------------ installing
    def install(self) -> None:
        """Wrap every available target (undone by :meth:`uninstall`)."""
        self.missing = []
        for name, module_name, qualname in TARGETS:
            resolved = _resolve(module_name, qualname)
            if resolved is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            owner, attribute, original = resolved
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attribute, wrapper)
                continue
            # A module-level function is also bound by name in every module
            # that imported it with ``from ... import``: rebind all of them.
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner: Any, attribute: str, wrapper: Any) -> None:
        own = attribute in vars(owner)
        self._patches.append((owner, attribute, vars(owner).get(attribute), own))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every wrapped attribute to its original."""
        for owner, attribute, original, own in reversed(self._patches):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches = []

    @contextmanager
    def installed(self) -> Iterator[Tracer]:
        """Context manager form of :meth:`install` / :meth:`uninstall`."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, name: str, original: Callable) -> Callable:
        describe = ATTRS.get(name)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self.open(name)
            if describe is not None:
                span.attrs.update(describe(args, kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                self.close(span)

        return traced

    # ---------------------------------------------------------------- spans
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def op(self, op_id: int | None = None) -> Iterator[int]:
        """Attribute every root span opened by this thread to one op."""
        op_id = next(self._op_ids) if op_id is None else op_id
        previous = getattr(self._local, "op", None)
        self._local.op = op_id
        try:
            yield op_id
        finally:
            self._local.op = previous

    def open(self, name: str) -> Span:
        """Open a span as a child of this thread's innermost open span."""
        entered = time.perf_counter()
        stack = self._stack()
        if stack:
            parent, op_id = stack[-1].index, stack[-1].op
        else:
            parent = -1
            op_id = getattr(self._local, "op", None)
            if op_id is None:
                op_id = next(self._op_ids)
        with self._lock:
            span = Span(len(self.spans), name, 0.0, parent, op_id, threading.get_ident())
            span.entered = entered
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        """Close ``span`` (the innermost open span of this thread)."""
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration
        span.left = time.perf_counter()

    # -------------------------------------------------------------- reports
    def ops(self) -> dict[int, list[Span]]:
        """Closed spans grouped by op id, in op order."""
        grouped: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.end:
                grouped.setdefault(span.op, []).append(span)
        return dict(sorted(grouped.items()))

    def self_time_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total self seconds and total seconds."""
        table: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if not span.end:
                continue
            row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += span.self_time
            row["total_s"] += span.duration
        return dict(sorted(table.items()))

    def layer_table(self) -> dict[str, float]:
        """Self seconds per layer."""
        layers: dict[str, float] = {}
        for name, row in self.self_time_table().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        return dict(sorted(layers.items()))

    def nesting_errors(self) -> list[str]:
        """Spans that are open, or not contained in their parent (same op, thread)."""
        errors = []
        for span in self.spans:
            if not span.end:
                errors.append(f"span {span.index} {span.name} never closed")
                continue
            if span.parent < 0:
                continue
            parent = self.spans[span.parent]
            if not (parent.start <= span.start <= span.end <= parent.end):
                errors.append(f"span {span.index} {span.name} escapes parent {parent.name}")
            if parent.op != span.op or parent.thread != span.thread:
                errors.append(f"span {span.index} {span.name} changes op or thread")
        return errors

    def chrome_trace(self) -> dict[str, Any]:
        """The spans as Chrome trace-event JSON (opens in Perfetto)."""
        threads: dict[int, int] = {}
        events = []
        for span in self.spans:
            if not span.end:
                continue
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": round((span.start - self.origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": 1,
                    "tid": tid,
                    "args": {
                        "op": span.op,
                        "parent": span.parent,
                        "self_us": round(span.self_time * 1e6, 3),
                        **span.attrs,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
