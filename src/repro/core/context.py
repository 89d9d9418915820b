"""Prepared skeleton state shared between shortest-path queries.

Every algorithm of the paper pays the same ``Õ(√n)``-shaped preprocessing
before it answers anything: build a skeleton (Algorithm 6), optionally make
its edge set public knowledge (token dissemination) and solve APSP on it
locally, and optionally stand up the CLIQUE-simulation transport (helper sets
plus the shared routing hash).  :class:`SkeletonContext` packages that state
so it can be computed once and passed to any number of queries; the lazily
built pieces charge their rounds on first use under the phase the first
caller names and are free afterwards.

The entry points (:func:`repro.core.apsp.apsp_exact`,
:func:`repro.core.kssp.shortest_paths_via_clique`,
:func:`repro.core.sssp.sssp_exact`,
:func:`repro.core.diameter.approximate_diameter`,
:func:`repro.baselines.apsp_broadcast.apsp_broadcast_baseline`) accept an
optional prepared context; without one they build it inline with exactly the
calls, phases and RNG forks they issued before the extraction, so the cold
path is bit-identical.  :class:`repro.session.HybridSession` is the cache in
front of this module.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.clique_simulation import HybridCliqueTransport
from repro.core.skeleton import (
    Skeleton,
    compute_skeleton,
    local_distance_maps,
    skeleton_graph_from_limited,
)
from repro.core.token_routing import TokenRouter
from repro.graphs.graph import GraphDelta, WeightedGraph
from repro.graphs.skeleton_analysis import skeleton_hop_length
from repro.hybrid.errors import StaleContextError
from repro.hybrid.network import HybridNetwork
from repro.localnet.token_dissemination import disseminate_tokens

#: Fraction of exploration rows a delta batch may damage before
#: :meth:`SkeletonContext.repair` refuses and the owner rebuilds cold: past
#: this point the incremental path re-does most of the cold exploration's
#: work anyway, so the simpler full rebuild is preferred (DESIGN.md §12).
DEFAULT_DAMAGE_THRESHOLD = 0.5


def _estimated_damage(limited: np.ndarray, deltas: Sequence[GraphDelta]) -> np.ndarray:
    """Per-row estimate of which exploration rows a delta batch perturbs.

    The *decision* metric behind the damage threshold: a row ``s`` is counted
    as damaged when some mutated edge is plausibly on one of its ``d_h``
    shortest paths -- the edge is *tight* from ``s`` in the old matrix
    (``d_h(s,u) + w == d_h(s,v)`` either way round; removals and weight
    increases only matter on such rows) or the new weight creates an
    improving detour (``d_h(s,u) + w_new <= d_h(s,v)``; additions and weight
    decreases).  This is an estimate, not a certificate: correctness never
    depends on it, because :meth:`SkeletonContext.repair` *recomputes* the
    sound superset of rows (anything that can reach an endpoint within ``h``
    hops in the old or new topology).  At simulation scale that superset is
    usually "everyone" -- ``h`` rivals the diameter -- which would make a
    superset-based threshold refuse every repair; the tight estimate instead
    tracks how much of the published state actually moves (DESIGN.md §12).
    """
    damaged = np.zeros(limited.shape[0], dtype=bool)
    for delta in deltas:
        to_u = limited[:, delta.u]
        to_v = limited[:, delta.v]
        finite_u = np.isfinite(to_u)
        finite_v = np.isfinite(to_v)
        if delta.old_weight is not None:  # the edge existed: tightness test
            w = delta.old_weight
            # A tight edge has both ends finite; testing only those rows keeps
            # inf - inf (and its RuntimeWarning) out of the subtraction.
            both = finite_u & finite_v
            at_u, at_v = to_u[both], to_v[both]
            damaged[both] |= (np.abs(at_u + w - at_v) < 1e-9) | (np.abs(at_v + w - at_u) < 1e-9)
        if delta.weight is not None and (
            delta.old_weight is None or delta.weight < delta.old_weight
        ):  # the edge is new or got cheaper: improvement test
            w = delta.weight
            damaged |= finite_u & (to_u + w <= to_v)
            damaged |= finite_v & (to_v + w <= to_u)
    return damaged


def _changed_skeleton_edges(
    old_graph: WeightedGraph, new_graph: WeightedGraph
) -> list[tuple[int, int, int | None]]:
    """Skeleton edges (by skeleton index) whose weight changed, plus removals.

    Removed edges carry weight None -- the dissemination token is then a
    retraction.  Sorted for determinism.
    """
    old_edges = {(u, v): w for u, v, w in old_graph.edges()}
    new_edges = {(u, v): w for u, v, w in new_graph.edges()}
    changed: list[tuple[int, int, int | None]] = []
    for key in sorted(old_edges.keys() | new_edges.keys()):
        new_weight = new_edges.get(key)
        if old_edges.get(key) != new_weight:
            changed.append((key[0], key[1], new_weight))
    return changed


@dataclass
class SkeletonContext:
    """One skeleton plus the derived preprocessing state queries share.

    Attributes
    ----------
    network:
        The network the context was prepared on.
    skeleton:
        The constructed skeleton (with ``knowledge_matrix`` kept whenever the
        context is meant to serve more than one query kind).
    graph_version:
        :attr:`WeightedGraph.version` at construction time; a context whose
        version no longer matches the graph is stale (see :meth:`is_current`).
    skeleton_rounds:
        Rounds charged by the skeleton construction (shared by every query
        kind; an :meth:`extended` context inherits it -- the exploration is
        the same work).

    The lazy pieces -- the published skeleton distance matrix, the CLIQUE
    transport, the APSP token router -- are built on first request under the
    phase name the requesting query passes, charged once into their own
    counters (``publish_rounds`` / ``transport_rounds`` / ``router_rounds``),
    and cached.  Per-piece counters let the session charge a query's
    cold-equivalent accounting with exactly the pieces that query kind
    consumes (an SSSP query never pays for the APSP edge publication).
    """

    network: HybridNetwork
    skeleton: Skeleton
    graph_version: int
    skeleton_rounds: int
    publish_rounds: int = 0
    transport_rounds: int = 0
    router_rounds: int = 0
    #: Rounds charged by delta repairs that produced this context (summed
    #: across a repair chain).  Deliberately *not* part of the per-query
    #: cold-equivalent counters: a cold run never pays repair, so
    #: ``cold_rounds`` must not include it -- repair charges land in the
    #: owner's preprocessing ledger instead (DESIGN.md §12).
    repair_rounds: int = 0
    #: Stable name for phases charged by the lazy pieces when the *owner* of
    #: the context (rather than a query) realises them -- the session names
    #: contexts after their cache key so preparation phases are independent
    #: of which query arrives first.
    label: str = "skeleton-context"
    _skeleton_distances: np.ndarray | None = field(default=None, repr=False)
    _transport: HybridCliqueTransport | None = field(default=None, repr=False)
    _apsp_router: TokenRouter | None = field(default=None, repr=False)
    _extensions: dict[frozenset[int], "SkeletonContext"] = field(
        default_factory=dict, repr=False
    )

    # ----------------------------------------------------------------- status
    def is_current(self) -> bool:
        """Whether the underlying graph is unchanged since preparation."""
        return self.network.graph.version == self.graph_version

    @property
    def preparation_rounds(self) -> int:
        """Total rounds charged preparing this context (all pieces)."""
        return (
            self.skeleton_rounds
            + self.publish_rounds
            + self.transport_rounds
            + self.router_rounds
        )

    @property
    def apsp_preparation_rounds(self) -> int:
        """Preparation an APSP query consumes: skeleton + publication + router."""
        return self.skeleton_rounds + self.publish_rounds + self.router_rounds

    @property
    def simulation_preparation_rounds(self) -> int:
        """Preparation a CLIQUE-simulation query consumes: skeleton + transport."""
        return self.skeleton_rounds + self.transport_rounds

    # ------------------------------------------------------------ lazy pieces
    def published_skeleton_distances(self, phase: str) -> np.ndarray:
        """The all-pairs skeleton distance matrix after publishing ``E_S``.

        First call disseminates the skeleton edges (``Õ(|V_S|)`` rounds,
        charged under ``phase``) and solves APSP on the skeleton locally;
        later calls return the cached matrix for free -- every node already
        knows ``E_S``.
        """
        if self._skeleton_distances is None:
            rounds_before = self.network.metrics.total_rounds
            skeleton = self.skeleton
            edge_tokens: dict[int, list[tuple[int, int, int]]] = {}
            for u, v, w in skeleton.graph.edges():
                holder = skeleton.original_id(u)
                edge_tokens.setdefault(holder, []).append(
                    (skeleton.original_id(u), skeleton.original_id(v), w)
                )
            disseminate_tokens(self.network, edge_tokens, phase=phase)
            self._skeleton_distances = skeleton.graph.distance_matrix()
            self.publish_rounds += self.network.metrics.total_rounds - rounds_before
        return self._skeleton_distances

    def transport(self, phase: str) -> HybridCliqueTransport:
        """The CLIQUE-simulation transport for this skeleton (built once).

        Construction announces the skeleton membership and builds the helper
        sets and the shared routing hash of Corollary 4.1 -- all reusable
        across queries; only the per-round routing instances are paid per
        query.  Callers measuring CLIQUE rounds per query must diff
        ``transport.rounds_used`` around their simulation.
        """
        if self._transport is None:
            rounds_before = self.network.metrics.total_rounds
            self._transport = HybridCliqueTransport(self.network, self.skeleton, phase=phase)
            self.transport_rounds += self.network.metrics.total_rounds - rounds_before
        return self._transport

    def apsp_router(self, phase: str) -> TokenRouter:
        """The Theorem 1.1 token router (senders = V, receivers = V_S).

        The helper sets and the shared hash are a pure function of the
        endpoint populations, so one router serves every APSP query on this
        skeleton; its setup rounds are charged on first build only.
        """
        if self._apsp_router is None:
            rounds_before = self.network.metrics.total_rounds
            skeleton = self.skeleton
            self._apsp_router = TokenRouter(
                self.network,
                senders=list(range(self.network.n)),
                receivers=list(skeleton.nodes),
                max_tokens_per_sender=max(1, skeleton.size),
                max_tokens_per_receiver=self.network.n,
                phase=phase,
            )
            self.router_rounds += self.network.metrics.total_rounds - rounds_before
        return self._apsp_router

    # ----------------------------------------------------------------- repair
    def repair(
        self,
        deltas: Sequence[GraphDelta],
        *,
        damage_threshold: float = DEFAULT_DAMAGE_THRESHOLD,
    ) -> "SkeletonContext" | None:
        """Patch this context to the current graph, or None for a cold rebuild.

        Given the contiguous :class:`~repro.graphs.graph.GraphDelta` batch
        that carried the graph from this context's ``graph_version`` to the
        current one, re-runs the depth-``h`` exploration *only from the
        damaged sources* (rows of the kept ``knowledge_matrix`` that could
        see a mutated endpoint in the old or new topology), patches the
        matrix in a copy, rebuilds the skeleton graph and local distance
        maps from it, and -- when the skeleton edge publication had been
        materialised -- re-disseminates only the changed/retracted skeleton
        edges through the token-dissemination machinery.  On weight-only
        delta batches the CLIQUE transport and the APSP router survive:
        helper sets, the routing hash and the padding plan are functions of
        the hop topology, the skeleton membership and the RNG labels alone,
        so they are exactly what a cold rebuild would reconstruct.

        Determinism contract (DESIGN.md §12): skeleton sampling is a pure
        function of the seed and the phase label, so a cold rebuild after
        the mutation draws the *same* skeleton node set; every patched row
        equals the row a full re-exploration would produce (the batched
        kernels compute rows independently per source).  A repaired context
        is therefore bit-identical to a cold rebuild in its distance
        matrices, routing plans and RNG fork labels -- only the rounds paid
        to get there differ, and those are charged under
        ``<label>:repair:*`` phases and accumulated in ``repair_rounds``.

        Returns None -- leaving ``self`` untouched -- when repair is not
        worthwhile or not possible: the exploration outcome was not kept, a
        delta endpoint is a skeleton member, the cold build had doubled the
        exploration depth for connectivity, the estimated damage
        (:func:`_estimated_damage`, the fraction of rows whose published
        distances plausibly move) exceeds ``damage_threshold``, the delta
        log did not cover the version gap (empty batch), or the patched
        skeleton comes out disconnected (detected after the repair flood;
        those rounds are honestly kept).
        """
        network = self.network
        if self.is_current():
            return self
        if not deltas:
            return None
        base = self.skeleton
        limited = base.knowledge_matrix
        if limited is None:
            return None
        if any(delta.u in base.index_of or delta.v in base.index_of for delta in deltas):
            return None
        expected_hop_length = skeleton_hop_length(
            network.n,
            1.0 / base.sampling_probability,
            xi=network.config.skeleton_xi,
        )
        if base.hop_length != expected_hop_length:
            # The cold build doubled h until the skeleton connected; replaying
            # that search incrementally is not worth the complexity.
            return None
        if int(_estimated_damage(limited, deltas).sum()) > damage_threshold * network.n:
            return None
        # The rows actually recomputed are the sound superset: anything that
        # could reach a mutated endpoint within h hops, old or new topology.
        endpoints = sorted({node for delta in deltas for node in (delta.u, delta.v)})
        damaged = np.isfinite(limited[:, endpoints]).any(axis=1)
        local = network.local_graph
        for ball in local.balls_many(endpoints, base.hop_length):
            damaged[ball] = True
        sources = [int(source) for source in np.flatnonzero(damaged)]

        # The repair flood: the delta records propagate h hops so every
        # damaged source can re-derive its d_h row -- min(h, D) local rounds,
        # like the cold exploration, but none of the cold global phases.
        rounds_before = network.metrics.total_rounds
        network.charge_local_rounds(base.hop_length, phase=self.label + ":repair:exploration")
        patched = np.array(limited, copy=True)
        if sources:
            patched[sources] = local.hop_limited_distance_matrix(sources, base.hop_length)
        new_graph = skeleton_graph_from_limited(patched, base.nodes)
        if len(base.nodes) > 1 and not new_graph.is_connected():
            return None
        weight_only = all(not delta.topological for delta in deltas)
        skeleton = Skeleton(
            nodes=list(base.nodes),
            index_of=dict(base.index_of),
            graph=new_graph,
            hop_length=base.hop_length,
            sampling_probability=base.sampling_probability,
            local_distances=local_distance_maps(patched, base.nodes),
            rounds_charged=base.rounds_charged,
            knowledge_matrix=patched,
        )
        repaired = SkeletonContext(
            network=network,
            skeleton=skeleton,
            graph_version=network.graph.version,
            skeleton_rounds=self.skeleton_rounds,
            publish_rounds=self.publish_rounds,
            # On a topology delta the transport/router are dropped and their
            # counters restart: the lazy rebuild re-charges them exactly as a
            # cold context would.
            transport_rounds=self.transport_rounds if weight_only else 0,
            router_rounds=self.router_rounds if weight_only else 0,
            label=self.label,
        )
        if self._skeleton_distances is not None:
            changed = _changed_skeleton_edges(base.graph, new_graph)
            if changed:
                edge_tokens: dict[int, list[tuple[int, int, int | None]]] = {}
                for u, v, weight in changed:
                    holder = skeleton.original_id(u)
                    edge_tokens.setdefault(holder, []).append(
                        (skeleton.original_id(u), skeleton.original_id(v), weight)
                    )
                disseminate_tokens(network, edge_tokens, phase=self.label + ":repair:publish")
            repaired._skeleton_distances = new_graph.distance_matrix()
        if weight_only:
            repaired._transport = self._transport
            repaired._apsp_router = self._apsp_router
            if repaired._transport is not None:
                # The transport's exchange plan only reads skeleton membership
                # (unchanged); point it at the repaired skeleton so later
                # callers never see the stale edge weights through it.
                repaired._transport.skeleton = skeleton
        repaired.repair_rounds = self.repair_rounds + (
            network.metrics.total_rounds - rounds_before
        )
        return repaired

    # -------------------------------------------------------------- extension
    def extended(self, members: Sequence[int]) -> "SkeletonContext" | None:
        """A derived context whose skeleton additionally contains ``members``.

        Algorithm 6 adds a query's source to the skeleton deterministically
        (Lemma 4.5).  When the base context kept the full exploration outcome
        (``knowledge_matrix``), the enlarged skeleton's edges and per-node
        distance maps are already known at every node -- the depth-``h``
        exploration delivered ``d_h(v, u)`` for *all* ``u``, sampled or not --
        so the derived skeleton costs no additional rounds; only its identity
        still has to be announced, which the query's own phases cover.

        Returns None when the extension is not usable: the exploration was
        not kept, or the enlarged skeleton is disconnected at the base hop
        length (the caller then prepares a fresh context with the member
        forced in, exactly like a cold run).  Derived contexts are cached per
        member set and share the base exploration matrix.

        Raises :class:`~repro.hybrid.errors.StaleContextError` when the base
        is stale: a derived context copies ``graph_version`` from its base,
        so extending a stale base would mint a context that *looks* current
        while its distances describe a graph that no longer exists
        (DESIGN.md §12) -- the owner must repair or rebuild first.
        """
        for member in members:
            if not 0 <= member < self.network.n:
                raise ValueError(f"skeleton member {member} outside the network")
        if not self.is_current():
            raise StaleContextError(
                f"cannot extend a stale context: graph at version "
                f"{self.network.graph.version}, context built at {self.graph_version}"
            )
        extra = frozenset(members) - frozenset(self.skeleton.nodes)
        if not extra:
            return self
        if self.skeleton.knowledge_matrix is None:
            return None
        cached = self._extensions.get(extra)
        if cached is not None:
            return cached

        base = self.skeleton
        limited = base.knowledge_matrix
        nodes = sorted(set(base.nodes) | extra)
        index_of = {node: index for index, node in enumerate(nodes)}
        skeleton_graph = skeleton_graph_from_limited(limited, nodes)
        if len(nodes) > 1 and not skeleton_graph.is_connected():
            return None

        local_distances = local_distance_maps(limited, nodes)
        skeleton = Skeleton(
            nodes=nodes,
            index_of=index_of,
            graph=skeleton_graph,
            hop_length=base.hop_length,
            sampling_probability=base.sampling_probability,
            local_distances=local_distances,
            rounds_charged=0,
            knowledge_matrix=limited,
        )
        derived = SkeletonContext(
            network=self.network,
            skeleton=skeleton,
            graph_version=self.graph_version,
            skeleton_rounds=self.skeleton_rounds,
            label=self.label + "+" + ",".join(str(node) for node in sorted(extra)),
        )
        self._extensions[extra] = derived
        return derived


def prepare_skeleton_context(
    network: HybridNetwork,
    sampling_probability: float,
    forced_members: Sequence[int] = (),
    phase: str = "skeleton",
    ensure_connected: bool = True,
    keep_local_knowledge: bool = True,
    label: str | None = None,
) -> SkeletonContext:
    """Run the shared preprocessing prologue: one skeleton, wrapped for reuse.

    Calls :func:`~repro.core.skeleton.compute_skeleton` with exactly the
    given phase (so a cold entry point that prepares its context inline
    forks the same RNG labels and charges the same phases as the
    pre-extraction code did) and records the rounds as the context's
    preparation cost.
    """
    rounds_before = network.metrics.total_rounds
    skeleton = compute_skeleton(
        network,
        sampling_probability,
        forced_members=forced_members,
        phase=phase,
        ensure_connected=ensure_connected,
        keep_local_knowledge=keep_local_knowledge,
    )
    return SkeletonContext(
        network=network,
        skeleton=skeleton,
        graph_version=network.graph.version,
        skeleton_rounds=network.metrics.total_rounds - rounds_before,
        label=phase if label is None else label,
    )
