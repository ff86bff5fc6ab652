"""Sampling procedures driven by coin access alone.

Contains the source-to-sink path sampler and the rejection sampler for
general flow polytopes.  External randomness (uniform choices) always comes
from a separate seeded generator, never from the coins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .coins import CoinSource, VertexTest
from .errors import (
    DisconnectedEdges,
    InvalidInstance,
    MaxRestartsExceeded,
    NoArborescence,
)
from .graphs import FlowPolytope, FlowVertex, undirected_connected
from .spanning import directed_tree_count, exit_map, flip_degree_bound, live_exits

DEFAULT_MAX_RESTARTS = 10_000_000


@dataclass
class SampleTrace:
    """Observability record for one accepted sample."""

    output: FlowVertex
    total_flips: int
    restarts: int


# ---------------------------------------------------------------------------
# Path sampling on a unit-flow DAG
# ---------------------------------------------------------------------------

def _unit_flow_dag_endpoints(P: FlowPolytope) -> tuple[int, int]:
    sources = [v for v in range(1, P.n + 1) if P.demand(v) == 1]
    sinks = [v for v in range(1, P.n + 1) if P.demand(v) == -1]
    others = [v for v in range(1, P.n + 1) if P.demand(v) not in (0, 1, -1)]
    if len(sources) != 1 or len(sinks) != 1 or others:
        raise InvalidInstance("path sampling needs unit demands: one source, one sink")
    # Topological sortability (Kahn).
    indeg = {v: 0 for v in range(1, P.n + 1)}
    for _, v in P.edges:
        indeg[v] += 1
    queue = [v for v in indeg if indeg[v] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for eid in P.graph.out_edges[u]:
            w = P.edges[eid][1]
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if seen != P.n:
        raise InvalidInstance("graph contains a directed cycle; not a DAG")
    return sources[0], sinks[0]


def sample_path(
    P: FlowPolytope,
    coins: CoinSource,
    rng,
    max_retries: int = DEFAULT_MAX_RESTARTS,
) -> FlowVertex:
    """Sample a source-to-sink path including each edge with probability p_e.

    At every node an outgoing edge is drawn proportional to its coin bias:
    pick one uniformly with external randomness, flip its coin, keep it on
    heads, retry on tails.
    """
    source, sink = _unit_flow_dag_endpoints(P)
    bits = [0] * len(P.edges)
    u = source
    retries = 0
    while u != sink:
        out = P.graph.out_edges[u]
        if not out:
            raise InvalidInstance(f"node {u} has no outgoing edge before the sink")
        while True:
            eid = out[rng.randrange(len(out))]
            if coins.flip(eid):
                break
            retries += 1
            if retries > max_retries:
                raise MaxRestartsExceeded("edge selection retry cap hit")
        bits[eid] = 1
        u = P.edges[eid][1]
    return tuple(bits)


# ---------------------------------------------------------------------------
# The flow-polytope factory
# ---------------------------------------------------------------------------

class FlowSampler:
    """Reusable sampler for one polytope; caches each vertex's flip-image exits.

    One round: flip every coin into a candidate flow f; restart unless f is a
    vertex.  Draw a directed tree uniformly from all of T(E) and restart if
    its flip under f is not an arborescence toward the root.  Re-flip the
    coin of every tree edge and restart at the first outcome that reproduces
    f on its edge; otherwise output f.

    Stage 1 is CoinSource.next_round_in with a VertexTest; the rounds it
    skips count as restarts.  The tree stage is one draw u = randrange(|T(E)|):
    u < B = flip_degree_bound names one of the B maps that pick an exit per
    non-root node of f's flip image, and K_f of them are the trees whose flip
    is an arborescence (see live_exits, exit_map).  So the round goes on with
    probability K_f/|T(E)| and a uniform such tree, re-flipped in node order.
    A vertex's exits are listed at its first pass with u < B and kept per mask.
    """

    def __init__(self, P: FlowPolytope, root: int | None = None):
        if not undirected_connected(P.graph):
            raise DisconnectedEdges("variable edges are disconnected as an undirected graph")
        self.P = P
        incident = P.graph.incident_nodes
        self.root = root if root is not None else incident[0]
        if self.root not in incident:
            raise InvalidInstance(f"root {self.root} touches no variable edge")
        self.total_trees = directed_tree_count(P.graph)
        if self.total_trees == 0:
            raise NoArborescence("edge set spans no directed tree")
        self.degree_bound = flip_degree_bound(P, self.root)
        self._m = len(P.edges)
        self._vertices = VertexTest(P)
        self._known: dict[int, tuple[FlowVertex, tuple]] = {}

    def sample(self, coins: CoinSource, rng, max_restarts: int = DEFAULT_MAX_RESTARTS) -> SampleTrace:
        # Only a CoinSource runs its own next_round_in: a wrapper that
        # forwards unknown attributes would otherwise skip its flip_round.
        if isinstance(coins, CoinSource):
            next_round_in = coins.next_round_in
        else:
            next_round_in = partial(CoinSource.next_round_in, coins)
        flip = coins.flip
        randrange = rng.randrange
        P, root, total_trees, bound = self.P, self.root, self.total_trees, self.degree_bound
        vertices, known, m = self._vertices, self._known, self._m
        restarts = 0
        reflips = 0
        while True:
            mask, rounds = next_round_in(vertices, max_restarts + 1 - restarts)
            if mask is None:
                raise MaxRestartsExceeded(f"no sample accepted within {max_restarts} restarts")
            restarts += rounds - 1
            if bound == 0:
                raise NoArborescence("a node has no exit in any flip image; no tree qualifies")
            u = randrange(total_trees)
            if u < bound:
                hit = known.get(mask)
                if hit is None:
                    f = tuple((mask >> i) & 1 for i in range(m))
                    hit = known[mask] = (f, live_exits(P, f, root))
                f, live = hit
                if (tree := exit_map(live, root, u)) is not None:
                    for eid in tree:
                        reflips += 1
                        if flip(eid) == f[eid]:
                            break
                    else:
                        flips = m * (restarts + 1) + reflips
                        return SampleTrace(output=f, total_flips=flips, restarts=restarts)
            restarts += 1
