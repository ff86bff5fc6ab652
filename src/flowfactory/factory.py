"""Sampling procedures driven by coin access alone.

Contains the source-to-sink path sampler and the rejection sampler for
general flow polytopes.  External randomness (uniform choices) always comes
from a separate seeded generator, never from the coins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from graphlib import CycleError, TopologicalSorter

from .coins import CoinSource
from .errors import (
    DisconnectedEdges,
    InvalidInstance,
    MaxRestartsExceeded,
    NoArborescence,
)
from .graphs import FlowPolytope, FlowVertex, undirected_connected
from .spanning import ExitTables, directed_tree_count, qualifying_tree_count

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

def _require_coin_per_edge(P: FlowPolytope, coins: CoinSource) -> None:
    if coins.num_edges != len(P.edges):
        raise InvalidInstance(
            f"the coin source has {coins.num_edges} coins for {len(P.edges)} edges")


@lru_cache(maxsize=256)
def _unit_flow_dag_endpoints(P: FlowPolytope) -> tuple[int, int]:
    sources = [v for v in range(1, P.n + 1) if P.demand(v) == 1]
    sinks = [v for v in range(1, P.n + 1) if P.demand(v) == -1]
    others = [v for v in range(1, P.n + 1) if P.demand(v) not in (0, 1, -1)]
    if len(sources) != 1 or len(sinks) != 1 or others:
        raise InvalidInstance("path sampling needs unit demands: one source, one sink")
    order = TopologicalSorter()
    for u, v in P.edges:
        order.add(v, u)
    try:
        order.prepare()
    except CycleError:
        raise InvalidInstance("graph contains a directed cycle; not a DAG") from None
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
    _require_coin_per_edge(P, coins)
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
    """Reusable sampler for one polytope; one per-node exit table serves both stages of a round.

    One round: flip every coin into a candidate flow f; restart unless f is a
    vertex.  Draw a directed tree uniformly from all of T(E) and restart if
    its flip under f is not an arborescence toward the root.  Re-flip the
    coin of every tree edge and restart at the first outcome that reproduces
    f on its edge; otherwise output f.

    Both stages read one ExitTables: f is a vertex iff every non-root node
    of its flip image has outdeg(v) - d(v) exits.  Stage 1 is one
    CoinSource.hits_in walk per sample with that test; every round it walks
    before the accepted one is a restart.  The walk hands over its hits a
    list at a time (a buffer's worth from SimulatedCoins), one loop runs the
    tree stage over them in round order, and the accept, or a raise, sends
    the walk the hit it stopped at.  The tree stage is one draw
    u = randrange(|T(E)|) per stage-1 pass: u < B = ExitTables.bound names
    one of the B maps that pick an exit per non-root node of f's flip image,
    and K_f of them are the trees whose flip is an arborescence.  So the
    round goes on with probability K_f/|T(E)| and a uniform such tree,
    re-flipped in node order.  The sampler keeps no state per vertex: each
    node's exits are read from its table, at most 2^deg(v) entries, by f's
    bits at its edges.

    The tree stage only rejects.  Whether any tree qualifies is decided once,
    at the sampler's first stage-1 pass and before any rng draw, by
    qualifying_tree_count: K_f is 0 for every vertex or for none, as two
    vertices' flip images differ by reversed directed cycles, which keep who
    reaches whom.  0 raises NoArborescence; otherwise `qualifies` is set.
    """

    def __init__(self, P: FlowPolytope, root: int | None = None):
        if not undirected_connected(P.graph):
            raise DisconnectedEdges("variable edges are disconnected as an undirected graph")
        self.P = P
        self.exits = ExitTables(P, root if root is not None else P.graph.incident_nodes[0])
        self.root = self.exits.root
        self.total_trees = directed_tree_count(P.graph)
        self.qualifies = False  # some tree's flip is an arborescence toward root, once a vertex has shown it

    def sample(self, coins: CoinSource, rng, max_restarts: int = DEFAULT_MAX_RESTARTS) -> SampleTrace:
        _require_coin_per_edge(self.P, coins)
        # Only a CoinSource runs its own hits_in: a wrapper that forwards
        # unknown attributes would otherwise skip its flip_round.
        walk = coins.hits_in if isinstance(coins, CoinSource) else partial(CoinSource.hits_in, coins)
        hits = walk(self.exits, max_restarts + 1)
        flip = coins.flip
        randrange = rng.randrange
        total_trees, bound, tree_of = self.total_trees, self.exits.bound, self.exits.tree
        m, reflips = len(self.P.edges), 0
        for masks, span in hits:
            if not self.qualifies:
                f = tuple((masks[span[0]] >> e) & 1 for e in range(m))
                if not qualifying_tree_count(self.P, f, self.root):
                    hits.send(span[0])
                    raise NoArborescence(f"no tree flips to an arborescence toward node {self.root}")
                self.qualifies = True
            for i in span:
                if (u := randrange(total_trees)) < bound and (tree := tree_of(mask := masks[i], u)) is not None:
                    for eid in tree:
                        reflips += 1
                        if flip(eid) == (mask >> eid) & 1:
                            break
                    else:
                        rounds = hits.send(i)
                        f = tuple((mask >> e) & 1 for e in range(m))
                        return SampleTrace(output=f, total_flips=m * rounds + reflips, restarts=rounds - 1)
        raise MaxRestartsExceeded(f"no sample accepted within {max_restarts} restarts")
