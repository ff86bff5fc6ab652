"""Combinatorial Bernoulli factories over flow-based polytopes.

Sample vertices of circulation, matching, k-flow, and other flow polytopes
from coin access alone, with an exact-rational oracle for every identity the
sampler relies on.
"""

from .coins import CoinSource, SimulatedCoins
from .errors import (
    BoundaryCoin,
    DegenerateDistribution,
    DisconnectedEdges,
    FlowFactoryError,
    IdentityViolated,
    InvalidInstance,
    MaxRestartsExceeded,
    NoArborescence,
    NotCirculation,
    NotInPolytope,
    TooLargeForOracle,
)
from .factory import FlowSampler, SampleTrace, sample_path
from .graphs import (
    FlowPolytope,
    Graph,
    build_circulation_polytope,
    build_kflow_polytope,
    build_matching_polytope,
    enumerate_vertices,
    flip_edge,
    flip_tree,
    is_vertex,
    undirected_connected,
)
from .oracle import (
    BijectionWitness,
    ExactDistribution,
    check_bijection,
    check_marginal_identity,
    check_parallel_to_circ,
    check_positivity,
    check_root_independence,
    check_zls,
    eval_polynomial,
    eval_polynomial_factored,
    exact_output_distribution,
    random_interior_point,
    statistical_test,
)
from .spanning import (
    WeightedDigraph,
    count_arborescences,
    enumerate_directed_trees,
    sample_flip_tree,
)

__version__ = "0.1.0"
