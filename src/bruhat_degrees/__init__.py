"""Degree statistics of permutations in the Hasse diagram of the strong
Bruhat order on S_n.

Core objects: ``Permutation`` (one-line notation, 1-based), strong descent
sets of every order, their graphs, extremal families for the down and total
degree, and the exact expectation of the down degree.  ``verification``
re-proves every structural fact by exhaustive search for small n and by
sampling at large n.
"""
from .bruhat import (
    DegreeProfile,
    StrongDescentSet,
    covered_by,
    covers_of,
    down_degree,
    is_cover,
    length_change,
    rth_down_degree,
    strong_descent_set,
    total_degree,
    up_degree,
)
from .extremal import (
    brute_force_max,
    extremal_down_permutations,
    extremal_total_permutations,
    max_down_degree,
    max_total_degree,
)
from .graphs import (
    LabeledGraph,
    global_descent_count,
    strong_descent_graph,
    total_degree_graph,
    turan_graph,
    turan_number,
    up_edge_graph,
)
from .perm import (
    InvalidPermutationError,
    Permutation,
    apply_transposition_left,
    identity,
    iter_permutations,
    longest_decreasing_subsequence,
    longest_element,
    ltr_maxima,
    parse_permutation,
    rank,
    unrank,
)
from .reconstruct import ValidationFailure, is_realizable, reconstruct
from .stats import (
    Histogram,
    check_increment_lemma,
    distribution,
    exhaustive_mean,
    expected_down_degree,
    harmonic,
    monte_carlo_mean,
    triple_sum_expectation,
)

__version__ = "0.1.0"

__all__ = ["DegreeProfile", "Histogram", "InvalidPermutationError", "LabeledGraph", "Permutation",
           "StrongDescentSet", "ValidationFailure", "apply_transposition_left", "brute_force_max",
           "check_increment_lemma", "covered_by", "covers_of", "distribution", "down_degree",
           "exhaustive_mean", "expected_down_degree", "extremal_down_permutations",
           "extremal_total_permutations", "global_descent_count", "harmonic", "identity",
           "is_cover", "is_realizable", "iter_permutations", "length_change",
           "longest_decreasing_subsequence", "longest_element", "ltr_maxima", "max_down_degree",
           "max_total_degree", "monte_carlo_mean", "parse_permutation", "rank", "reconstruct",
           "rth_down_degree", "strong_descent_graph", "strong_descent_set", "total_degree",
           "total_degree_graph", "triple_sum_expectation", "turan_graph", "turan_number", "unrank",
           "up_degree", "up_edge_graph"]
