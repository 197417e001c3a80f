import itertools
import math
import random

import pytest

from bruhat_degrees.bruhat import total_degree
from bruhat_degrees.graphs import (
    LabeledGraph,
    global_descent_count,
    strong_descent_graph,
    total_degree_graph,
    turan_graph,
    turan_number,
    up_edge_graph,
)
from bruhat_degrees.perm import Permutation, identity
from conftest import all_perms, shuffled


def brute_has_clique(g, k):
    if k == 1:
        return g.n >= 1
    return any(
        all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2))
        for combo in itertools.combinations(range(1, g.n + 1), k)
    )


def random_graph(rng, n, p=0.5):
    edges = [(a, b) for a in range(1, n) for b in range(a + 1, n + 1)
             if rng.random() < p]
    return LabeledGraph.from_edges(n, edges)


class TestLabeledGraph:
    def test_from_edges_and_queries(self):
        g = LabeledGraph.from_edges(4, [(1, 3), (3, 2)])
        assert g.edges() == [(1, 3), (2, 3)]
        assert g.edge_count == 2
        assert g.has_edge(3, 1) and not g.has_edge(1, 2)
        assert g.degree(3) == 2
        assert g.min_degree() == 0  # vertex 4 is isolated

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            LabeledGraph.from_edges(3, [(1, 4)])
        with pytest.raises(ValueError):
            LabeledGraph.from_edges(3, [(2, 2)])

    @pytest.mark.parametrize("edge,shown", [((True, 2), "(True,2)"), ((1, 2.5), "(1,2.5)"),
                                            ((1.0, 3), "(1.0,3)"), (("1", 2), "('1',2)")])
    def test_rejects_endpoints_that_are_not_ints(self, edge, shown):
        # True was taken as vertex 1, and a float raised TypeError from indexing
        with pytest.raises(ValueError) as err:
            LabeledGraph.from_edges(3, [(1, 3), edge])
        assert str(err.value) == f"edge {shown} has an endpoint that is not an integer"

    def test_edges_come_out_sorted(self):
        rng = random.Random(13)
        for _ in range(300):
            g = random_graph(rng, rng.randrange(0, 40), p=rng.random())
            assert g.edges() == sorted(g.edges())
            assert LabeledGraph.from_edges(g.n, g.edges()) == g

    def test_component_count(self):
        assert LabeledGraph.from_edges(5, []).component_count() == 5
        assert LabeledGraph.from_edges(5, [(1, 2), (2, 3)]).component_count() == 3
        assert LabeledGraph.from_edges(3, [(1, 2), (2, 3)]).component_count() == 1

    def test_has_clique_against_enumeration(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randrange(1, 10)
            g = random_graph(rng, n)
            for k in range(1, n + 2):
                assert g.has_clique(k) == brute_has_clique(g, k), (g.edges(), k)

    def test_has_clique_validates_k(self):
        with pytest.raises(ValueError):
            LabeledGraph.from_edges(2, []).has_clique(0)

    def test_triangle_free_matches_clique_test(self):
        rng = random.Random(12)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(1, 9), p=0.3)
            assert g.is_triangle_free() == (not brute_has_clique(g, 3))

    def test_complete_multipartite_recognition(self):
        bipartite = LabeledGraph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert bipartite.complete_multipartite_parts() == [[1, 2], [3, 4]]

        empty = LabeledGraph.from_edges(3, [])
        assert empty.complete_multipartite_parts() == [[1, 2, 3]]

        complete = LabeledGraph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
        assert complete.complete_multipartite_parts() == [[1], [2], [3]]

        path4 = LabeledGraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
        assert path4.complete_multipartite_parts() is None

        cycle5 = LabeledGraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
        assert cycle5.complete_multipartite_parts() is None

    def test_dot_export_exact(self):
        g = strong_descent_graph(Permutation([3, 4, 1, 2]), 1)
        assert g.to_dot() == (
            "graph G {\n"
            "  1;\n  2;\n  3;\n  4;\n"
            "  1 -- 3;\n  1 -- 4;\n  2 -- 3;\n  2 -- 4;\n"
            "}\n"
        )

    def test_json_export_exact_and_round_trip(self):
        g = strong_descent_graph(Permutation([3, 4, 1, 2]), 1)
        text = g.to_json()
        assert text == '{"n":4,"edges":[[1,3],[1,4],[2,3],[2,4]]}'
        assert LabeledGraph.from_json(text) == g

    @pytest.mark.parametrize("text", [
        '{"n":4}',  # no edges
        '{"n":4,"edges":[1,3]}',  # edges that are not pairs
        '{"n":4,"edges":[[1,3,4]]}',
        '{"n":4.0,"edges":[[1,3]]}',  # a float where an integer belongs
        '{"n":4,"edges":[[1,false]]}',  # a bool where an integer belongs
        '[4]',
    ])
    def test_json_import_rejects_bad_shapes(self, text):
        with pytest.raises(ValueError):
            LabeledGraph.from_json(text)


class TestDescentGraphs:
    def test_block_rotation_gives_k22(self):
        g = strong_descent_graph(Permutation([3, 4, 1, 2]), 1)
        assert g.edges() == [(1, 3), (1, 4), (2, 3), (2, 4)]
        assert g.complete_multipartite_parts() == [[1, 2], [3, 4]]

    def test_identity_graph_empty(self):
        assert strong_descent_graph(identity(4), 1).edge_count == 0

    def test_worked_example_edge_count(self):
        g = strong_descent_graph(Permutation([7, 9, 5, 2, 3, 8, 4, 1, 6]), 1)
        assert g.edge_count == 12

    def test_edge_count_is_degree(self):
        for p in all_perms(5):
            for r in range(1, 5):
                from bruhat_degrees.bruhat import rth_down_degree
                assert strong_descent_graph(p, r).edge_count == rth_down_degree(p, r)

    def test_triangle_free_exhaustive(self):
        for n in range(2, 8):
            for p in all_perms(n):
                assert strong_descent_graph(p, 1).is_triangle_free()

    def test_clique_free_exhaustive(self):
        for n in range(2, 7):
            for p in all_perms(n):
                for r in range(1, n):
                    assert not strong_descent_graph(p, r).has_clique(r + 2)


class TestTotalGraph:
    def test_edge_counts(self):
        assert total_degree_graph(Permutation([3, 4, 1, 2])).edge_count == 6
        assert total_degree_graph(Permutation([1, 2])).edge_count == 1
        assert total_degree_graph(Permutation([3, 1, 2])).edge_count == 3

    def test_union_decomposition_exhaustive(self):
        for n in range(2, 7):
            for p in all_perms(n):
                down = set(strong_descent_graph(p, 1).edges())
                up = set(up_edge_graph(p).edges())
                tot = total_degree_graph(p)
                assert not down & up
                assert set(tot.edges()) == down | up
                assert tot.edge_count == total_degree(p).total
                assert up_edge_graph(p).is_triangle_free()

    def test_min_degree_bound_exhaustive(self):
        for n in range(2, 8):
            bound = n // 2 + 1
            for p in all_perms(n):
                assert total_degree_graph(p).min_degree() <= bound

    def test_min_degree_example(self):
        assert total_degree_graph(Permutation([3, 4, 1, 2])).min_degree() <= 3


class TestTuran:
    def test_small_values(self):
        assert turan_number(2, 4) == 4
        assert turan_number(9, 9) == math.comb(9, 2)
        assert turan_number(1, 5) == 0

    def test_bipartite_closed_form(self):
        for n in range(2, 31):
            assert turan_number(2, n) == n * n // 4

    def test_graph_matches_number_and_part_sizes(self):
        for n in range(1, 13):
            for r in range(1, n + 1):
                g = turan_graph(r, n)
                assert g.edge_count == turan_number(r, n)
                parts = g.complete_multipartite_parts()
                assert len(parts) == r or g.edge_count == 0
                sizes = sorted(map(len, parts))
                assert sizes[-1] - sizes[0] <= 1 or g.edge_count == 0

    def test_clique_structure(self):
        assert not turan_graph(2, 5).has_clique(3)
        assert turan_graph(3, 6).has_clique(3)
        assert not turan_graph(3, 6).has_clique(4)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            turan_number(0, 4)
        with pytest.raises(ValueError):
            turan_graph(5, 4)


class TestGlobalDescents:
    def test_examples(self):
        assert global_descent_count(Permutation([3, 2, 1])) == 2
        assert global_descent_count(Permutation([1, 2, 3])) == 0
        assert global_descent_count(Permutation([2, 1, 4, 3])) == 0

    def test_components_offset_exhaustive(self):
        # calibrated on S_3..S_5 and pinned through S_7: the descent graph
        # has one more component than the reversed word has global descents
        for n in range(1, 8):
            for p in all_perms(n):
                comps = strong_descent_graph(p, 1).component_count()
                assert comps == global_descent_count(p.reverse_positions()) + 1

    def test_components_offset_sampled(self):
        rng = random.Random(3)
        for _ in range(25):
            p = shuffled(40, rng)
            comps = strong_descent_graph(p, 1).component_count()
            assert comps == global_descent_count(p.reverse_positions()) + 1
