#!/usr/bin/env python3
# Graph views: the strong descent graph, the total-degree graph, Turan
# graphs, and the structural facts connecting them.

from bruhat_degrees import (
    Permutation,
    global_descent_count,
    strong_descent_graph,
    total_degree_graph,
    turan_graph,
    turan_number,
    up_edge_graph,
)

p = Permutation([3, 4, 1, 2])

# The strong descent graph puts an edge {a,b} for every strong descent
# t(a,b).  For the block rotation [3,4,1,2] it is the complete bipartite
# graph on {1,2} x {3,4} — the Turan graph T_2(4).
g = strong_descent_graph(p, 1)
print("descent graph edges:", g.edges())
print("complete multipartite parts:", g.complete_multipartite_parts())
print("triangle-free:", g.is_triangle_free())
print()
print(g.to_dot())

# Descent graphs never contain triangles, so their edge count (= the down
# degree) is capped by the bipartite Turan number floor(n^2/4).  At order r
# the graph is K_{r+2}-free and t_{r+1}(n) caps the r-th degree.
n = 9
print("turan numbers t_r(9):", [turan_number(r, n) for r in range(1, n + 1)])
print("T_2(4) == descent graph above:",
      turan_graph(2, 4).edges() == [(1, 3), (1, 4), (2, 3), (2, 4)])

# The total-degree graph adds the up edges; the two edge sets never overlap.
big = Permutation([7, 9, 5, 2, 3, 8, 4, 1, 6])
print("\ntotal graph edge count:", total_degree_graph(big).edge_count,
      "= down", strong_descent_graph(big, 1).edge_count,
      "+ up", up_edge_graph(big).edge_count)
print("min degree of the total graph:", total_degree_graph(big).min_degree(),
      "(never exceeds floor(n/2)+1 =", big.n // 2 + 1, ")")

# Connected components of the descent graph mirror the global descents of
# the reversed word, offset by one.
for q in (Permutation([2, 1, 4, 3]), Permutation([3, 4, 1, 2]), big):
    comps = strong_descent_graph(q, 1).component_count()
    gd = global_descent_count(q.reverse_positions())
    print(f"{q}: components={comps}, global descents of reversal={gd}")
