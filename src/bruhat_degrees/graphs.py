"""Graph views of descent data, Turan graphs, and the predicates they feed.

Three graphs on the vertex set {1..n} are attached to a permutation p:

- the strong descent graph, whose edges are the strong descents of p
  (order r generalizes this to the r-th strong descent graph);
- the up-edge graph, whose edges are the transpositions raising the
  inversion number by exactly 1;
- the total-degree graph, their edge-disjoint union, whose edge count is
  the valency of p in the Hasse diagram.

Adjacency is stored as one bitmask int per vertex, which keeps clique
search, component counting and complement tricks cheap.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import bruhat
from .perm import Permutation, _check_degree_cap


@dataclass(frozen=True)
class LabeledGraph:
    """Undirected simple graph on vertices {1..n}; immutable."""

    n: int
    rows: tuple[int, ...]  # rows[v-1] has bit u-1 set iff {u,v} is an edge

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "LabeledGraph":
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        _check_degree_cap(n)
        rows = [0] * n
        for a, b in edges:
            if type(a) is not int or type(b) is not int:
                raise ValueError(f"edge ({a!r},{b!r}) has an endpoint that is not an integer")
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"edge ({a},{b}) out of range 1..{n}")
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            rows[a - 1] |= 1 << (b - 1)
            rows[b - 1] |= 1 << (a - 1)
        return cls(n, tuple(rows))

    def edges(self) -> list[tuple[int, int]]:
        """Edges as sorted (a, b) pairs with a < b: a row by row, b by bit."""
        out = []
        for v in range(self.n):
            m = self.rows[v] >> (v + 1) << (v + 1)
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                out.append((v + 1, u + 1))
        return out

    @property
    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, a: int, b: int) -> bool:
        return bool(self.rows[a - 1] >> (b - 1) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v - 1].bit_count()

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("empty graph has no vertex degrees")
        return min(r.bit_count() for r in self.rows)

    def component_count(self) -> int:
        """Connected components, isolated vertices included."""
        return len(_components(self.rows))

    def has_clique(self, k: int) -> bool:
        """Exact test for a complete subgraph on k vertices.

        Branch and bound over bitmask candidate sets.  Each node colours its
        pool greedily once and branches from the highest colour class down:
        the vertices not yet tried then carry colours 1..c, so a clique among
        them has at most c vertices, and the node gives up at the first
        vertex whose colour c is below the number still needed.
        """
        if k < 1:
            raise ValueError("clique size must be >= 1")
        if k == 1:
            return self.n >= 1
        rows = self.rows

        def expand(pool: int, need: int) -> bool:
            if need == 1:
                return pool != 0
            if pool.bit_count() < need:
                return False
            order = []  # (vertex, colour), colour classes in increasing order
            colour = 0
            rest = pool
            while rest:
                colour += 1
                avail = rest
                while avail:
                    v = (avail & -avail).bit_length() - 1
                    avail &= ~rows[v] & (avail - 1)
                    rest &= ~(1 << v)
                    order.append((v, colour))
            for v, c in reversed(order):
                if c < need:
                    return False
                if expand(pool & rows[v], need - 1):
                    return True
                pool &= ~(1 << v)
            return False

        return expand((1 << self.n) - 1, k)

    def is_triangle_free(self) -> bool:
        return not self.has_clique(3)

    def complete_multipartite_parts(self) -> list[list[int]] | None:
        """The partition into independent sides if the graph is complete
        multipartite, else None.

        A graph is complete multipartite iff its complement is a disjoint
        union of cliques; the parts are the complement's components, listed
        by their lowest vertex.
        """
        n = self.n
        full = (1 << n) - 1
        crows = [full & ~self.rows[v] & ~(1 << v) for v in range(n)]
        parts = []
        for comp in _components(crows):
            part = [v for v in range(n) if comp >> v & 1]
            if any(comp & ~(crows[v] | (1 << v)) for v in part):
                return None  # component is not a complement clique
            parts.append([v + 1 for v in part])
        return parts

    def to_dot(self) -> str:
        lines = ["graph G {"]
        lines += [f"  {v};" for v in range(1, self.n + 1)]
        lines += [f"  {a} -- {b};" for a, b in self.edges()]
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.edges()]},
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "LabeledGraph":
        (n,), edges = bruhat._json_fields(text, ("n",), "edges")
        return cls.from_edges(n, edges)


def _components(rows: Sequence[int]) -> list[int]:
    """The connected components of the graph whose vertex v has the neighbour
    bitmask rows[v], as vertex bitmasks in order of their lowest vertex."""
    unseen = (1 << len(rows)) - 1
    comps = []
    while unseen:
        frontier = unseen & -unseen
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            m = frontier
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                nxt |= rows[v]
            frontier = nxt & ~comp
        comps.append(comp)
        unseen &= ~comp
    return comps


def strong_descent_graph(p: Permutation, r: int = 1) -> LabeledGraph:
    """Graph whose edges are the r-th strong descents of p."""
    descents = bruhat.strong_descent_set(p, r)
    return LabeledGraph.from_edges(p.n, descents.pairs())


def up_edge_graph(p: Permutation) -> LabeledGraph:
    """Graph whose edges are the transpositions raising inv(p) by exactly 1."""
    return LabeledGraph.from_edges(p.n, bruhat._up_pairs_word(p.values))


def total_degree_graph(p: Permutation) -> LabeledGraph:
    """Edge-disjoint union of the strong descent graph and the up-edge graph;
    its edge count is the total degree of p in the Hasse diagram.  Its down
    edges come from the cover sweep of p, not from ``strong_descent_set``,
    which scans p^-1, so comparing the two graphs compares the two routes."""
    down, up = bruhat._cover_pairs_word(p.values)
    return LabeledGraph.from_edges(p.n, down + up)


def turan_graph(r: int, n: int) -> LabeledGraph:
    """Complete r-partite graph on n vertices with parts as equal as possible.

    Part sizes are ceil(n/r) for the first n mod r parts and floor(n/r) for
    the rest; each part takes a consecutive run of labels starting at 1.
    """
    if not 1 <= r <= n:
        raise ValueError(f"part count r={r} out of range 1..{n}")
    q, s = divmod(n, r)
    sizes = [q + 1] * s + [q] * (r - s)
    bounds = []
    start = 1
    for size in sizes:
        bounds.append(range(start, start + size))
        start += size
    edges = []
    for i in range(len(bounds)):
        for j in range(i + 1, len(bounds)):
            edges += [(a, b) for a in bounds[i] for b in bounds[j]]
    return LabeledGraph.from_edges(n, edges)


def turan_number(r: int, n: int) -> int:
    """Edge count of the Turan graph: C(n,2) minus the within-part pairs."""
    if not 1 <= r <= n:
        raise ValueError(f"part count r={r} out of range 1..{n}")
    q, s = divmod(n, r)
    return math.comb(n, 2) - s * math.comb(q + 1, 2) - (r - s) * math.comb(q, 2)


def global_descent_count(p: Permutation) -> int:
    """Positions 1 <= i < n where every value in p(1..i) exceeds every value
    in p(i+1..n)."""
    n = p.n
    suffix_maxes = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_maxes[i] = max(suffix_maxes[i + 1], p.values[i])
    count = 0
    prefix_min = n + 1
    for i in range(n - 1):
        prefix_min = min(prefix_min, p.values[i])
        if prefix_min > suffix_maxes[i + 1]:
            count += 1
    return count
