"""Relationship graphs, chordality testing, and simplicial elimination orderings."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .codes import MAX_INDEX, LineReader, indices_of
from .polarization import SquarefreeIdeal


# most vertices (graphs) or neurons (codes) whose orderings are enumerated exhaustively
MAX_ENUMERATED = 9


class NotSimplicialError(ValueError):
    """An ordering stopped being simplicial; the message names the failing step."""


class GraphParseError(ValueError):
    """Raised for malformed graph files."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n; edges are (i, j) pairs with i < j."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for i, j in self.edges:
            if not 1 <= i < j <= self.n:
                raise ValueError(f"bad edge ({i},{j}) for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, pairs) -> "Graph":
        norm = set()
        for a, b in pairs:
            if a == b:
                raise ValueError("self-loops are not allowed")
            norm.add((min(a, b), max(a, b)))
        return cls(n, frozenset(norm))

    def adjacency(self) -> list[int]:
        """Neighbor mask per vertex (index 0 unused); bit i-1 stands for vertex i."""
        adj = [0] * (self.n + 1)
        for i, j in self.edges:
            adj[i] |= 1 << (j - 1)
            adj[j] |= 1 << (i - 1)
        return adj

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def complement(self) -> "Graph":
        missing = [(i, j) for i, j in combinations(range(1, self.n + 1), 2)
                   if (i, j) not in self.edges]
        return Graph(self.n, frozenset(missing))


@dataclass(frozen=True)
class EliminationOrdering:
    """Removal order plus the residual degree of each vertex when it was removed."""

    order: tuple[int, ...]
    degrees: tuple[int, ...]

    def profile(self) -> tuple[int, ...]:
        """Multiset of simplicial degrees, as a sorted tuple."""
        return tuple(sorted(self.degrees))


def _is_clique(mask: int, adj: list[int]) -> bool:
    m = mask
    while m:
        b = m & -m
        v = b.bit_length()
        if mask & ~adj[v] & ~b:
            return False
        m ^= b
    return True


def _eliminate(adj: list[int], left: int, order=None, head=(), degs=()):
    """Every simplicial elimination ordering of the vertices in `left`, found by one walk.

    Each stage tries the vertex `order` removes next, or, with no order,
    every vertex left, lowest bit first. For each one that is simplicial
    among the vertices left it removes the vertex and walks the rest, with
    the vertex and its residual degree put after `head` and `degs`. Once no
    vertex is left it yields an EliminationOrdering, so with no order the
    first ordering yielded takes the lowest simplicial vertex at each stage.
    At the first stage where no vertex tried is simplicial it returns that
    step's number, and each caller returns it in turn, which ends the whole
    walk; a walk that is never stuck returns 0.

    With no order, a stuck stage proves that no ordering exists, so ending
    the walk there loses none: a graph with an elimination ordering is
    chordal (Fulkerson and Gross 1965), an induced subgraph of a chordal
    graph is chordal, and a nonempty chordal graph has a simplicial vertex
    (Dirac 1961), so on a chordal graph no stage of any branch gets stuck.
    """
    if not left:
        yield EliminationOrdering(head, degs)
        return 0
    stuck = True
    m = left if order is None else 1 << (order[len(head)] - 1)
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length()
        nb = adj[v] & left
        if _is_clique(nb, adj):
            stuck = False
            step = yield from _eliminate(adj, left ^ b, order, head + (v,), degs + (nb.bit_count(),))
            if step:
                return step
    return len(head) + 1 if stuck else 0


def simplicial_degree_profile(g: Graph, order: tuple[int, ...]) -> tuple[int, ...]:
    """Multiset of residual degrees along a removal order; raises NotSimplicialError otherwise."""
    order = tuple(order)
    if sorted(order) != list(range(1, g.n + 1)):
        raise ValueError("order must be a permutation of 1..n")
    try:
        return next(_eliminate(g.adjacency(), (1 << g.n) - 1, order)).profile()
    except StopIteration as stuck:
        step = stuck.value
        raise NotSimplicialError(f"vertex {order[step - 1]} is not simplicial at step {step}") from None


def chordality(g: Graph) -> EliminationOrdering | None:
    """A simplicial elimination ordering if g is chordal, else None.

    The first ordering of the elimination walk that `all_elimination_orderings`
    lists: an ordering proves g chordal (Fulkerson and Gross 1965), and on a
    chordal graph the walk never gets stuck (see `_eliminate`), so it takes
    the lowest simplicial vertex at each stage and needs no backtracking.
    """
    return next(_eliminate(g.adjacency(), (1 << g.n) - 1), None)


def chordless_cycle_witness(g: Graph) -> tuple[int, ...]:
    """A chordless cycle of length >= 4; g must not be chordal.

    The vertices are tried lowest first, and the search is complete for any
    vertex order: the first vertex v of a chordless cycle in the order still
    has both of its cycle neighbours u, w when it is reached, and the rest
    of the cycle is a u-w path avoiding N[v], so trying every non-adjacent
    pair of remaining neighbours finds one.
    """
    adj = g.adjacency()
    remaining = (1 << g.n) - 1
    for v in range(1, g.n + 1):
        nb = adj[v] & remaining
        for u in indices_of(nb):
            for w in indices_of(nb & ~adj[u] & ~(1 << (u - 1))):
                cycle = _cycle_through(g, adj, v, u, w)
                if cycle:
                    return cycle
        remaining ^= 1 << (v - 1)
    raise ValueError("the graph is chordal")


def _cycle_through(g: Graph, adj: list[int], v: int, u: int, w: int) -> tuple[int, ...] | None:
    # u, w are non-adjacent neighbors of v; a shortest u-w path avoiding the
    # rest of N[v] is induced, and closing it through v gives a chordless cycle.
    allowed = ((1 << g.n) - 1) & ~(adj[v] | (1 << (v - 1)))
    allowed |= (1 << (u - 1)) | (1 << (w - 1))
    prev = {u: None}
    queue = deque([u])
    while queue:
        a = queue.popleft()
        if a == w:
            path = []
            node = w
            while node is not None:
                path.append(node)
                node = prev[node]
            return (v, *reversed(path))
        nb = adj[a] & allowed
        while nb:
            b = nb & -nb
            c = b.bit_length()
            if c not in prev:
                prev[c] = a
                queue.append(c)
            nb ^= b
    return None


def all_elimination_orderings(g: Graph):
    """Every simplicial elimination ordering, lowest simplicial vertex first, by one elimination walk.

    On a non-chordal graph the walk ends at its first stuck stage (see `_eliminate`).
    """
    if g.n > MAX_ENUMERATED:
        raise ValueError(f"n={g.n} exceeds the enumeration guard of {MAX_ENUMERATED}")
    yield from _eliminate(g.adjacency(), (1 << g.n) - 1)


def relationship_graph(ideal: SquarefreeIdeal) -> Graph:
    """Edge {i,j} unless a generator x_i*x_j, x_i*y_j or x_j*y_i forbids it.

    Defined for quadratically generated ideals only.
    """
    forbidden = set()
    for g in ideal.gens:
        if g.degree != 2:
            raise ValueError(f"generator {g.render()} is not quadratic")
        xs = indices_of(g.xsupp)
        ys = indices_of(g.ysupp)
        if len(xs) == 2:
            forbidden.add(xs)
        elif len(xs) == 1 and len(ys) == 1:
            i, j = xs[0], ys[0]
            forbidden.add((min(i, j), max(i, j)))
        # a pure y_i*y_j generator never forbids an edge
    edges = frozenset(p for p in combinations(range(1, ideal.n + 1), 2) if p not in forbidden)
    return Graph(ideal.n, edges)


def parse_graph(text: str) -> Graph:
    """Read an edge-list file of "i-j" lines; comments and the "n=" header follow LineReader.

    Vertices are capped at MAX_INDEX.
    """
    reader = LineReader(text, MAX_INDEX, GraphParseError)
    pairs = []
    for line in reader:
        left, sep, right = line.partition("-")
        if not sep:
            raise reader.fail(f"expected i-j, got {line!r}")
        a, b = reader.index(left), reader.index(right)
        if a == b:
            raise reader.fail(f"bad edge {line!r}")
        pairs.append((a, b))
    return Graph.from_edges(reader.n, pairs)


def render_graph(g: Graph) -> str:
    lines = [f"n={g.n}"]
    lines += [f"{i}-{j}" for i, j in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def render_dot(g: Graph) -> str:
    lines = ["graph G {"]
    isolated = set(range(1, g.n + 1))
    for i, j in sorted(g.edges):
        isolated.discard(i)
        isolated.discard(j)
        lines.append(f"  {i} -- {j};")
    for v in sorted(isolated):
        lines.append(f"  {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
