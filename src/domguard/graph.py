"""Immutable bitmask graphs: construction, families, operators and structural queries.

Vertices are always 0..n-1 and every vertex subset is a Python int bitmask,
so neighborhoods, covers and search states are manipulated with &, |, ~ and
bit_count().  ``Graph`` caps the order at VERTEX_CAP, checked before it reads
a single edge; builders pass their edges lazily so an oversized order is
rejected before it is built.
A vertex has no name but its index: each family and operator documents how
it numbers the vertices it builds.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

VERTEX_CAP = 1024

HAMILTONIAN_SEARCH_CAP = 24


class GraphError(ValueError):
    """Raised for invalid graph construction or operator preconditions."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Simple undirected graph on vertices 0..n-1 with one adjacency bitmask per vertex.

    A graph is its adjacency: two graphs are equal exactly when their
    adjacency rows are.  Instances are immutable after construction and safe
    to share between threads or processes.
    """

    __slots__ = ("n", "adj", "closed")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise GraphError(f"vertex count must be >= 0, got {n}")
        if n > VERTEX_CAP:
            raise GraphError(f"order {n} exceeds the vertex cap {VERTEX_CAP}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self._fill(rows)

    @classmethod
    def _from_rows(cls, rows: Sequence[int]) -> "Graph":
        """A graph on adjacency rows that are already symmetric and loop-free."""
        g = object.__new__(cls)
        g._fill(rows)
        return g

    def _fill(self, rows: Sequence[int]) -> None:
        # Set the slots directly: the immutability guard in __setattr__
        # would make each assignment several times slower.
        fill = object.__setattr__
        fill(self, "n", len(rows))
        fill(self, "adj", tuple(rows))
        fill(self, "closed", tuple([r | 1 << v for v, r in enumerate(rows)]))

    # Mutation is blocked once _fill has set "closed", its last slot.
    def __setattr__(self, name, value):
        if hasattr(self, "closed"):
            raise AttributeError("Graph is immutable")
        object.__setattr__(self, name, value)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return iter_bits(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    @property
    def edge_count(self) -> int:
        return sum(self.adj[v].bit_count() for v in range(self.n)) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"


class VertexSet:
    """A subset of the vertices of a graph of order ``universe``, stored as a bitmask."""

    __slots__ = ("bits", "universe")

    def __init__(self, bits: int, universe: int):
        if universe < 0:
            raise GraphError(f"universe {universe} out of range")
        if bits < 0 or bits >> universe:
            raise GraphError(f"bitmask {bits:#x} has members outside 0..{universe - 1}")
        # Set the slots directly, as Graph._fill does: the guard in
        # __setattr__ would make each assignment several times slower.
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "universe", universe)

    def __setattr__(self, name, value):
        if hasattr(self, "universe"):
            raise AttributeError("VertexSet is immutable")
        object.__setattr__(self, name, value)

    @classmethod
    def from_indices(cls, indices: Iterable[int], universe: int) -> "VertexSet":
        bits = 0
        for i in indices:
            if not 0 <= i < universe:
                raise GraphError(f"vertex {i} outside universe 0..{universe - 1}")
            bits |= 1 << i
        return cls(bits, universe)

    @classmethod
    def from_text(cls, text: str, universe: int) -> "VertexSet":
        """Parse the comma-separated index form, e.g. ``"0,2,5"``; "" is the empty set."""
        text = text.strip()
        if not text:
            return cls(0, universe)
        try:
            indices = [int(tok) for tok in text.split(",")]
        except ValueError as exc:
            raise GraphError(f"bad vertex set text {text!r}") from exc
        return cls.from_indices(indices, universe)

    def to_text(self) -> str:
        return ",".join(str(v) for v in self)

    def members(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.universe and bool(self.bits >> v & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def _check(self, other: "VertexSet"):
        if self.universe != other.universe:
            raise GraphError("vertex sets over different universes")

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.bits | other.bits, self.universe)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.bits & other.bits, self.universe)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.bits & ~other.bits, self.universe)

    def complement(self) -> "VertexSet":
        return VertexSet(~self.bits & ((1 << self.universe) - 1), self.universe)

    def __eq__(self, other) -> bool:
        return (isinstance(other, VertexSet) and self.bits == other.bits
                and self.universe == other.universe)

    def __hash__(self) -> int:
        return hash((self.bits, self.universe))

    def __repr__(self) -> str:
        return f"VertexSet({{{self.to_text()}}}, universe={self.universe})"


# ---------------------------------------------------------------------------
# Family generators.  Canonical numbering is documented per family: paths and
# cycles are numbered along the walk, stars put the center at vertex 0,
# hypercubes/Hamming graphs inherit the iterated-product numbering.
# ---------------------------------------------------------------------------

def path(t: int) -> Graph:
    if t < 1:
        raise GraphError(f"path order must be >= 1, got {t}")
    return Graph(t, ((i, i + 1) for i in range(t - 1)))


def cycle(t: int) -> Graph:
    if t < 3:
        raise GraphError(f"cycle order must be >= 3, got {t}")
    return Graph(t, ((i, (i + 1) % t) for i in range(t)))


def complete(t: int) -> Graph:
    if t < 1:
        raise GraphError(f"complete graph order must be >= 1, got {t}")
    return Graph(t, ((u, v) for u in range(t) for v in range(u + 1, t)))


def star(t: int) -> Graph:
    """Star of order t (center 0, t-1 leaves); requires t >= 2."""
    if t < 2:
        raise GraphError(f"star order must be >= 2, got {t}")
    return Graph(t, ((0, v) for v in range(1, t)))


def empty(t: int) -> Graph:
    if t < 1:
        raise GraphError(f"empty graph order must be >= 1, got {t}")
    return Graph(t)


def hamming(k: int, t: int) -> Graph:
    """Iterated Cartesian product of k copies of the complete graph of order t."""
    if k < 1 or t < 1:
        raise GraphError(f"hamming parameters must be positive, got ({k},{t})")
    g = complete(t)
    for _ in range(k - 1):
        g = cartesian_product(g, complete(t))
    return g


def hypercube(d: int) -> Graph:
    if d < 1:
        raise GraphError(f"hypercube dimension must be >= 1, got {d}")
    return hamming(d, 2)


_FAMILIES = {
    "path": (path, 1),
    "cycle": (cycle, 1),
    "complete": (complete, 1),
    "star": (star, 1),
    "empty": (empty, 1),
    "hypercube": (hypercube, 1),
    "hamming": (hamming, 2),
}


def generate(family: str, *params: int) -> Graph:
    """Build a named family graph, e.g. generate("path", 4) or generate("hamming", 2, 3)."""
    if family not in _FAMILIES:
        raise GraphError(f"unknown family {family!r}; known: {sorted(_FAMILIES)}")
    fn, arity = _FAMILIES[family]
    if len(params) != arity:
        raise GraphError(f"family {family!r} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)


# ---------------------------------------------------------------------------
# Graph operators.
# ---------------------------------------------------------------------------

def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product with vertex (x, y) numbered x*n(h) + y.

    (x,y) ~ (x',y') iff x == x' and yy' is an edge of h, or xx' is an edge of
    g and y == y'.  The numbering is part of the contract: guard placements on
    products must be reproducible across runs.
    """
    hn = h.n
    fibers = ((x * hn + y, x * hn + y2) for x in range(g.n) for y, y2 in h.edges())
    rungs = ((x * hn + y, x2 * hn + y) for x, x2 in g.edges() for y in range(hn))
    return Graph(g.n * hn, chain(fibers, rungs))


def corona(g: Graph, t: int) -> Graph:
    """Attach t new pendant vertices to every vertex of g.

    Original vertices keep their indices; the pendant block of vertex v
    occupies n + v*t .. n + v*t + t - 1.
    """
    if t < 1:
        raise GraphError(f"corona pendant count must be >= 1, got {t}")
    n = g.n
    pendants = ((v, n + v * t + j) for v in range(n) for j in range(t))
    return Graph(n * (t + 1), chain(g.edges(), pendants))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus every edge between the two sides."""
    n = g.n
    right = ((n + u, n + v) for u, v in h.edges())
    across = ((u, n + v) for u in range(n) for v in range(h.n))
    return Graph(n + h.n, chain(g.edges(), right, across))


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph._from_rows([full & ~r & ~(1 << v) for v, r in enumerate(g.adj)])


def relabel(g: Graph, order: Sequence[int]) -> Graph:
    """The graph with vertex i standing for vertex ``order[i]`` of g.

    ``order`` must be a permutation of 0..n-1.  Relabelling the result by
    the inverse permutation gives back g.
    """
    n, adj = g.n, g.adj
    if sorted(order) != list(range(n)):
        raise GraphError(f"relabel order is not a permutation of 0..{n - 1}")
    bit = [0] * n
    for i, v in enumerate(order):
        bit[v] = 1 << i
    rows = []
    for v in order:
        m, row = adj[v], 0
        while m:
            low = m & -m
            row |= bit[low.bit_length() - 1]
            m ^= low
        rows.append(row)
    return Graph._from_rows(rows)


def bandwidth_order(g: Graph) -> list[int]:
    """Reverse Cuthill-McKee order of g: adjacent vertices get nearby indices.

    Vertices are ranked by (degree, index).  Each component is walked
    breadth first from its first vertex in rank order, each vertex queueing
    its unvisited neighbors in rank order, and the components come in the
    order of their first vertices.  The whole walk is then reversed
    (Cuthill and McKee 1969; George 1971).  The order depends only on g, so
    ``relabel(g, bandwidth_order(g))`` is deterministic.
    """
    adj = g.adj
    rank = sorted(range(g.n), key=lambda v: adj[v].bit_count())
    walk: list[int] = []
    seen = 0
    for root in rank:
        if seen >> root & 1:
            continue
        seen |= 1 << root
        head = len(walk)
        walk.append(root)
        while head < len(walk):
            fresh = adj[walk[head]] & ~seen
            head += 1
            if fresh:
                seen |= fresh
                walk.extend([v for v in rank if fresh >> v & 1])
    walk.reverse()
    return walk


def _equitable_cells(g: Graph) -> Optional[list[int]]:
    """The coarsest equitable partition of g by color refinement, as the
    mask of each vertex's cell; None when it is discrete.

    Vertices start colored by degree, and each round splits a cell by how
    many neighbors its vertices have in every cell, until no cell splits.
    Colors are ranks of these counts, so they do not depend on labels and
    every automorphism maps each cell onto itself.
    """
    n, adj = g.n, g.adj
    count = int.bit_count
    color = list(map(count, adj))
    while True:
        cells: dict = {}
        for v, c in enumerate(color):
            cells[c] = cells.get(c, 0) | 1 << v
        if len(cells) == n:
            return None
        # One column of neighbor counts per cell, zipped into a row per vertex.
        sig = list(zip(color, *[map(count, map(cells[c].__and__, adj)) for c in sorted(cells)]))
        distinct = set(sig)
        if len(distinct) == len(cells):
            return [cells[c] for c in color]
        if len(distinct) == n:
            return None
        rank = {s: i for i, s in enumerate(sorted(distinct))}
        color = [rank[s] for s in sig]


def automorphisms(g: Graph, limit: Optional[int] = None) -> list[tuple[int, ...]]:
    """Automorphisms of g as image tuples (``sigma[v]`` is the image of v),
    at most ``limit`` of them (default 4n); for a larger group the list is a
    subset of it.

    Color refinement first gives the coarsest equitable partition, whose
    cells every automorphism maps onto themselves (McKay and Piperno,
    *Practical graph isomorphism, II*, 2014).  When it is discrete only the
    identity is left.  Otherwise a backtracking search maps the vertices of
    the non-singleton cells one at a time, in breadth-first order, each onto
    an unused vertex of its cell that is adjacent to the images of exactly
    its mapped neighbors.  Singleton cells stay fixed: the partition is
    equitable, so cell-mates agree on every singleton neighbor.  Each
    complete map is checked edge by edge before it is kept.
    """
    n, adj = g.n, g.adj
    limit = max(4 * n, 1) if limit is None else limit
    cell = _equitable_cells(g)
    if cell is None:
        return [tuple(range(n))]
    movable = 0
    for v in range(n):
        if cell[v] != 1 << v:
            movable |= 1 << v
    order: list[int] = []
    seen = 0
    for root in range(n):
        if not movable >> root & 1 or seen >> root & 1:
            continue
        seen |= 1 << root
        head = len(order)
        order.append(root)
        while head < len(order):
            fresh = adj[order[head]] & movable & ~seen
            head += 1
            seen |= fresh
            order.extend(iter_bits(fresh))
    edges = list(g.edges())
    # before[d]: the vertices order[:d]; used[d]: their images.
    before = [0] * (len(order) + 1)
    for d, v in enumerate(order):
        before[d + 1] = before[d] | 1 << v
    used = [0] * (len(order) + 1)
    img = list(range(n))
    found: list[tuple[int, ...]] = []

    stack = [(0, cell[order[0]])]
    while stack:
        d, cand = stack.pop()
        if not cand:
            continue
        low = cand & -cand
        stack.append((d, cand ^ low))
        img[order[d]] = low.bit_length() - 1
        d += 1
        used[d] = used[d - 1] | low
        if d < len(order):
            # The next vertex may go to an unused cell-mate adjacent to the
            # images of all its mapped neighbors.  The count also drops one
            # adjacent to the image of a mapped non-neighbor: such a branch
            # can never complete, and on regular graphs, where refinement
            # splits nothing, walking it costs about ten times more.
            v = order[d]
            mapped = adj[v] & before[d]
            cand = cell[v] & ~used[d]
            m = mapped
            while m and cand:
                low = m & -m
                cand &= adj[img[low.bit_length() - 1]]
                m ^= low
            m, cand = cand, 0
            while m:
                low = m & -m
                if (adj[low.bit_length() - 1] & used[d]).bit_count() == mapped.bit_count():
                    cand |= low
                m ^= low
            stack.append((d, cand))
            continue
        sigma = tuple(img)
        if len(set(sigma)) != n or not all(adj[sigma[a]] >> sigma[b] & 1 for a, b in edges):
            raise AssertionError(f"search produced a non-automorphism {sigma}")
        found.append(sigma)
        if len(found) == limit:
            break
    return found


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    if not (0 <= u < g.n and 0 <= v < g.n) or not g.has_edge(u, v):
        raise GraphError(f"edge ({u},{v}) not present")
    edges = [(a, b) for a, b in g.edges() if {a, b} != {u, v}]
    return Graph(g.n, edges)


def spanning_tree(g: Graph) -> Graph:
    """BFS spanning tree from vertex 0, neighbors explored in ascending index order."""
    if not g.n or not is_connected(g):
        raise GraphError("spanning_tree requires a connected graph on at least one vertex")
    seen = 1
    queue = deque([0])
    edges = []
    while queue:
        u = queue.popleft()
        for v in iter_bits(g.adj[u] & ~seen):
            seen |= 1 << v
            edges.append((u, v))
            queue.append(v)
    return Graph(g.n, edges)


# ---------------------------------------------------------------------------
# Structural queries.
# ---------------------------------------------------------------------------

def min_degree(g: Graph) -> int:
    return min((g.degree(v) for v in range(g.n)), default=0)


def max_degree(g: Graph) -> int:
    return max((g.degree(v) for v in range(g.n)), default=0)


def leaf_count(g: Graph) -> int:
    return sum(1 for v in range(g.n) if g.degree(v) == 1)


def components(g: Graph) -> list[int]:
    """Connected components as bitmasks, ordered by smallest member."""
    remaining = g.full_mask
    comps = []
    while remaining:
        start = remaining & -remaining
        comp = start
        frontier = start
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= g.adj[v]
            frontier = grow & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(components(g)) == 1


def component_is_complete(g: Graph) -> bool:
    """Whether any connected component induces a complete graph (K_1 counts)."""
    for comp in components(g):
        if all(g.closed[v] & comp == comp for v in iter_bits(comp)):
            return True
    return False


def is_tree(g: Graph) -> bool:
    return g.n >= 1 and is_connected(g) and g.edge_count == g.n - 1


def is_cycle_graph(g: Graph) -> bool:
    """Structural test for "is a cycle of order n": connected and 2-regular."""
    return g.n >= 3 and is_connected(g) and all(g.degree(v) == 2 for v in range(g.n))


def has_hamiltonian_cycle(g: Graph) -> bool:
    """Exhaustive backtracking Hamiltonian cycle test, on orders up to
    ``HAMILTONIAN_SEARCH_CAP``."""
    n = g.n
    if n > HAMILTONIAN_SEARCH_CAP:
        raise GraphError(f"hamiltonicity search refuses order {n} > cap {HAMILTONIAN_SEARCH_CAP}")
    if n < 3:
        return False
    if not is_connected(g) or min_degree(g) < 2:
        return False
    full = g.full_mask
    adj = g.adj

    def extend(current: int, visited: int) -> bool:
        if visited == full:
            return bool(adj[current] & 1)  # close the cycle back to vertex 0
        unvisited = full & ~visited
        # The cycle closes from the last unvisited vertex back to the start,
        # so the start needs an unvisited neighbor.
        if not adj[0] & unvisited:
            return False
        slots = unvisited | (1 << current) | 1
        # degree-based pruning: every unvisited vertex still needs two usable
        # slots among {unvisited vertices, current endpoint, start}.  Once the
        # endpoint is not the start, a vertex whose only two slots include the
        # endpoint must come next, and two such vertices kill the branch.
        forced = 0
        for w in iter_bits(unvisited):
            usable = adj[w] & slots
            count = usable.bit_count()
            if count < 2:
                return False
            if count == 2 and current and usable >> current & 1:
                if forced:
                    return False
                forced = 1 << w
        for v in iter_bits(forced or adj[current] & unvisited):
            if extend(v, visited | (1 << v)):
                return True
        return False

    return extend(0, 1)
