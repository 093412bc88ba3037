"""Guard functions and verifiers for the protection classes.

A guard function assigns 0, 1 or 2 guards to every vertex.  A vertex is
undefended when its whole closed neighborhood carries zero guards.  The
verifiers implement, definitionally:

* dominating set / dominating function (``is_df``),
* Roman dominating function (``is_rdf``): every 0-vertex has a 2-neighbor,
* weak Roman dominating function (``is_wrdf``): every 0-vertex has a guarded
  neighbor whose guard can slide onto it leaving no vertex undefended,
* secure dominating set (``is_secure_dominating``): the all-ones special case,
* k-dominating set (``is_k_dominating``).

The mask-level kernels take raw bitmasks and avoid object overhead.  The
slide kernel ``unsafe_zeros`` is the hot path shared with the exact solvers:
for a dominating support it yields, once per support, the guard masks of the
0-vertices that no lone guard can defend, so weak Roman and secure checks
reduce to hitting those masks with the two-guard class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .graph import Graph, GraphError, VertexSet, iter_bits


class ProtectionError(ValueError):
    """Raised for malformed guard functions or verifier precondition failures."""


class GuardFunction:
    """Per-vertex guard counts in {0,1,2} over a fixed graph.

    ``support_mask`` is the set of guarded vertices, ``two_mask`` the vertices
    holding two guards; together they fully determine the function.
    """

    __slots__ = ("graph", "values", "support_mask", "two_mask")

    def __init__(self, graph: Graph, values: Iterable[int]):
        vals = tuple(values)
        if len(vals) != graph.n:
            raise ProtectionError(f"guard list length {len(vals)} != order {graph.n}")
        support = 0
        twos = 0
        for v, x in enumerate(vals):
            if x not in (0, 1, 2):
                raise ProtectionError(f"guard count {x!r} at vertex {v} not in {{0,1,2}}")
            if x:
                support |= 1 << v
            if x == 2:
                twos |= 1 << v
        # Set the slots directly, as Graph._fill does: the guard in
        # __setattr__ would make each assignment several times slower.
        fill = object.__setattr__
        fill(self, "graph", graph)
        fill(self, "values", vals)
        fill(self, "support_mask", support)
        fill(self, "two_mask", twos)

    def __setattr__(self, name, value):
        if hasattr(self, "two_mask"):
            raise AttributeError("GuardFunction is immutable")
        object.__setattr__(self, name, value)

    @classmethod
    def from_masks(cls, graph: Graph, support: int, twos: int) -> "GuardFunction":
        if twos & ~support:
            raise ProtectionError("two-guard vertices must be guarded")
        return cls(graph, tuple(2 if twos >> v & 1 else (1 if support >> v & 1 else 0)
                                for v in range(graph.n)))

    @classmethod
    def from_vertex_set(cls, graph: Graph, s: VertexSet) -> "GuardFunction":
        """Indicator function of a set: one guard on every member."""
        if s.universe != graph.n:
            raise ProtectionError("vertex set universe does not match graph order")
        return cls.from_masks(graph, s.bits, 0)

    @classmethod
    def from_text(cls, graph: Graph, text: str) -> "GuardFunction":
        """Parse the comma-separated digit form in vertex order, e.g. ``"2,0,1"``."""
        text = text.strip()
        toks = text.split(",") if text else []
        try:
            vals = [int(t) for t in toks]
        except ValueError as exc:
            raise ProtectionError(f"bad guard function text {text!r}") from exc
        return cls(graph, vals)

    def to_text(self) -> str:
        return ",".join(str(x) for x in self.values)

    def weight(self) -> int:
        return self.support_mask.bit_count() + self.two_mask.bit_count()

    def level_set(self, i: int) -> VertexSet:
        """The vertices holding exactly i guards."""
        n = self.graph.n
        if i == 0:
            return VertexSet(~self.support_mask & ((1 << n) - 1), n)
        if i == 1:
            return VertexSet(self.support_mask & ~self.two_mask, n)
        if i == 2:
            return VertexSet(self.two_mask, n)
        raise ProtectionError(f"guard level {i} out of range")

    def __eq__(self, other) -> bool:
        return (isinstance(other, GuardFunction) and self.graph == other.graph
                and self.values == other.values)

    def __hash__(self) -> int:
        return hash((self.graph, self.values))

    def __repr__(self) -> str:
        return f"GuardFunction({self.to_text()})"


@dataclass(frozen=True)
class MoveWitness:
    """One candidate defense of ``attacked``: slide a guard from ``defender``."""
    attacked: int
    defender: int
    valid: bool


def _require_over(g: Graph, f: GuardFunction) -> None:
    if f.graph != g:
        raise ProtectionError("guard function belongs to a different graph")


def _require_subset(g: Graph, s: VertexSet) -> None:
    if s.universe != g.n:
        raise ProtectionError("vertex set universe does not match graph order")


# ---------------------------------------------------------------------------
# Mask-level kernels.
# ---------------------------------------------------------------------------

def coverage_mask(g: Graph, support: int) -> int:
    """Vertices with at least one guarded vertex in their closed neighborhood."""
    covered = 0
    for u in iter_bits(support):
        covered |= g.closed[u]
    return covered


def dominates_mask(g: Graph, mask: int) -> bool:
    return coverage_mask(g, mask) == g.full_mask


def unsafe_zeros(g: Graph, support: int) -> Iterator[int]:
    """For a dominating ``support``, yield ``adj[v] & support`` for each
    0-vertex v, in vertex order, that no lone guard can slide onto safely.

    A slide u -> v is safe iff every vertex covered only by u is also in
    N[v].  A guard sliding off a two-guard vertex leaves that vertex guarded,
    so a two-guard class makes the function weak Roman iff it meets every
    yielded mask, and the support is secure iff nothing is yielded.
    """
    # The bit loops are inlined rather than using iter_bits: this is the
    # innermost step of the weak Roman and secure searches.
    closed, adj = g.closed, g.adj
    once = twice = 0
    m = support
    while m:
        low = m & -m
        c = closed[low.bit_length() - 1]
        twice |= once & c
        once |= c
        m ^= low
    singles = once & ~twice
    zeros = g.full_mask & ~support
    while zeros:
        low = zeros & -zeros
        zeros ^= low
        v = low.bit_length() - 1
        exposed = singles & ~closed[v]
        guards = adj[v] & support
        m = guards
        while m:
            lu = m & -m
            if not exposed & closed[lu.bit_length() - 1]:
                break
            m ^= lu
        else:
            yield guards


def wrdf_mask(g: Graph, support: int, twos: int) -> bool:
    """Weak-Roman check on the (support, two-guard) mask pair: the support
    dominates, and ``twos`` meets every mask yielded by ``unsafe_zeros``."""
    if coverage_mask(g, support) != g.full_mask:
        return False
    return all(guards & twos for guards in unsafe_zeros(g, support))


def secure_mask(g: Graph, mask: int) -> bool:
    """Secure domination check: all-ones weak-Roman over the member mask."""
    return wrdf_mask(g, mask, 0)


def kdom_mask(g: Graph, mask: int, k: int) -> bool:
    adj = g.adj
    for v in iter_bits(g.full_mask & ~mask):
        if (adj[v] & mask).bit_count() < k:
            return False
    return True


# ---------------------------------------------------------------------------
# Public verifiers over the domain types.
# ---------------------------------------------------------------------------

def undefended(g: Graph, f: GuardFunction) -> VertexSet:
    """The vertices with zero guards in their entire closed neighborhood."""
    _require_over(g, f)
    return VertexSet(g.full_mask & ~coverage_mask(g, f.support_mask), g.n)


def is_df(g: Graph, s: VertexSet) -> bool:
    _require_subset(g, s)
    return dominates_mask(g, s.bits)


def is_rdf(g: Graph, f: GuardFunction) -> bool:
    return first_failing_vertex(g, "rdf", f) is None


def is_wrdf(g: Graph, f: GuardFunction) -> bool:
    _require_over(g, f)
    return wrdf_mask(g, f.support_mask, f.two_mask)


def is_secure_dominating(g: Graph, s: VertexSet) -> bool:
    _require_subset(g, s)
    return secure_mask(g, s.bits)


def is_k_dominating(g: Graph, s: VertexSet, k: int) -> bool:
    return first_failing_vertex(g, "kdom", s, k) is None


def apply_move(f: GuardFunction, defender: int, attacked: int) -> GuardFunction:
    """The post-move function: attacked gets one guard, defender loses one."""
    vals = list(f.values)
    if vals[defender] < 1:
        raise ProtectionError(f"defender {defender} holds no guard")
    vals[attacked] = 1
    vals[defender] -= 1
    return GuardFunction(f.graph, vals)


def defense_moves(g: Graph, f: GuardFunction, attacked: int) -> list[MoveWitness]:
    """All guarded neighbors of an unguarded vertex, each flagged valid iff the
    slide leaves no vertex undefended."""
    _require_over(g, f)
    if not 0 <= attacked < g.n:
        raise ProtectionError(f"vertex {attacked} out of range")
    if f.values[attacked] != 0:
        raise ProtectionError(f"vertex {attacked} already holds a guard; only 0-vertices are attacked")
    moves = []
    for u in iter_bits(g.adj[attacked] & f.support_mask):
        after = apply_move(f, u, attacked)
        valid = len(undefended(g, after)) == 0
        moves.append(MoveWitness(attacked=attacked, defender=u, valid=valid))
    return moves


# ---------------------------------------------------------------------------
# Diagnosis helpers for the CLI verify command.
# ---------------------------------------------------------------------------

def first_failing_vertex(g: Graph, kind: str, obj, k: int = 2) -> Optional[int]:
    """Lowest-index vertex witnessing failure of the given class, or None if it holds.

    ``kind`` is one of df|rdf|wrdf|secure|kdom; ``obj`` is a VertexSet for the
    set classes and a GuardFunction for rdf/wrdf.
    """
    if kind == "df":
        _require_subset(g, obj)
        covered = coverage_mask(g, obj.bits)
        bad = g.full_mask & ~covered
        return next(iter_bits(bad), None)
    if kind == "rdf":
        _require_over(g, obj)
        reach = 0
        for u in iter_bits(obj.two_mask):
            reach |= g.adj[u]
        bad = g.full_mask & ~obj.support_mask & ~reach
        return next(iter_bits(bad), None)
    if kind == "wrdf":
        _require_over(g, obj)
        undef = undefended(g, obj)
        if len(undef):
            return next(iter(undef))
        for v in iter_bits(g.full_mask & ~obj.support_mask):
            if not any(m.valid for m in defense_moves(g, obj, v)):
                return v
        return None
    if kind == "secure":
        _require_subset(g, obj)
        return first_failing_vertex(g, "wrdf", GuardFunction.from_vertex_set(g, obj))
    if kind == "kdom":
        _require_subset(g, obj)
        if k < 1:
            raise ProtectionError(f"k must be >= 1, got {k}")
        for v in iter_bits(g.full_mask & ~obj.bits):
            if (g.adj[v] & obj.bits).bit_count() < k:
                return v
        return None
    raise ProtectionError(f"unknown protection class {kind!r}")
