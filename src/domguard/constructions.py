"""Constructive upper-bound algorithms returning verified certificates.

Each routine builds a guard function or vertex set by the corresponding
constructive argument, re-verifies it with the definitional checkers and
returns a Certificate carrying the bound it certifies.  A verification
failure means the construction was transcribed wrongly and raises
ConstructionError — it is never silently returned.

The tree constructions share the peel decomposition: repeatedly strip every
"light" support (degree at most one more than its leaf count) together with
its leaves, while the surviving subtree still has at least three vertices.
The at-most-two leftover vertices form the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import (Graph, VertexSet, cartesian_product, component_is_complete,
                    is_connected, is_tree, iter_bits, spanning_tree)
from .graph6 import write_graph6
from .protection import GuardFunction, is_secure_dominating, is_wrdf
from .solvers import (LimitExceeded, SolverLimits, clique_cover, gamma, gamma_k,
                      gamma_weak_roman, tau, twin_shadow_mask)


class InapplicableError(ValueError):
    """The construction's precondition does not hold for this input."""


class ConstructionError(RuntimeError):
    """Internal re-verification failed: the construction is mis-transcribed."""


@dataclass(frozen=True)
class PeelLevel:
    """One stage of the peel: the surviving subtree and what gets stripped."""
    alive: VertexSet                 # vertices of this subtree
    supports: VertexSet              # light supports stripped at this level
    removed: VertexSet               # supports plus their leaves
    leaf_map: dict[int, VertexSet]   # per-support leaves at this level


@dataclass(frozen=True)
class PeelDecomposition:
    levels: tuple[PeelLevel, ...]
    remainder: VertexSet             # at most two vertices
    rho: int                         # 1 when the remainder is nonempty, else 0

    def leaf_total(self) -> int:
        return sum(len(lv) for level in self.levels for lv in level.leaf_map.values())


@dataclass(frozen=True)
class Certificate:
    theorem_id: str
    graph: Graph
    object: object                   # GuardFunction or VertexSet
    claimed_bound: int
    valid: bool
    trusted_input: bool = False

    def achieved(self) -> int:
        if isinstance(self.object, GuardFunction):
            return self.object.weight()
        return len(self.object)

    def to_json_dict(self) -> dict:
        if isinstance(self.object, GuardFunction):
            obj = {"kind": "guard_function", "text": self.object.to_text()}
        else:
            obj = {"kind": "vertex_set", "text": self.object.to_text()}
        return {
            "theorem_id": self.theorem_id,
            "graph6": write_graph6(self.graph),
            "claimed_bound": self.claimed_bound,
            "achieved": self.achieved(),
            "object": obj,
            "valid": self.valid,
            "trusted_input": self.trusted_input,
        }


def _finish(theorem_id: str, g: Graph, obj, claimed: int,
            trusted_input: bool = False) -> Certificate:
    """Re-verify and package; every certificate leaves through here."""
    if isinstance(obj, GuardFunction):
        ok = is_wrdf(g, obj)
        achieved = obj.weight()
    else:
        ok = is_secure_dominating(g, obj)
        achieved = len(obj)
    if not ok:
        raise ConstructionError(f"{theorem_id}: constructed object fails re-verification")
    if achieved > claimed:
        raise ConstructionError(
            f"{theorem_id}: achieved {achieved} exceeds claimed bound {claimed}")
    return Certificate(theorem_id, g, obj, claimed, True, trusted_input)


# ---------------------------------------------------------------------------
# Peel decomposition.
# ---------------------------------------------------------------------------

def peel(tree: Graph) -> PeelDecomposition:
    """Strip light supports with their leaves level by level.

    A support qualifies when its degree in the current subtree is at most its
    leaf count plus one, i.e. it has at most one non-leaf neighbor.  Peeling
    runs while the surviving subtree has order >= 3; the remainder then has at
    most two vertices.
    """
    if not is_tree(tree):
        raise InapplicableError("peel requires a tree")
    if tree.n < 3:
        raise InapplicableError(f"peel requires order >= 3, got {tree.n}")
    n = tree.n
    adj = tree.adj
    alive = tree.full_mask
    levels: list[PeelLevel] = []
    while alive.bit_count() >= 3:
        deg = {v: (adj[v] & alive).bit_count() for v in iter_bits(alive)}
        leaves = 0
        for v, d in deg.items():
            if d == 1:
                leaves |= 1 << v
        supports = 0
        leaf_map: dict[int, VertexSet] = {}
        removed = 0
        for v in iter_bits(alive & ~leaves):
            lv = adj[v] & alive & leaves
            if lv and deg[v] <= lv.bit_count() + 1:
                supports |= 1 << v
                leaf_map[v] = VertexSet(lv, n)
                removed |= lv | (1 << v)
        if not supports:
            raise ConstructionError("peel found no qualifying support in a subtree of order >= 3")
        levels.append(PeelLevel(VertexSet(alive, n), VertexSet(supports, n),
                                VertexSet(removed, n), leaf_map))
        alive &= ~removed
    remainder = VertexSet(alive, n)
    return PeelDecomposition(tuple(levels), remainder, 1 if alive else 0)


# ---------------------------------------------------------------------------
# Tree-based constructions.
# ---------------------------------------------------------------------------

def tree_wrdf_two_thirds(g: Graph) -> Certificate:
    """Weak Roman function of weight at most floor(2n/3) on a connected graph.

    Peel the breadth-first spanning tree from vertex 0; supports get two
    guards when they hold two or more leaves, one guard with a single leaf,
    leaves stay empty.  A singleton remainder takes no guard exactly when a
    tree neighbor holds two, else one guard; for a remainder pair the
    zero/one split is decided by trying both orders against the weak Roman
    check on the tree.
    """
    if g.n < 2:
        raise InapplicableError("needs a connected graph on at least two vertices")
    if not is_connected(g):
        raise InapplicableError("input graph is disconnected")
    claimed = (2 * g.n) // 3
    if g.n == 2:
        return _finish("two_thirds_tree", g, GuardFunction(g, (1, 0)), claimed)
    t = spanning_tree(g)
    decomp = peel(t)
    values = [0] * g.n
    for level in decomp.levels:
        for v, lv in level.leaf_map.items():
            values[v] = 2 if len(lv) >= 2 else 1
    rem = decomp.remainder.members()
    if len(rem) == 1:
        x = rem[0]
        values[x] = 0 if any(values[w] == 2 for w in iter_bits(t.adj[x])) else 1
        if not is_wrdf(t, GuardFunction(t, values)):
            raise ConstructionError("two_thirds_tree: singleton remainder rule failed on the tree")
    elif len(rem) == 2:
        a, b = rem
        for za, zb in ((0, 1), (1, 0)):
            values[a], values[b] = za, zb
            if is_wrdf(t, GuardFunction(t, values)):
                break
        else:
            raise ConstructionError("two_thirds_tree: neither remainder-pair split is weak Roman on the tree")
    else:
        if not is_wrdf(t, GuardFunction(t, values)):
            raise ConstructionError("two_thirds_tree: level assignment fails on the tree")
    return _finish("two_thirds_tree", g, GuardFunction(g, values), claimed)


def tree_secure_set(g: Graph) -> Certificate:
    """Secure dominating set of size (total peel leaves) + (1 if remainder)."""
    if g.n < 3:
        raise InapplicableError("needs a connected graph on at least three vertices")
    if not is_connected(g):
        raise InapplicableError("input graph is disconnected")
    t = spanning_tree(g)
    decomp = peel(t)
    w = 0
    for level in decomp.levels:
        for lv in level.leaf_map.values():
            w |= lv.bits
    if decomp.rho:
        w |= 1 << next(iter(decomp.remainder))
    claimed = decomp.leaf_total() + decomp.rho
    members = VertexSet(w, g.n)
    if not is_secure_dominating(t, members):
        raise ConstructionError("peel_leaves_secure: set fails the secure check on the tree")
    return _finish("peel_leaves_secure", g, members, claimed)


# ---------------------------------------------------------------------------
# Twin / clique-cover constructions.
# ---------------------------------------------------------------------------

def complement_secure_set(g: Graph, limits: Optional[SolverLimits] = None) -> Certificate:
    """Secure dominating set of size n - gamma - tau: everything outside a
    shadow-maximizing minimum dominating set and its twin shadow."""
    if component_is_complete(g):
        raise InapplicableError("inapplicable: some component is a complete graph")
    res = tau(g, limits)
    s_mask = res.witness.bits
    shadow = twin_shadow_mask(g, s_mask)
    rest = g.full_mask & ~(s_mask | shadow)
    claimed = g.n - s_mask.bit_count() - res.value
    return _finish("complement_minus_twins", g, VertexSet(rest, g.n), claimed)


def clique_cover_secure_set(g: Graph, limits: Optional[SolverLimits] = None) -> Certificate:
    """One lowest-index representative per clique of a minimum clique cover."""
    res = clique_cover(g, limits)
    reps = 0
    for cl in res.witness:
        reps |= 1 << next(iter(cl))
    return _finish("clique_representatives", g, VertexSet(reps, g.n), res.value)


def two_dominating_as_secure(g: Graph, limits: Optional[SolverLimits] = None) -> Certificate:
    """A minimum 2-dominating set re-verified as a secure dominating set."""
    res = gamma_k(g, 2, limits)
    return _finish("two_dominating", g, res.witness, res.value)


# ---------------------------------------------------------------------------
# Cartesian-product constructions.
# ---------------------------------------------------------------------------

def product_wrdf_lift(g_function: GuardFunction, h: Graph) -> Certificate:
    """Copy a weak Roman function of G across every fiber of G x H."""
    g = g_function.graph
    if not is_wrdf(g, g_function):
        raise InapplicableError("input function is not weak Roman on its graph")
    p = cartesian_product(g, h)
    values = [0] * p.n
    for x in range(g.n):
        fx = g_function.values[x]
        if fx:
            base = x * h.n
            for y in range(h.n):
                values[base + y] = fx
    claimed = h.n * g_function.weight()
    return _finish("product_lift", p, GuardFunction(p, values), claimed)


def product_secure_set(g: Graph, h: Graph,
                       limits: Optional[SolverLimits] = None) -> Certificate:
    """Secure dominating set of G x H mixing a minimum dominating set of G with
    the twin-complement set of H.

    Members are (x, y) with x in S1, y outside S2 and its twin shadow, plus
    (x, y) with x outside S1 and y in S2.  Size works out to
    n(G)*gamma(H) + n(H)*gamma(G) - 2*gamma(G)*gamma(H) - gamma(G)*tau(H).
    """
    if g.n < 2:
        raise InapplicableError("first factor must be nontrivial (order >= 2)")
    if component_is_complete(h):
        raise InapplicableError("inapplicable: some component of the second factor is complete")
    s1 = gamma(g, limits).witness.bits
    tau_h = tau(h, limits)
    s2 = tau_h.witness.bits
    s2_rest = h.full_mask & ~(s2 | twin_shadow_mask(h, s2))
    p = cartesian_product(g, h)
    w = 0
    for x in range(g.n):
        base = x * h.n
        fiber = s2_rest if s1 >> x & 1 else s2
        for y in iter_bits(fiber):
            w |= 1 << (base + y)
    g_gamma = s1.bit_count()
    h_gamma = s2.bit_count()
    claimed = g.n * h_gamma + h.n * g_gamma - 2 * g_gamma * h_gamma - g_gamma * tau_h.value
    return _finish("product_mixed_secure", p, VertexSet(w, p.n), claimed)


def product_wrdf_aaaa(g: Graph, h_function: GuardFunction,
                      limits: Optional[SolverLimits] = None) -> Certificate:
    """Weak Roman function on G x H from an optimal function of H holding a
    two-guard vertex: two guards on every fiber over the two-guard class, and
    an optimal G-function copied over the columns H leaves uncovered.

    The supplied function must be weak Roman with a nonempty two-guard class.
    Its optimality is checked against ``gamma_weak_roman(h, limits)``; when
    that solver raises LimitExceeded, H is over its cap, the optimality is
    taken on trust and the certificate has trusted_input=True.
    """
    h = h_function.graph
    if not is_wrdf(h, h_function):
        raise InapplicableError("input function is not weak Roman on its graph")
    if h_function.two_mask == 0:
        raise InapplicableError("inapplicable: the function has no two-guard vertex")
    trusted = False
    try:
        optimum = gamma_weak_roman(h, limits).value
    except LimitExceeded:
        trusted = True
    else:
        if h_function.weight() != optimum:
            raise InapplicableError(
                f"function weight {h_function.weight()} is not optimal ({optimum})")
    reach = 0
    for u in iter_bits(h_function.two_mask):
        reach |= h.closed[u]
    y_mask = h.full_mask & ~reach
    g_res = gamma_weak_roman(g, limits)
    u_vals = g_res.witness.values
    p = cartesian_product(g, h)
    values = [0] * p.n
    for x in range(g.n):
        base = x * h.n
        for y in iter_bits(h_function.two_mask):
            values[base + y] = 2
        if u_vals[x]:
            for y in iter_bits(y_mask):
                values[base + y] = u_vals[x]
    claimed = 2 * g.n * h_function.two_mask.bit_count() + y_mask.bit_count() * g_res.value
    return _finish("product_reserve_lift", p, GuardFunction(p, values), claimed,
                   trusted_input=trusted)
