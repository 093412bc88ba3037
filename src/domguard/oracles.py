"""Plain brute-force oracles used to cross-validate the optimized solvers.

Everything here is deliberately naive: adjacency handled as Python sets,
candidate spaces enumerated with itertools, predicates transcribed literally
from the definitions with no bitmask tricks.  Keep it that way — these are
the independent side of every dual-route check, so they must not share code
with the search kernels they validate.

Intended for orders up to about 7; cost grows as 3^n for the guard scans.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from .graph import Graph


def _nbrs(g: Graph) -> list[set[int]]:
    return [set(g.neighbors(v)) for v in range(g.n)]


def naive_undefended(g: Graph, values) -> set[int]:
    nbrs = _nbrs(g)
    out = set()
    for v in range(g.n):
        if values[v] == 0 and all(values[u] == 0 for u in nbrs[v]):
            out.add(v)
    return out


def naive_is_df(g: Graph, members: set[int]) -> bool:
    nbrs = _nbrs(g)
    return all(v in members or any(u in members for u in nbrs[v]) for v in range(g.n))


def naive_is_rdf(g: Graph, values) -> bool:
    nbrs = _nbrs(g)
    for v in range(g.n):
        if values[v] == 0 and not any(values[u] == 2 for u in nbrs[v]):
            return False
    return True


def naive_is_wrdf(g: Graph, values) -> bool:
    nbrs = _nbrs(g)
    for v in range(g.n):
        if values[v] != 0:
            continue
        ok = False
        for u in nbrs[v]:
            if values[u] in (1, 2):
                moved = list(values)
                moved[v] = 1
                moved[u] -= 1
                if not naive_undefended(g, moved):
                    ok = True
                    break
        if not ok:
            return False
    return True


def naive_is_secure(g: Graph, members: set[int]) -> bool:
    nbrs = _nbrs(g)
    if not naive_is_df(g, members):
        return False
    for v in range(g.n):
        if v in members:
            continue
        ok = False
        for u in nbrs[v] & members:
            swapped = (members - {u}) | {v}
            if naive_is_df(g, swapped):
                ok = True
                break
        if not ok:
            return False
    return True


def naive_is_kdom(g: Graph, members: set[int], k: int) -> bool:
    nbrs = _nbrs(g)
    return all(v in members or len(nbrs[v] & members) >= k for v in range(g.n))


# ---------------------------------------------------------------------------
# Brute-force optima.  Set searches enumerate subsets in cardinality order
# (lexicographic within a cardinality), guard searches scan all of {0,1,2}^n.
# ---------------------------------------------------------------------------

def _min_subset(g: Graph, predicate) -> tuple[int, set[int]]:
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            members = set(combo)
            if predicate(members):
                return k, members
    raise AssertionError("no feasible subset up to the whole vertex set")


def brute_gamma(g: Graph) -> tuple[int, set[int]]:
    return _min_subset(g, lambda s: naive_is_df(g, s))


def brute_gamma_k(g: Graph, k: int) -> tuple[int, set[int]]:
    return _min_subset(g, lambda s: naive_is_kdom(g, s, k))


def brute_gamma_secure(g: Graph) -> tuple[int, set[int]]:
    return _min_subset(g, lambda s: naive_is_secure(g, s))


def _min_guard_scan(g: Graph, predicate) -> tuple[int, tuple[int, ...]]:
    best = None
    best_vals = None
    for values in product((0, 1, 2), repeat=g.n):
        w = sum(values)
        if best is not None and w >= best:
            continue
        if predicate(values):
            best = w
            best_vals = values
    assert best_vals is not None
    return best, best_vals


def brute_gamma_roman(g: Graph) -> tuple[int, tuple[int, ...]]:
    return _min_guard_scan(g, lambda vals: naive_is_rdf(g, vals))


def brute_gamma_weak_roman(g: Graph) -> tuple[int, tuple[int, ...]]:
    return _min_guard_scan(g, lambda vals: naive_is_wrdf(g, vals))


def brute_matching(g: Graph) -> tuple[int, list[tuple[int, int]]]:
    edges = list(g.edges())
    for k in range(g.n // 2, -1, -1):
        for combo in combinations(edges, k):
            seen: set[int] = set()
            ok = True
            for u, v in combo:
                if u in seen or v in seen:
                    ok = False
                    break
                seen.update((u, v))
            if ok:
                return k, list(combo)
    return 0, []


def brute_two_packing(g: Graph) -> tuple[int, set[int]]:
    nbrs = _nbrs(g)
    closed = [nbrs[v] | {v} for v in range(g.n)]
    for k in range(g.n, -1, -1):
        for combo in combinations(range(g.n), k):
            if all(not (closed[u] & closed[v]) for u, v in combinations(combo, 2)):
                return k, set(combo)
    return 0, set()


def brute_chromatic(g: Graph) -> int:
    if g.n == 0:
        return 0
    edges = list(g.edges())
    if not edges:
        return 1
    for k in range(1, g.n + 1):
        # fix vertex 0 to color 0; color names are interchangeable
        for assignment in product(range(k), repeat=g.n - 1):
            colors = (0,) + assignment
            if all(colors[u] != colors[v] for u, v in edges):
                return k
    raise AssertionError("n colors always suffice")


def brute_clique_cover(g: Graph) -> int:
    from .graph import complement
    return brute_chromatic(complement(g))


def brute_gamma_sets(g: Graph) -> list[set[int]]:
    k, _ = brute_gamma(g)
    return [set(c) for c in combinations(range(g.n), k) if naive_is_df(g, set(c))]


def brute_tau(g: Graph) -> tuple[int, set[int]]:
    nbrs = _nbrs(g)
    closed = [frozenset(nbrs[v] | {v}) for v in range(g.n)]
    best, best_set = -1, set()
    for s in brute_gamma_sets(g):
        twins = {v for v in set(range(g.n)) - s
                 if any(closed[v] == closed[u] for u in s)}
        if len(twins) > best:
            best, best_set = len(twins), s
    if best < 0:
        return 0, set()
    return best, best_set


def naive_is_hamiltonian(g: Graph) -> bool:
    """Some ordering of the vertices, starting at vertex 0, is a cycle."""
    if g.n < 3:
        return False
    nbrs = _nbrs(g)
    for rest in permutations(range(1, g.n)):
        order = (0,) + rest
        if all(order[i - 1] in nbrs[order[i]] for i in range(g.n)):
            return True
    return False
