"""Exact invariant solvers: branch-and-bound searches over bitmask states.

Every solver returns a SolveResult whose witness re-verifies under the
protection verifiers (or the natural structural check for matching, packing
and coloring witnesses).  Search order is deterministic: candidate sets are
explored so that the reported witness is the lexicographically least optimum
(for guard functions: minimal support in set order, then minimal two-guard
set, at the smallest feasible support size).

Domination, k-domination, secure and weak Roman domination, tau and the
gamma-set list all come from one lex-ordered dominating-set search
(``_lex_dominating_masks``), whose per-graph tables are built once and kept
for the last few graphs, so the solvers of one graph share them.
A node of that search is a partial set; every node it pops counts once in
``nodes_explored``, and a solver that tests the sets it yields counts each
tested set once more.  Each solver runs one search: the witness is the first
hit (or the kept incumbent) of the search that finds the value.  For the
secure and weak Roman solvers the search also cuts a partial set once its
0-vertices with final guards that no lone guard can ever defend need more
two-guard vertices than the set may hold.  The cut only drops sets that no
allowed two-guard class makes weak Roman, so values and witnesses are those
of the uncut search.  For every k >= 2 the k-domination solver's search
takes one set of coverage rules: it yields only 2-dominating sets, all of
them for k = 2, and cuts a partial set once a vertex it leaves out can no
longer reach k chosen neighbors.
Every solver's search pushes a last pick only if it covers everything still
uncovered.

The Roman domination number is not a dominating-set search: a two-guard
set D fixes the function, and for each size of D a max-coverage branch and
bound finds the lex-first D with the largest closed neighborhood.

The solvers that stop at a first hit (γ, k-domination, weak Roman with its
γ pre-pass, secure) also take a symmetry cut on graphs of order at least
``ORBIT_CUT_MIN_N``: the lex-leader rule of Crawford, Ginsberg, Luks and
Roy (*Symmetry-breaking predicates for search problems*, KR 1996) at every
depth.  A child with member set A is cut when some listed automorphism σ
has σ(A) <lex A in the search's order, sorted member tuples.  A completion
S adds only indices above max(A), which lies above min(σ(A) Δ A), so
σ(S) <lex S too, and σ(S) passes the same test as S: the lex-least hit,
the least of its orbit, is never cut, so values and witnesses are those of
the uncut search.  The automorphisms come from ``graph.automorphisms``,
once per graph, packed one per lane of a big integer, so one test per
child checks them all.  Smaller graphs skip the cut: their searches are
too small to pay for the automorphism search.  The γ-set list and tau need
every minimum set and never take the cut.

Coloring (``chromatic_number``, and ``clique_cover`` as the coloring of the
complement) is a DSATUR branch and bound (``_dsatur``): its best leaf is
the witness, so the value and the color classes come from one search.

``gamma_secure`` can start from the graph's weak Roman result, as the
audit's ``InvariantCache`` does: γ_s ≥ γ_wr, so its search begins at size
γ_wr, and a weak Roman witness with no two-guard vertex is already the
secure witness.  Either way the value and witness are those of the search
from size 0; only ``nodes_explored`` is smaller.

Size limits are configuration, not constants: SolverLimits holds nine
order caps, for domination, weak Roman, secure, Roman and k-domination, the
matching and 2-packing numbers, coloring (with the clique cover) and the
γ-set list (with tau).  Only the solvers read them.  A solver whose input
exceeds its cap raises LimitExceeded, so audit drivers can mark results
incomplete instead of hanging.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterator, Optional, Sequence

from .graph import Graph, VertexSet, automorphisms, complement, iter_bits
from .protection import GuardFunction, kdom_mask, unsafe_zeros


class LimitExceeded(RuntimeError):
    """An input is larger than the configured limit for the requested solver."""

    def __init__(self, invariant: str, n: int, limit: int):
        super().__init__(f"{invariant}: order {n} exceeds solver limit {limit}")
        self.invariant = invariant
        self.n = n
        self.limit = limit


@dataclass(frozen=True)
class SolverLimits:
    """The nine per-solver order caps, read only by the solvers; defaults
    sized so the acceptance suite runs in minutes.  The audit's Hamiltonian
    search is not a solver and keeps the constant cap
    ``graph.HAMILTONIAN_SEARCH_CAP``.

    The coloring cap (``chromatic_max_n``) and the γ-set cap of tau and the
    γ-set list (``gamma_sets_max_n``) are 24, the largest order the benchmark
    audits.  On the benchmark's seed-1 random graphs of order 17–24 and their
    complements (384 graph sides), DSATUR colors all of them in 0.09–0.10 s,
    witnesses included, in bandwidth order as the audit solves them and in
    input labels as ``solve`` does, and tau on the 144 graphs of order 19–24
    takes 0.13–0.15 s, on a shared 2-vCPU host.

    The Roman cap (``roman_max_n``) and the k-domination cap
    (``kdomination_max_n``, for every k) are 24 too.  On the seed-1 and
    seed-2 random graphs of order 19–24 and their complements, in input
    labels, the worst solve takes 6 ms for γ_R, 75 ms for γ_2 and 0.22 s
    for γ_3 on a complement (0.19 s on a graph), on the same host.  In
    bandwidth order, the audit's γ_R and γ_2 on the 144 graphs of one seed
    take 0.05–0.06 s and 0.37–0.48 s."""

    domination_max_n: int = 32
    weak_roman_max_n: int = 28
    secure_max_n: int = 28
    roman_max_n: int = 24
    kdomination_max_n: int = 24
    matching_max_n: int = 26
    two_packing_max_n: int = 26
    chromatic_max_n: int = 24
    gamma_sets_max_n: int = 24

    def scaled(self, cap: int) -> "SolverLimits":
        """Clamp every limit to ``cap`` (used by the CLI --limit-n flag)."""
        return SolverLimits(**{k: min(v, cap) for k, v in self.__dict__.items()})


DEFAULT_LIMITS = SolverLimits()


@dataclass
class SolveResult:
    invariant_id: str
    value: int
    witness: object
    nodes_explored: int = 0

    def witness_json(self):
        w = self.witness
        if isinstance(w, VertexSet):
            return {"kind": "vertex_set", "text": w.to_text()}
        if isinstance(w, GuardFunction):
            return {"kind": "guard_function", "text": w.to_text()}
        # Decided by name: an empty matching and an empty coloring are both ().
        if self.invariant_id == "matching":
            return {"kind": "edge_set", "edges": [list(e) for e in w]}
        if isinstance(w, tuple):
            return {"kind": "vertex_set_list", "sets": [x.to_text() for x in w]}
        return {"kind": "none"}

    def to_json_dict(self) -> dict:
        return {
            "invariant_id": self.invariant_id,
            "value": self.value,
            "witness": self.witness_json(),
            "nodes_explored": self.nodes_explored,
        }


def _check(limits: Optional[SolverLimits], invariant: str, n: int, limit_name: str) -> None:
    cap = getattr(limits or DEFAULT_LIMITS, limit_name)
    if n > cap:
        raise LimitExceeded(invariant, n, cap)


# ---------------------------------------------------------------------------
# Dominating-set enumeration kernels.
# ---------------------------------------------------------------------------

# Graphs below this order skip the symmetry cut: their searches are too
# small for the cut to pay for the automorphism search.  On the 996
# connected graphs of order up to 7, the cut takes the four first-hit
# searches from 59,274 to 51,773 nodes, but their CPU time rises by about
# a third, from a median of 0.15 s to 0.20 s over nine runs on a shared
# 2-vCPU host.
ORBIT_CUT_MIN_N = 16


def _lanes(n: int, group: Sequence[tuple[int, ...]]) -> tuple[tuple[int, ...], int]:
    """The lane tables of the lex-leader test, ``(step, guard)``.  Vertex v
    weighs w(v) = 2^(n-1-v), so for sets A and B, w(A) > w(B) exactly when
    min(A Δ B) lies in A.  Each non-identity element σ of ``group`` gets a
    lane of n + 1 bits; ``step[v]`` adds w(v) - w(σ(v)) in each σ's lane,
    and ``guard`` holds bit n of each lane.  Starting from ``guard``, the
    steps of a set A leave 2^n + w(A) - w(σ(A)) in σ's lane: a value in
    [1, 2^(n+1)), so no lane borrows from or carries into the next."""
    identity = tuple(range(n))
    step, guard, shift = [0] * n, 0, 0
    for sigma in group:
        if sigma == identity:
            continue
        for v in range(n):
            step[v] += (1 << shift + n - 1 - v) - (1 << shift + n - 1 - sigma[v])
        guard |= 1 << shift + n
        shift += n + 1
    return tuple(step), guard


class _SearchTables:
    """Per-graph tables of the dominating-set search.  They depend only on
    the graph, so they are built once (see ``_tables``) and reused for every
    search and size range on it.

    ``suffix[i]`` holds the vertices that some pick at index >= i can still
    cover.  Its complement holds the vertices whose closed neighborhood lies
    wholly below ``i``: once the search has passed ``i`` their guards are
    final.  ``ball2[u]`` holds the vertices within distance two of ``u``.

    ``lanes``, the symmetry cut's table, is ``_lanes`` of one
    ``automorphisms`` call, on graphs of order at least
    ``ORBIT_CUT_MIN_N``: the listed non-identity elements packed one per
    lane of n + 1 bits, so that one big-int addition and test per child
    compares σ(A) with A for all of them at once.  On smaller graphs, or
    when the list holds only the identity, it has no lane, and its test
    passes every set.  The group is searched on the sparser of g and its
    complement, which has the same automorphisms in the same labels: on a
    dense graph such as the complement of a cycle prism the search in g
    takes seconds, and in the complement milliseconds.
    """

    __slots__ = ("g", "maxcov", "suffix", "ball2", "lanes")

    def __init__(self, g: Graph):
        n, closed = g.n, g.closed
        self.g = g
        self.maxcov = max((c.bit_count() for c in closed), default=1)
        self.suffix = suffix = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix[i] = suffix[i + 1] | closed[i]
        self.ball2 = ball2 = [0] * n
        for u in range(n):
            for x in iter_bits(closed[u]):
                ball2[u] |= closed[x]
        group = ()
        if n >= ORBIT_CUT_MIN_N:
            group = automorphisms(complement(g) if 4 * g.edge_count > n * (n - 1) else g)
        self.lanes = _lanes(n, group)


@lru_cache(maxsize=8)
def _tables(g: Graph) -> _SearchTables:
    """The search tables of g, kept for the last few graphs: the audit runs
    up to five searches on each graph, and each would build the same tables
    and search for the same automorphisms.  Searches only read them."""
    return _SearchTables(g)


def _lex_dominating_masks(t: _SearchTables, sizes: range, counter: list[int],
                          allowance: Optional[Callable[[int], int]] = None,
                          reach: Optional[list[tuple[int, int]]] = None,
                          symmetry: bool = False) -> Iterator[int]:
    """Dominating sets with a size in ``sizes``: size ascending, then in
    lexicographic order of their sorted member tuples.  The first set yielded
    over ``range(g.n + 1)`` is the lex-least minimum dominating set.

    A node is a partial set: the members chosen so far, all below the next
    index ``i``, with ``r`` picks left.  Every node popped from the search's
    one explicit stack counts once in ``counter``, cut or not.  Its children
    fix the next member ``j >= i`` and are popped in ascending ``j``, up to
    the first ``j`` past which some uncovered vertex has no neighbor left.  A
    node is cut when the remaining picks cannot cover what is left (by count,
    or by a greedy 2-packing of uncovered vertices).  With one pick left the
    children are exactly the ``j`` in the intersection of the closed
    neighborhoods of the uncovered vertices, taken once per node, so no
    child is pushed that leaves a vertex uncovered.  Once everything is
    covered the remaining picks are free and filled by plain combinations.

    ``reach``, when given, is ``_k_reach(g, k)`` for some k >= 2 and turns
    on the k-coverage rules.  They ask only what every 2-dominating
    completion must have, and every k-dominating set is 2-dominating, so
    they drop only sets that are not k-dominating and keep the rest in
    order.  A node's need is U ∪ O, where U holds the uncovered vertices and
    O the non-members with exactly one chosen neighbor (``covered`` and
    ``twice`` hold the vertices with at least one and at least two).  A pick
    j meets at most |N[j]| + 1 units of the 2|U| + |O| still owed, so the
    node is cut when that sum exceeds r · (maxcov + 1).  A last pick leaves
    every other vertex of U with one neighbor at most, so with two vertices
    in U the node is cut, and otherwise the pick is U's vertex, if any, and
    lies in N[v] for every v in O.  The children stop at the first ``j``
    past which a vertex of U below ``j`` has fewer than k neighbors at
    index ``>= j``, or a vertex of O below ``j`` fewer than k - 1, read from
    ``reach[j]``: picks come only from ``j`` on, so no completion gives that
    vertex k chosen neighbors.  A node with no need is 2-dominating with
    every superset, so the search yields only 2-dominating sets, and for
    k = 2 every one of them.

    ``allowance(size)``, when given, is the number k of two-guard vertices a
    set of that size may hold, and turns on the protection cut.  A 0-vertex
    v whose closed neighborhood lies below ``i`` is fixed: its guards are
    final, N(v) ∩ chosen.  A vertex covered once so far that no pick at
    ``i`` or later can reach stays private to its guard in every completion,
    because private sets only shrink as members are added.  If every guard
    of v has such a private vertex outside N[v], no lone guard can ever
    slide onto v safely, so every completion needs a two-guard vertex in
    N(v) ∩ chosen.  The node is cut when more than k of these guard sets,
    gathered along its path, are pairwise disjoint (for k = 0, when there is
    one).  Each node checks only the vertices fixed since its parent.  The
    cut drops no set that some two-guard class of size k makes weak Roman,
    and the sets it keeps stay in order, so a solver's first hit is
    unchanged.

    ``symmetry`` turns on the symmetry cut, with the table ``t.lanes``;
    without it the search takes lane tables with no lane, whose test passes
    every set.  At every depth a child with member set A is cut when some
    listed automorphism σ has σ(A) <lex A, that is min(σ(A) Δ A) ∈ σ(A),
    since the sets have one size; the free fill tests each set it yields the
    same way.  Each node carries its lane values from ``t.lanes``: in σ's
    lane, 2^n + w(A) - w(σ(A)), where w(v) = 2^(n-1-v).  A child adds
    ``step[j]``, and a lane's guard bit clears exactly when w(σ(A)) > w(A),
    that is when x = min(σ(A) Δ A) lies in σ(A): one big-int addition and
    one test per child, whatever the number of lanes.  Then x lies below
    max(A), since |σ(A)| = |A| and x ∈ σ(A) \\ A.  So a completion S, which
    adds only indices above max(A), has S ∩ [0, x) = A ∩ [0, x), a subset of
    σ(S), and x ∈ σ(S) \\ S: σ(S) <lex S.  Domination, k-domination and the
    secure and weak Roman conditions are invariant under σ, so the lex-least
    set of a size that passes a solver's test, the least of its orbit, is
    never cut, and the sets kept stay in order: a solver's first hit is
    unchanged.  This holds for any list of automorphisms, so the cap of
    ``graph.automorphisms`` on a large group only leaves some cuts untaken.
    A search that must yield every set, such as the γ-set list, does not
    turn it on.
    """
    n, full, closed, adj = t.g.n, t.g.full_mask, t.g.closed, t.g.adj
    maxcov, suffix, ball2 = t.maxcov, t.suffix, t.ball2
    step, guard = t.lanes if symmetry else _lanes(n, ())
    for size in sizes:
        k = None if allowance is None else allowance(size)
        # (chosen, covered, covered twice, next index, picks left, the
        # parent's next index, union and count of disjoint required sets,
        # the lane values of chosen)
        stack = [(0, 0, 0, 0, size, 0, 0, 0, guard)]
        push = stack.append
        while stack:
            chosen, covered, twice, i, r, parent_i, used, hits, lex = stack.pop()
            counter[0] += 1
            need = unc = full & ~covered
            if reach is not None:
                # Non-members with one chosen neighbor need one more.
                once = covered & ~twice & ~chosen
                need = unc | once
            if need:
                if reach is not None:
                    if 2 * unc.bit_count() + once.bit_count() > r * (maxcov + 1):
                        continue
                elif unc.bit_count() > r * maxcov:
                    continue
                if r == 1:
                    # The last pick must meet every need on its own.
                    kids = full >> i << i
                    m = unc
                    if reach is not None:
                        # An uncovered vertex left out gets one neighbor at
                        # most, so the last pick must be that vertex.
                        if unc & unc - 1:
                            continue
                        if unc:
                            kids &= unc
                        m = once
                    while m:
                        low = m & -m
                        kids &= closed[low.bit_length() - 1]
                        m ^= low
                    if not kids:
                        continue
                elif unc:
                    # Uncovered vertices pairwise more than two apart need distinct picks.
                    rest = unc
                    for _ in range(r):
                        rest &= ~ball2[(rest & -rest).bit_length() - 1]
                        if not rest:
                            break
                    else:
                        continue
            if k is not None:
                fresh = suffix[parent_i] & ~suffix[i] & ~chosen
                # Vertices covered once that no later pick can reach.
                private = covered & ~twice & ~suffix[i]
                while fresh and private:
                    low = fresh & -fresh
                    fresh ^= low
                    v = low.bit_length() - 1
                    exposed = private & ~closed[v]
                    guards = m = adj[v] & chosen
                    while m:
                        low = m & -m
                        if not exposed & closed[low.bit_length() - 1]:
                            break
                        m ^= low
                    else:
                        if not guards & used:
                            used |= guards
                            hits += 1
                            if hits > k:
                                break
                if hits > k:
                    continue
            if not need:
                for extra in combinations(range(i, n), r):
                    m, x = chosen, lex
                    for b in extra:
                        m |= 1 << b
                        x += step[b]
                    if x & guard == guard:
                        yield m
                continue
            # The children are the picks j >= i up to the first j past which
            # some vertex can no longer get what it needs (for the last pick,
            # the j that meet every need); push them so that the lowest j is
            # popped first.
            if r > 1:
                end = i
                if reach is not None:
                    while end <= n - r:
                        one_short, enough = reach[end]
                        if (unc & ~enough | once & ~one_short) & (1 << end) - 1:
                            break
                        end += 1
                else:
                    while end <= n - r and not unc & ~suffix[end]:
                        end += 1
                kids = (1 << end) - (1 << i)
            while kids:
                j = kids.bit_length() - 1
                kids ^= 1 << j
                x = lex + step[j]
                # Each lane holds 2^n + w(A) - w(σ(A)), so its guard bit is
                # clear when σ(A) <lex A.
                if x & guard == guard:
                    push((chosen | 1 << j, covered | closed[j], twice | covered & closed[j],
                          j + 1, r - 1, i, used, hits, x))


def _gamma_mask(t: _SearchTables, counter: list[int]) -> int:
    """The lex-least minimum dominating set of ``t.g``: the first set of the
    lex-ordered search, with the symmetry cut."""
    return next(_lex_dominating_masks(t, range(t.g.n + 1), counter, symmetry=True))


# ---------------------------------------------------------------------------
# Domination-family solvers.
# ---------------------------------------------------------------------------

def gamma(g: Graph, limits: Optional[SolverLimits] = None) -> SolveResult:
    """Domination number with the lexicographically least minimum dominating set."""
    _check(limits, "gamma", g.n, "domination_max_n")
    counter = [0]
    witness = _gamma_mask(_tables(g), counter)
    return SolveResult("gamma", witness.bit_count(), VertexSet(witness, g.n), counter[0])


def _k_reach(g: Graph, k: int) -> list[tuple[int, int]]:
    """The k-coverage tables of ``_lex_dominating_masks`` for k >= 2: rows
    whose entry ``i`` holds the vertices with at least k - 1 and with at
    least k neighbors at index >= i, the neighbors that picks from ``i`` on
    can still add."""
    n, adj = g.n, g.adj
    rows = []
    for i in range(n + 1):
        one_short = enough = 0
        for v in range(n):
            later = (adj[v] >> i).bit_count()
            if later >= k - 1:
                one_short |= 1 << v
                if later >= k:
                    enough |= 1 << v
        rows.append((one_short, enough))
    return rows


def gamma_k(g: Graph, k: int, limits: Optional[SolverLimits] = None) -> SolveResult:
    """k-domination number with the lexicographically least minimum
    k-dominating set.  For k >= 1 every k-dominating set dominates, so one
    pass over the dominating sets in canonical order (size ascending, then
    lex) checks each with ``kdom_mask``, starting at the number of vertices of
    degree below k, which every k-dominating set must hold.  For k >= 2 the
    search takes the k-coverage rules: it yields only 2-dominating sets and
    drops only sets that are not k-dominating, so for k = 2 the first set
    yielded passes.  Each set tested is one node, and the first hit is the
    witness."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check(limits, f"gamma_{k}", g.n, "kdomination_max_n")
    counter = [0]
    forced = sum(1 for v in range(g.n) if g.degree(v) < k)
    # The k-coverage rules ask for 2-domination, so k = 1 takes the plain search.
    reach = _k_reach(g, k) if k > 1 else None
    t = _tables(g)
    for mask in _lex_dominating_masks(t, range(forced, g.n + 1), counter, reach=reach,
                                      symmetry=True):
        counter[0] += 1
        if kdom_mask(g, mask, k):
            return SolveResult(f"gamma_{k}", mask.bit_count(), VertexSet(mask, g.n), counter[0])
    raise AssertionError("the whole vertex set is always k-dominating")


def _lex_wrdf(t: _SearchTables, weight: int, supports: range,
              counter: list[int]) -> Optional[GuardFunction]:
    """The first weak Roman function of ``weight`` in canonical order: support
    size ascending over ``supports``, support lex, then two-guard set lex.

    One enumerator call walks every support size, and the two-guard class of
    each support takes the remaining ``weight - size`` units.  The slide
    analysis (``unsafe_zeros``) runs once per support; each candidate
    two-guard class is one node and passes iff it meets every unsafe mask.
    The enumerator only yields dominating supports, and its protection cut
    drops only supports that no two-guard class of ``weight - size``
    vertices makes weak Roman.
    """
    g = t.g
    for smask in _lex_dominating_masks(t, supports, counter, lambda size: weight - size,
                                       symmetry=True):
        unsafe = list(unsafe_zeros(g, smask))
        members = list(iter_bits(smask))
        for dcombo in combinations(members, weight - smask.bit_count()):
            counter[0] += 1
            twos = 0
            for b in dcombo:
                twos |= 1 << b
            if all(twos & guards for guards in unsafe):
                return GuardFunction.from_masks(g, smask, twos)
    return None


def gamma_secure(g: Graph, limits: Optional[SolverLimits] = None,
                 weak_roman: Optional[SolveResult] = None) -> SolveResult:
    """Secure domination number: a secure dominating set is a weak Roman
    function with no two-guard vertex, so one pass over the dominating sets
    in canonical order (size ascending, then lex) checks each as a support
    with an empty two-guard class.  The slide analysis runs once per support
    and stops at the first 0-vertex no guard can defend.  The enumerator's
    protection cut, with no two-guard vertex allowed, drops only sets that
    are not secure.  Each support is one node, and the first hit is the
    lex-least minimum secure dominating set.

    ``weak_roman``, when given, is ``gamma_weak_roman(g)``'s result, of
    weight W with canonical witness (S, D).  Since γ_s ≥ γ_wr the pass
    starts at size W, and if D is empty, S is the answer with no node
    popped: the weak Roman order at weight W, on supports of size W, is this
    pass's size-W order."""
    _check(limits, "gamma_secure", g.n, "secure_max_n")
    start = 0
    if weak_roman is not None:
        f = weak_roman.witness
        if (weak_roman.invariant_id != "gamma_weak_roman"
                or not isinstance(f, GuardFunction) or f.graph != g):
            raise ValueError("weak_roman is not a gamma_weak_roman result of this graph")
        if not f.two_mask:
            return SolveResult("gamma_secure", weak_roman.value,
                               VertexSet(f.support_mask, g.n), 0)
        start = weak_roman.value
    counter = [0]
    t = _tables(g)
    for smask in _lex_dominating_masks(t, range(start, g.n + 1), counter, lambda size: 0,
                                       symmetry=True):
        counter[0] += 1
        if next(unsafe_zeros(g, smask), None) is None:
            return SolveResult("gamma_secure", smask.bit_count(), VertexSet(smask, g.n),
                               counter[0])
    raise AssertionError("the whole vertex set is always a secure dominating set")


def gamma_weak_roman(g: Graph, limits: Optional[SolverLimits] = None) -> SolveResult:
    """Weak Roman domination number.

    Candidate weights run from gamma(g) to 2*gamma(g) (the proven window); each
    weight is one canonical scan over support sizes from max(ceil(weight/2),
    gamma(g)) to weight.  The first weight with a hit wins, and that hit is the
    witness (support size ascending, support lex, two-set lex).  The witness
    holds a two-guard vertex exactly when some optimal function does, because
    it has the smallest feasible support.
    """
    _check(limits, "gamma_weak_roman", g.n, "weak_roman_max_n")
    counter = [0]
    t = _tables(g)
    gval = _gamma_mask(t, counter).bit_count()
    for weight in range(gval, 2 * gval + 1):
        supports = range(max((weight + 1) // 2, gval), weight + 1)
        witness = _lex_wrdf(t, weight, supports, counter)
        if witness is not None:
            return SolveResult("gamma_weak_roman", weight, witness, counter[0])
    raise AssertionError("a weak Roman function of weight 2*gamma always exists")


def gamma_roman(g: Graph, limits: Optional[SolverLimits] = None) -> SolveResult:
    """Roman domination number: the two-guard set D fixes the function,
    since the vertices outside N[D] are forced into the one-guard class, so
    the weight is 2|D| + n - |N[D]|.  For d = 1, 2, ... while 2d is below
    the best weight (n, at D empty), a max-coverage branch and bound finds
    the lex-first D of size d with the largest |N[D]|, if that beats the
    best weight.  So the witness has the smallest D of minimum weight, then
    the lex-first.

    A node is a partial D, with members below the next index ``i`` and
    ``r`` picks left; every node popped, and every last pick scanned in
    place, counts once in ``nodes_explored``.  A D of size d only replaces
    the incumbent with a strictly larger coverage, and a node is cut when
    its coverage plus r times the largest |N[j]| at j >= i, or its coverage
    joined with every N[j] at j >= i, cannot beat it."""
    _check(limits, "gamma_roman", g.n, "roman_max_n")
    counter = [0]
    n, full, closed = g.n, g.full_mask, g.closed
    # From index i on: the largest closed neighborhood, and their union.
    widest, suffix = [0] * (n + 1), [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        widest[i] = max(widest[i + 1], closed[i].bit_count())
        suffix[i] = suffix[i + 1] | closed[i]
    best, best_two, best_cover = n, 0, 0
    d = 1
    while 2 * d < best:
        # A D of size d must cover more than this to beat the best weight.
        floor = 2 * d + n - best
        stack = [(0, 0, 0, d)]  # (D, N[D], next index, picks left)
        push = stack.append
        while stack:
            two, cover, i, r = stack.pop()
            counter[0] += 1
            size = cover.bit_count()
            if size + r * widest[i] <= floor or (cover | suffix[i]).bit_count() <= floor:
                continue
            if r > 1:
                for j in range(n - r, i - 1, -1):
                    push((two | 1 << j, cover | closed[j], j + 1, r - 1))
                continue
            # The last pick: each j is a leaf, scanned in place.
            for j in range(i, n):
                if size + widest[j] <= floor:
                    break
                counter[0] += 1
                leaf = cover | closed[j]
                if leaf.bit_count() > floor:
                    floor, best_two, best_cover = leaf.bit_count(), two | 1 << j, leaf
        best = 2 * d + n - floor
        d += 1
    witness = GuardFunction.from_masks(g, best_two | full & ~best_cover, best_two)
    return SolveResult("gamma_roman", best, witness, counter[0])


# ---------------------------------------------------------------------------
# Auxiliary invariants.
# ---------------------------------------------------------------------------

def matching_number(g: Graph, limits: Optional[SolverLimits] = None) -> SolveResult:
    """Maximum matching size by include/skip branching on the lowest uncovered vertex."""
    _check(limits, "matching", g.n, "matching_max_n")
    counter = [0]
    full, adj = g.full_mask, g.adj
    best = -1
    best_edges: tuple[tuple[int, int], ...] = ()
    stack: list[tuple[int, int]] = []

    def rec(covered: int, size: int) -> None:
        nonlocal best, best_edges
        counter[0] += 1
        unc = full & ~covered
        if size + unc.bit_count() // 2 <= best:
            return
        v = -1
        for b in iter_bits(unc):
            if adj[b] & unc & ~(1 << b):
                v = b
                break
        if v < 0:
            if size > best:
                best = size
                best_edges = tuple(stack)
            return
        for u in iter_bits(adj[v] & unc):
            stack.append((v, u))
            rec(covered | 1 << v | 1 << u, size + 1)
            stack.pop()
        rec(covered | 1 << v, size)

    rec(0, 0)
    return SolveResult("matching", best, best_edges, counter[0])


def two_packing(g: Graph, limits: Optional[SolverLimits] = None) -> SolveResult:
    """2-packing number as a maximum independent set of the closed-neighborhood
    intersection graph.  The search branches include-first on the lowest
    candidate, so it meets packings in lex order, and it keeps a packing only
    when it is strictly larger than the incumbent: the witness is the
    lexicographically least maximum 2-packing."""
    _check(limits, "two_packing", g.n, "two_packing_max_n")
    counter = [0]
    n, closed = g.n, g.closed
    conflict = [0] * n  # conflict[v] includes v itself
    for v in range(n):
        row = 1 << v
        for u in range(n):
            if u != v and closed[u] & closed[v]:
                row |= 1 << u
        conflict[v] = row
    best = 0
    best_mask = 0

    def rec(cand: int, chosen: int, size: int) -> None:
        nonlocal best, best_mask
        counter[0] += 1
        if size + cand.bit_count() <= best:
            return
        if not cand:  # not cut above, so size > best
            best, best_mask = size, chosen
            return
        low = cand & -cand
        rec(cand & ~conflict[low.bit_length() - 1], chosen | low, size + 1)
        rec(cand & ~low, chosen, size)

    rec(g.full_mask, 0, 0)
    return SolveResult("two_packing", best, VertexSet(best_mask, n), counter[0])


def _clique_bound(g: Graph) -> int:
    """A lower bound on the chromatic number: the clique that takes each
    vertex, by descending degree and then ascending index, when it is
    adjacent to every vertex taken so far, raised to 3 when the graph has an
    odd cycle.  A vertex of largest degree starts the clique, so any edge
    makes it at least 2, whatever the labels."""
    n, adj = g.n, g.adj
    clique = 0
    for v in sorted(range(n), key=lambda v: -adj[v].bit_count()):
        if adj[v] & clique == clique:
            clique |= 1 << v
    size = clique.bit_count()
    if size != 2:
        return size
    side = [-1] * n  # 2-coloring by depth-first search; a clash is an odd cycle
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in iter_bits(adj[v]):
                if side[u] < 0:
                    side[u] = side[v] ^ 1
                    stack.append(u)
                elif side[u] == side[v]:
                    return 3
    return 2


def _dsatur(g: Graph, counter: list[int]) -> tuple[int, tuple[int, ...]]:
    """Branch-and-bound coloring by Brélaz's DSATUR (*New methods to color the
    vertices of a graph*, CACM 22, 1979); returns (chromatic number,
    per-vertex colors).

    A node colors the uncolored vertex with the most distinct neighbor colors,
    then the most uncolored neighbors, then the lowest index.  It tries each
    existing color class, then opens a new class only while the class count
    plus one is below the incumbent; a node whose class count has reached the
    incumbent is cut on entry.  Each leaf beats the incumbent and keeps its
    coloring, and the search stops once the incumbent meets
    ``_clique_bound``."""
    n, adj = g.n, g.adj
    if n == 0:
        return 0, ()
    lower = _clique_bound(g)
    best, best_colors = n + 1, ()
    colors = [-1] * n
    seen = [0] * n  # seen[v]: bitmask of the colors on v's neighbors
    shift = n.bit_length()  # a degree is below 2**shift, so keys sort as pairs

    def rec(uncolored: int, k: int) -> bool:
        """Search below the node; True once the incumbent meets ``lower``."""
        nonlocal best, best_colors
        counter[0] += 1
        if k >= best:
            return False
        if not uncolored:
            best, best_colors = k, tuple(colors)
            return k == lower
        v, top = -1, -1
        for u in iter_bits(uncolored):
            key = seen[u].bit_count() << shift | (adj[u] & uncolored).bit_count()
            if key > top:
                v, top = u, key
        rest = uncolored & ~(1 << v)
        nbrs = adj[v] & rest
        for c in range(k + 1):
            bit = 1 << c
            if seen[v] & bit:
                continue
            if c == k and k + 1 >= best:
                break
            colors[v] = c
            fresh = [u for u in iter_bits(nbrs) if not seen[u] & bit]
            for u in fresh:
                seen[u] |= bit
            stop = rec(rest, k + (c == k))
            for u in fresh:
                seen[u] ^= bit
            if stop:
                return True
        return False

    rec(g.full_mask, 0)
    return best, best_colors


def _color_classes(g: Graph, value: int, coloring: Sequence[int]) -> tuple[VertexSet, ...]:
    classes = [0] * value
    for v, c in enumerate(coloring):
        classes[c] |= 1 << v
    classes = [m for m in classes if m]
    classes.sort(key=lambda m: (m & -m).bit_length())
    return tuple(VertexSet(m, g.n) for m in classes)


def chromatic_number(g: Graph, limits: Optional[SolverLimits] = None) -> SolveResult:
    _check(limits, "chromatic", g.n, "chromatic_max_n")
    counter = [0]
    value, coloring = _dsatur(g, counter)
    return SolveResult("chromatic", value, _color_classes(g, value, coloring), counter[0])


def clique_cover(g: Graph, limits: Optional[SolverLimits] = None) -> SolveResult:
    """Clique covering number as the chromatic number of the complement; the
    witness is the partition of the vertices into cliques."""
    _check(limits, "clique_cover", g.n, "chromatic_max_n")
    counter = [0]
    value, coloring = _dsatur(complement(g), counter)
    return SolveResult("clique_cover", value, _color_classes(g, value, coloring), counter[0])


# ---------------------------------------------------------------------------
# Gamma-set enumeration and the twin-based tau invariant.
# ---------------------------------------------------------------------------

def enumerate_gamma_sets(g: Graph, limits: Optional[SolverLimits] = None) -> list[VertexSet]:
    """All minimum dominating sets, in ascending (lexicographic) order."""
    _check(limits, "gamma_sets", g.n, "gamma_sets_max_n")
    counter = [0]
    t = _tables(g)
    gval = _gamma_mask(t, counter).bit_count()
    return [VertexSet(m, g.n) for m in _lex_dominating_masks(t, range(gval, gval + 1), counter)]


def twin_classes(g: Graph) -> list[int]:
    """Equivalence classes of true twins (equal closed neighborhoods) as masks."""
    groups: dict[int, int] = {}
    for v in range(g.n):
        groups[g.closed[v]] = groups.get(g.closed[v], 0) | 1 << v
    return list(groups.values())


def twin_shadow_mask(g: Graph, s_mask: int) -> int:
    """Vertices outside the set having a true twin inside it."""
    shadow = 0
    for cls in twin_classes(g):
        if cls & s_mask:
            shadow |= cls & ~s_mask
    return shadow


def tau(g: Graph, limits: Optional[SolverLimits] = None) -> SolveResult:
    """Largest twin shadow over all minimum dominating sets; the witness is the
    maximizing set (lexicographically least on ties)."""
    _check(limits, "tau", g.n, "gamma_sets_max_n")
    counter = [0]
    t = _tables(g)
    gval = _gamma_mask(t, counter).bit_count()
    best = -1
    best_mask = 0
    for m in _lex_dominating_masks(t, range(gval, gval + 1), counter):
        size = twin_shadow_mask(g, m).bit_count()
        if size > best:
            best = size
            best_mask = m
    if best < 0:
        best = 0
    return SolveResult("tau", best, VertexSet(best_mask, g.n), counter[0])


# ---------------------------------------------------------------------------
# Dispatch table used by the CLI and the audit layer.
# ---------------------------------------------------------------------------

def solver(invariant: str) -> Callable[[Graph, Optional[SolverLimits]], SolveResult]:
    """The solver of an invariant name: an entry of ``INVARIANT_IDS``, or
    ``gamma_<k>`` for the k-domination number, with k >= 1 written in ASCII
    digits and no leading zero.  Any other name raises ValueError."""
    if invariant == "gamma":
        return gamma
    digits = invariant[6:] if invariant.startswith("gamma_") else ""
    if digits[:1] not in ("", "0") and all("0" <= c <= "9" for c in digits):
        k = int(digits)
        return lambda g, limits=None: gamma_k(g, k, limits)
    table = {
        "gamma_roman": gamma_roman,
        "gamma_weak_roman": gamma_weak_roman,
        "gamma_secure": gamma_secure,
        "matching": matching_number,
        "two_packing": two_packing,
        "chromatic": chromatic_number,
        "clique_cover": clique_cover,
        "tau": tau,
    }
    if invariant not in table:
        raise ValueError(f"unknown invariant {invariant!r}; known: {', '.join(INVARIANT_IDS)}, "
                         "or gamma_<k> for k >= 1")
    return table[invariant]


def solve(g: Graph, invariant: str, limits: Optional[SolverLimits] = None) -> SolveResult:
    """Solve the invariant that ``solver`` names on g."""
    return solver(invariant)(g, limits)


INVARIANT_IDS = ("gamma", "gamma_2", "gamma_roman", "gamma_weak_roman", "gamma_secure",
                 "matching", "two_packing", "chromatic", "clique_cover", "tau")
