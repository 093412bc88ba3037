import random
from itertools import combinations, product

import pytest

from domguard import oracles
from domguard import solvers as solvers_mod
from domguard.graph import (Graph, automorphisms, bandwidth_order, cartesian_product, complement,
                            complete, corona, cycle, empty, hamming, hypercube, iter_bits, join,
                            min_degree, leaf_count, path, relabel, remove_edge, star)
from domguard.graph6 import parse_graph6
from domguard.protection import (GuardFunction, is_df, is_k_dominating, is_rdf,
                                 is_secure_dominating, is_wrdf, kdom_mask, unsafe_zeros)
from domguard.solvers import (LimitExceeded, SolverLimits, _clique_bound, _dsatur,
                              _lex_dominating_masks, _k_reach, _SearchTables,
                              chromatic_number, clique_cover, enumerate_gamma_sets, gamma,
                              gamma_k, gamma_roman, gamma_secure, gamma_weak_roman,
                              matching_number, solve, tau, two_packing)

from conftest import random_graph


def ceil_div(a, b):
    return -(-a // b)


class TestGamma:
    def test_fig1(self, fig1_tree):
        assert gamma(fig1_tree).value == 2

    def test_complete(self):
        assert gamma(complete(9)).value == 1

    def test_p7(self):
        assert gamma(path(7)).value == 3

    def test_degenerate(self):
        assert gamma(Graph(0)).value == 0
        assert gamma(complete(1)).value == 1
        g = Graph(3)
        res = gamma(g)
        assert res.value == 3 and res.witness.members() == (0, 1, 2)

    def test_corona_p2_n1(self):
        g = corona(path(2), 1)
        assert gamma(g).value == 2 == oracles.brute_gamma(g)[0]

    def test_empty_graph_all_invariants_zero(self):
        g = Graph(0)
        assert gamma(g).value == 0
        assert gamma_k(g, 2).value == 0
        assert gamma_roman(g).value == 0
        assert gamma_weak_roman(g).value == 0
        assert gamma_secure(g).value == 0
        assert matching_number(g).value == 0
        assert two_packing(g).value == 0
        assert chromatic_number(g).value == 0
        assert clique_cover(g).value == 0
        assert tau(g).value == 0

    def test_single_vertex(self):
        g = complete(1)
        assert gamma(g).value == gamma_weak_roman(g).value == gamma_secure(g).value == 1
        assert gamma_roman(g).value == 1
        assert chromatic_number(g).value == clique_cover(g).value == 1

    def test_witness_is_lex_least(self):
        res = gamma(cycle(6))
        assert is_df(cycle(6), res.witness)
        assert res.witness.members() == (0, 3)  # first 2-subset that dominates C_6


class TestGammaK:
    def test_three_cube(self):
        res = gamma_k(hypercube(3), 2)
        assert res.value == 4
        assert is_k_dominating(hypercube(3), res.witness, 2)

    def test_complete(self):
        assert gamma_k(complete(7), 2).value == 2

    def test_c4(self):
        assert gamma_k(cycle(4), 2).value == 2

    def test_k1(self):
        assert gamma_k(complete(1), 2).value == 1

    def test_oracle_equivalence_all_n6(self, corpus_all_n6):
        for g in corpus_all_n6:
            for k in (1, 2, 3, 4):
                res = gamma_k(g, k)
                value, members = oracles.brute_gamma_k(g, k)
                assert res.value == value
                assert res.witness.members() == tuple(sorted(members))

    def test_three_nodes_pinned(self):
        """The hardest 24-vertex graph of the random_audit draw (seed 1)
        for γ_3's search, in input labels."""
        g = parse_graph6("W?ko?`H_Ca?GO@qoGJ[HLCoSnHP?I??@wFUu?wOQdOeKM?c")
        res = gamma_k(g, 3)
        assert (g.n, res.value, res.nodes_explored) == (24, 9, 76491)
        assert res.witness.members() == (2, 3, 7, 9, 12, 13, 15, 21, 22)

    def test_k1_is_domination(self, corpus_all_n6):
        for g in corpus_all_n6:
            one, plain = gamma_k(g, 1), gamma(g)
            assert (one.value, one.witness) == (plain.value, plain.witness), g


class TestGammaRoman:
    @pytest.mark.parametrize("t", range(2, 7))
    def test_path_prisms(self, t):
        g = cartesian_product(path(t), complete(2))
        assert gamma_roman(g).value == t + 1

    def test_complete(self):
        assert gamma_roman(complete(1)).value == 1
        assert gamma_roman(complete(2)).value == 2
        assert gamma_roman(complete(6)).value == 2

    def test_c7(self):
        assert gamma_roman(cycle(7)).value == 5

    def test_witness_verifies(self):
        rng = random.Random(4)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 7))
            res = gamma_roman(g)
            assert is_rdf(g, res.witness) and res.witness.weight() == res.value

    def test_matches_oracle_all_n6(self, corpus_all_n6):
        for g in corpus_all_n6:
            assert gamma_roman(g).value == oracles.brute_gamma_roman(g)[0], g

    @pytest.mark.parametrize("corpus", ["corpus_connected_n7", "seeded"])
    def test_matches_subset_scan(self, corpus, request):
        """The max-coverage search against a plain scan of the two-guard
        sets D, size ascending while 2|D| is below the best weight, each
        size in ``combinations`` order, keeping the first of least weight:
        same value and witness, in input labels and in bandwidth order."""
        def scan(g):
            best, best_masks = g.n + 1, (0, 0)
            for d in range(g.n + 1):
                if 2 * d >= best:
                    break
                for combo in combinations(range(g.n), d):
                    two = reach = 0
                    for b in combo:
                        two |= 1 << b
                        reach |= g.closed[b]
                    ones = g.full_mask & ~reach
                    if 2 * d + ones.bit_count() < best:
                        best, best_masks = 2 * d + ones.bit_count(), (two | ones, two)
            return best, GuardFunction.from_masks(g, *best_masks)

        if corpus == "seeded":
            rng = random.Random(17)
            graphs = [random_graph(rng, n, p) for n, p in ((12, 0.2), (14, 0.3), (16, 0.15),
                                                           (18, 0.25), (19, 0.4), (20, 0.2))]
        else:
            graphs = request.getfixturevalue(corpus)
        for g in graphs:
            for h in (g, relabel(g, bandwidth_order(g))):
                res = gamma_roman(h)
                assert (res.value, res.witness) == scan(h), h

    def test_nodes_pinned(self):
        """The hardest 24-vertex graph of the random_audit draw (seed 1) for
        this search.  The subset scan it replaced tested 55,455 sets."""
        g = parse_graph6("WP??A?QCA?GC`GCA`EGOc?OI??@C?@????C?HCY_B??@??D")
        res = gamma_roman(g)
        assert (g.n, res.value, res.nodes_explored) == (24, 12, 16338)
        assert res.witness.to_text() == "1,2,0,0,2,0,0,0,2,0,0,0,0,0,0,0,0,1,0,1,1,2,0,0"


class TestGammaWeakRoman:
    def test_fig1(self, fig1_tree):
        res = gamma_weak_roman(fig1_tree)
        assert res.value == 3
        assert is_wrdf(fig1_tree, res.witness)

    @pytest.mark.parametrize("t", range(4, 13))
    def test_paths_and_cycles(self, t):
        expected = ceil_div(3 * t, 7)
        assert gamma_weak_roman(cycle(t)).value == expected
        assert gamma_weak_roman(path(t)).value == expected

    def test_complete(self):
        assert gamma_weak_roman(complete(8)).value == 1

    def test_witness_verifies(self):
        rng = random.Random(5)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 7))
            res = gamma_weak_roman(g)
            assert is_wrdf(g, res.witness) and res.witness.weight() == res.value

    def test_reserve_variant(self, spider9):
        f = gamma_weak_roman(spider9).witness
        assert f.two_mask != 0
        assert f.weight() == gamma_weak_roman(spider9).value == 3
        assert f.two_mask != 0 and is_wrdf(spider9, f)

    def test_reserve_variant_absent_for_complete(self):
        # gamma_r(K_n) = 1: no optimal function can hold two guards
        assert gamma_weak_roman(complete(5)).witness.two_mask == 0

    def test_reserve_variant_matches_brute_force(self, corpus_all_n6):
        for g in corpus_all_n6:
            res = gamma_weak_roman(g)
            expected = any(2 in vals and sum(vals) == res.value and oracles.naive_is_wrdf(g, vals)
                           for vals in product((0, 1, 2), repeat=g.n))
            assert (res.witness.two_mask != 0) == expected

    def test_witness_tie_break(self, fig1_tree, spider9):
        cases = [
            (fig1_tree, "2,0,1,0,0,0"),
            (spider9, "2,0,1,0,0,0,0,0,0"),
            (cycle(7), "1,0,1,0,1,0,0"),
            (cartesian_product(path(3), path(3)), "1,1,0,0,0,1,1,0,0"),
            (cartesian_product(cycle(5), complete(2)), "1,1,0,0,1,0,0,1,0,0"),
        ]
        for g, text in cases:
            assert gamma_weak_roman(g).witness.to_text() == text


class TestGammaSecure:
    def test_fig1(self, fig1_tree):
        res = gamma_secure(fig1_tree)
        assert res.value == 4
        assert is_secure_dominating(fig1_tree, res.witness)

    def test_k5_minus_edge(self):
        assert gamma_secure(join(complete(3), empty(2))).value == 2

    def test_star_square(self):
        g = cartesian_product(star(3), star(3))
        assert gamma_secure(g).value == 4

    @pytest.mark.parametrize("t", range(4, 13))
    def test_paths_and_cycles(self, t):
        expected = ceil_div(3 * t, 7)
        assert gamma_secure(cycle(t)).value == expected
        assert gamma_secure(path(t)).value == expected

    def test_witness_verifies(self):
        rng = random.Random(6)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 7))
            res = gamma_secure(g)
            assert is_secure_dominating(g, res.witness) and len(res.witness) == res.value

    def test_rejects_weak_roman_result_of_another_graph(self):
        with pytest.raises(ValueError):
            gamma_secure(path(5), weak_roman=gamma_weak_roman(cycle(5)))
        with pytest.raises(ValueError):
            gamma_secure(path(5), weak_roman=gamma(path(5)))


class TestAuxiliarySolvers:
    def test_matching_examples(self):
        assert matching_number(join(complete(3), empty(2))).value == 2
        assert matching_number(path(4)).value == 2
        assert matching_number(cycle(7)).value == 3

    def test_matching_witness_is_a_matching(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 8))
            res = matching_number(g)
            seen = set()
            for u, v in res.witness:
                assert g.has_edge(u, v)
                assert u not in seen and v not in seen
                seen.update((u, v))
            assert len(res.witness) == res.value

    def test_empty_matching_is_an_edge_set(self):
        # () is both the empty matching and the empty coloring; the kind
        # follows the invariant, not the witness's type
        assert matching_number(empty(2)).witness_json() == {"kind": "edge_set", "edges": []}
        for res in (chromatic_number(Graph(0)), clique_cover(Graph(0))):
            assert res.witness_json() == {"kind": "vertex_set_list", "sets": []}

    def test_two_packing_examples(self):
        assert two_packing(corona(path(3), 2)).value == 3
        assert two_packing(complete(6)).value == 1
        assert two_packing(path(7)).value == 3

    def test_two_packing_witness(self):
        rng = random.Random(8)
        for _ in range(40):
            g = random_graph(rng, rng.randint(0, 8))
            res = two_packing(g)
            members = res.witness.members()
            assert len(members) == res.value
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    assert g.closed[u] & g.closed[v] == 0

    def test_coloring_examples(self):
        assert chromatic_number(cycle(5)).value == 3
        assert chromatic_number(complete(6)).value == 6
        assert chromatic_number(empty(4)).value == 1
        assert chromatic_number(Graph(0)).value == 0
        assert clique_cover(complete(8)).value == 1
        assert clique_cover(cycle(5)).value == 3

    def test_coloring_past_degree_64(self):
        """The DSATUR key orders (saturation, uncolored degree) pairs at any
        degree: the hubs of K3-bar + C71 go first and nothing backtracks."""
        limits = SolverLimits(chromatic_max_n=120)
        for g, value in ((join(empty(3), cycle(71)), 4), (join(complete(2), cycle(80)), 4),
                         (star(100), 2), (complete(70), 70)):
            res = chromatic_number(g, limits)
            assert res.value == value and len(res.witness) == value
            assert sum(len(cls) for cls in res.witness) == g.n
            assert all(not g.adj[v] & cls.bits for cls in res.witness for v in cls)
            assert res.nodes_explored == g.n + 1

    def test_ng_chromatic_tightness_on_c5(self):
        assert chromatic_number(cycle(5)).value + chromatic_number(complement(cycle(5))).value == 6

    def test_coloring_witness_is_proper(self):
        rng = random.Random(9)
        for _ in range(30):
            g = random_graph(rng, rng.randint(0, 8))
            res = chromatic_number(g)
            assert len(res.witness) == res.value
            union = 0
            for cls in res.witness:
                union |= cls.bits
                for u in cls:
                    assert g.adj[u] & cls.bits == 0
            assert union == g.full_mask

    def test_clique_cover_witness_is_clique_partition(self):
        rng = random.Random(10)
        for _ in range(30):
            g = random_graph(rng, rng.randint(0, 8))
            res = clique_cover(g)
            union = 0
            for cl in res.witness:
                assert union & cl.bits == 0
                union |= cl.bits
                for u in cl:
                    assert g.closed[u] & cl.bits == cl.bits
            assert union == g.full_mask

class TestDsatur:
    """DSATUR gives the coloring value and, at its best leaf, the witness."""

    def test_matches_oracle_all_n6(self, corpus_all_n6):
        for g in corpus_all_n6:
            for h in (g, complement(g)):
                assert _dsatur(h, [0])[0] == oracles.brute_chromatic(h)

    def test_matches_oracle_connected_n7(self, corpus_connected_n7):
        for g in corpus_connected_n7:
            for h in (g, complement(g)):
                assert _dsatur(h, [0])[0] == oracles.brute_chromatic(h)

    @pytest.mark.parametrize("corpus", ["corpus_all_n6", "corpus_connected_n7", "seeded"])
    def test_witnesses_are_optimal_partitions(self, corpus, request):
        if corpus == "seeded":
            rng = random.Random(15)
            graphs = [random_graph(rng, n, p) for n, p in ((17, 0.3), (18, 0.5), (19, 0.2),
                                                           (20, 0.6))]
        else:
            graphs = request.getfixturevalue(corpus)
        for g in graphs:
            for res, h in ((chromatic_number(g), g), (clique_cover(g), complement(g))):
                assert len(res.witness) == res.value
                union = 0
                for cls in res.witness:
                    assert union & cls.bits == 0
                    union |= cls.bits
                    for u in cls:
                        assert h.adj[u] & cls.bits == 0
                assert union == g.full_mask

    def test_nodes_pinned(self):
        """A sparse 23-vertex graph of the random_audit draw (seed 1).  Without
        the cut on entry to a node whose class count has reached the incumbent,
        the search takes about 1.5M nodes in either labelling."""
        g = parse_graph6("VCC?AC?@D@@oAcAA??C@??G?A??@I@Ig?@Agg?@?oC??")
        assert (g.n, g.edge_count) == (23, 38)
        for h, nodes in ((g, 69), (relabel(g, bandwidth_order(g)), 67)):
            counter = [0]
            assert _dsatur(h, counter)[0] == 3
            assert counter[0] == nodes

    def test_bound_does_not_depend_on_vertex_0(self):
        """An isolated or universal vertex 0 leaves the lower bound at the
        clique and odd-cycle value, so the search stops at its first optimum."""
        odd = Graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])  # vertex 0 isolated, C5
        assert _clique_bound(odd) == 3
        g = join(complete(1), path(23))  # vertex 0 universal; theta = 12
        assert _clique_bound(complement(g)) == 12
        res = clique_cover(g)
        assert (res.value, res.nodes_explored) == (12, 25)


class TestGammaSetsAndTau:
    def test_c4_all_pairs(self):
        sets = enumerate_gamma_sets(cycle(4))
        assert [s.to_text() for s in sets] == ["0,1", "0,2", "0,3", "1,2", "1,3", "2,3"]

    def test_k3_singletons(self):
        assert [s.to_text() for s in enumerate_gamma_sets(complete(3))] == ["0", "1", "2"]

    def test_fig1_contains_the_two_support_set(self, fig1_tree):
        sets = enumerate_gamma_sets(fig1_tree)
        assert any(s.members() == (0, 2) for s in sets)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_tau_of_near_complete(self, n):
        g = remove_edge(complete(n), n - 2, n - 1)
        assert tau(g).value == n - 3

    def test_tau_examples(self):
        assert tau(join(complete(3), empty(2))).value == 2
        assert tau(cycle(4)).value == 0

    def test_tau_witness_is_gamma_set(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 7))
            res = tau(g)
            assert is_df(g, res.witness)
            assert len(res.witness) == gamma(g).value


class TestLimits:
    def test_limit_exceeded(self):
        tight = SolverLimits(weak_roman_max_n=4)
        with pytest.raises(LimitExceeded):
            gamma_weak_roman(path(5), tight)

    def test_solve_dispatch(self):
        assert solve(path(4), "gamma").value == 2
        assert solve(path(4), "gamma_2").value == 3
        assert solve(path(4), "gamma_secure").value == 2
        assert solve(path(4), "gamma_1").invariant_id == "gamma_1"
        assert solve(path(4), "gamma_10").invariant_id == "gamma_10"
        for name in ("nonsense", "gamma_0", "gamma_02", "gamma_\u00b2", "gamma_"):
            with pytest.raises(ValueError):
                solve(path(4), name)


def test_nodes_explored_pinned(fig1_tree, spider9):
    """Node counts are deterministic, so a change here is a change in the search."""
    def gamma_2(g):
        return gamma_k(g, 2)

    cases = [
        (fig1_tree, (5, 36, 17, 21, 15)),
        (spider9, (5, 255, 17, 51, 33)),
        (cartesian_product(path(3), path(3)), (12, 51, 101, 25, 25)),
        (cartesian_product(cycle(5), complete(2)), (8, 53, 112, 42, 25)),
        # Order 20, so the symmetry cut applies.
        (cartesian_product(cycle(10), complete(2)), (26, 484, 1041, 156, 469)),
    ]
    solvers = (gamma, gamma_secure, gamma_weak_roman, gamma_2, two_packing)
    for g, nodes in cases:
        assert tuple(f(g).nodes_explored for f in solvers) == nodes
    wr = gamma_weak_roman(cartesian_product(cycle(14), complete(2)))
    assert (wr.value, wr.witness.to_text(), wr.nodes_explored) == (
        11, "1,1,0,0,1,0,0,1,0,0,1,0,0,1,1,0,0,0,0,2,0,0,1,0,0,1,0,0", 5852)


def test_protection_cut_is_sound_all_n6(corpus_all_n6):
    """The protection cut of the dominating-set search, on every graph with
    n <= 6, every set size and every two-guard allowance k in {0, 1, 2}: the
    cut search yields an order-preserving subsequence of the uncut one, and
    no set it drops holds a two-guard class T of size k that makes it weak
    Roman."""
    dropped = 0
    for g in corpus_all_n6:
        t = _SearchTables(g)
        for size in range(g.n + 1):
            sizes = range(size, size + 1)
            uncut = list(_lex_dominating_masks(t, sizes, [0]))
            for k in (0, 1, 2):
                cut = list(_lex_dominating_masks(t, sizes, [0], lambda s, k=k: k))
                rest = iter(uncut)
                assert all(m in rest for m in cut)
                for smask in set(uncut) - set(cut):
                    members = [v for v in range(g.n) if smask >> v & 1]
                    for twos in combinations(members, k):
                        values = [2 if v in twos else smask >> v & 1 for v in range(g.n)]
                        assert not oracles.naive_is_wrdf(g, values)
                    dropped += 1
    assert dropped == 326


@pytest.mark.parametrize("corpus", ["corpus_all_n6", "corpus_connected_n7"])
def test_search_matches_plain_scan(corpus, request):
    """The dominating-set search against a route that shares no code with
    it: subsets by size, each size in ``combinations`` order, filtered with
    the naive oracle.  Same sets, same order, on every graph of the corpus."""
    for g in request.getfixturevalue(corpus):
        searched = list(_lex_dominating_masks(_SearchTables(g), range(g.n + 1), [0]))
        plain = [sum(1 << v for v in c)
                 for size in range(g.n + 1) for c in combinations(range(g.n), size)
                 if oracles.naive_is_df(g, set(c))]
        assert searched == plain, g


def test_k_coverage_cut_is_sound_all_n6(corpus_all_n6):
    """The k-coverage cut of the dominating-set search, on every graph with
    n <= 6, every set size and k in {2, 3, 4}: the cut search yields an
    order-preserving subsequence of the uncut one, every set it keeps is
    2-dominating, and every set it drops is not k-dominating."""
    dropped = 0
    for g in corpus_all_n6:
        t = _SearchTables(g)
        for size in range(g.n + 1):
            sizes = range(size, size + 1)
            uncut = list(_lex_dominating_masks(t, sizes, [0]))
            for k in (2, 3, 4):
                cut = list(_lex_dominating_masks(t, sizes, [0], reach=_k_reach(g, k)))
                rest = iter(uncut)
                assert all(m in rest for m in cut)
                assert all(kdom_mask(g, m, 2) for m in cut)
                for smask in set(uncut) - set(cut):
                    members = {v for v in range(g.n) if smask >> v & 1}
                    assert not oracles.naive_is_kdom(g, members, k)
                    dropped += 1
    assert dropped == 13475


@pytest.mark.parametrize("corpus", ["corpus_all_n6", "corpus_connected_n7"])
def test_two_coverage_cut_is_exact(corpus, request):
    """With the k = 2 tables the dominating-set search yields exactly the
    2-dominating sets of each size, in the uncut search's order."""
    for g in request.getfixturevalue(corpus):
        t, reach = _SearchTables(g), _k_reach(g, 2)
        for size in range(g.n + 1):
            sizes = range(size, size + 1)
            uncut = list(_lex_dominating_masks(t, sizes, [0]))
            cut = list(_lex_dominating_masks(t, sizes, [0], reach=reach))
            assert cut == [m for m in uncut if kdom_mask(g, m, 2)], (g, size)


def _symmetric_tables(graphs, monkeypatch):
    """Search tables with the symmetry cut's tables, built below the order
    gate, for the graphs whose automorphism list holds more than the
    identity."""
    monkeypatch.setattr(solvers_mod, "ORBIT_CUT_MIN_N", 0)
    tables = [_SearchTables(g) for g in graphs]
    return [t for t in tables if t.lanes[1]]


def _least_image(group, mask):
    """The least image of the set under ``group`` in the search's order:
    lex on sorted members."""
    members = list(iter_bits(mask))
    return min(tuple(sorted(sigma[v] for v in members)) for sigma in group)


@pytest.mark.parametrize("corpus", ["corpus_all_n6", "corpus_connected_n7"])
def test_orbit_cut_is_sound(corpus, request, monkeypatch):
    """The symmetry cut of the dominating-set search, the lex-leader lane
    test at every depth, on every graph of the corpus with a non-trivial
    automorphism list and every set size: the cut search yields an
    order-preserving subsequence of the uncut one that keeps the lex-least
    set of every orbit under the whole automorphism group."""
    dropped = 0
    for t in _symmetric_tables(request.getfixturevalue(corpus), monkeypatch):
        group = automorphisms(t.g, limit=5040)
        for size in range(t.g.n + 1):
            sizes = range(size, size + 1)
            uncut = list(_lex_dominating_masks(t, sizes, [0]))
            cut = list(_lex_dominating_masks(t, sizes, [0], symmetry=True))
            rest = iter(uncut)
            assert all(m in rest for m in cut)
            kept = set(cut)
            for m in uncut:
                assert sum(1 << v for v in _least_image(group, m)) in kept, (t.g, m)
            dropped += len(uncut) - len(cut)
    assert dropped == {"corpus_all_n6": 3263, "corpus_connected_n7": 32673}[corpus]


@pytest.mark.parametrize("corpus", ["corpus_all_n6", "corpus_connected_n7"])
def test_lane_test_is_lex_comparison(corpus, request, monkeypatch):
    """The lane test of the dominating-set search, as its children and its
    free fill take it, against a plain comparison: for random sets A it cuts
    A exactly when some listed non-identity automorphism σ has sorted σ(A)
    lex-below sorted A."""
    rng = random.Random(21)
    cuts = 0
    for t in _symmetric_tables(request.getfixturevalue(corpus), monkeypatch):
        n = t.g.n
        step, guard = t.lanes
        group = [s for s in automorphisms(t.g) if s != tuple(range(n))]
        for _ in range(20):
            a = rng.getrandbits(n)
            x = guard + sum(step[v] for v in iter_bits(a))
            verdict = x & guard != guard
            members = tuple(iter_bits(a))
            assert verdict == any(tuple(sorted(s[v] for v in members)) < members
                                  for s in group), (t.g, a)
            cuts += verdict
    assert cuts > 0


def test_lane_test_only_cuts():
    """The search with the symmetry cut against the same search without it
    pops at most as many nodes and returns the same first hit: the first
    dominating set, and the first secure one.  K4□K4 and K8,8 have more
    automorphisms than ``graph.automorphisms`` lists by default, so their
    lanes hold only part of the group."""
    fewer = 0
    for g in (cartesian_product(cycle(10), complete(2)), cartesian_product(path(4), path(4)),
              cartesian_product(cycle(8), complete(2)), hypercube(4), hamming(2, 4),
              join(empty(8), empty(8))):
        t = _SearchTables(g)
        assert t.lanes[1], g
        runs = []
        for symmetry in (True, False):
            counters = [0], [0]
            first = next(_lex_dominating_masks(t, range(g.n + 1), counters[0],
                                               symmetry=symmetry))
            secure = next(m for m in _lex_dominating_masks(t, range(g.n + 1), counters[1],
                                                           lambda size: 0, symmetry=symmetry)
                          if next(unsafe_zeros(g, m), None) is None)
            runs.append((first, secure, counters[0][0], counters[1][0]))
        (first, secure, *nodes), (first_off, secure_off, *nodes_off) = runs
        assert (first, secure) == (first_off, secure_off), g
        assert all(a <= b for a, b in zip(nodes, nodes_off)), g
        fewer += sum(a < b for a, b in zip(nodes, nodes_off))
    assert fewer > 0


def test_dense_graph_takes_the_lanes_of_its_complement():
    """A graph and its complement have the same automorphisms, and the
    tables search them on the sparser side, so both get the same lanes."""
    for g in (cartesian_product(cycle(10), complete(2)), cartesian_product(cycle(8), cycle(3)),
              hypercube(4)):
        assert _SearchTables(complement(g)).lanes == _SearchTables(g).lanes, g


@pytest.mark.parametrize("corpus", ["corpus_all_n6", "corpus_connected_n7"])
def test_orbit_cut_keeps_answers(corpus, request, monkeypatch):
    """With the order gate removed, every solver that takes the symmetry cut
    returns the value and witness of the uncut search, and the γ-set list
    and tau, whose γ-set passes never cut, are unchanged."""
    solvers = (gamma, lambda g: gamma_k(g, 2), gamma_weak_roman, gamma_secure, tau)
    graphs = request.getfixturevalue(corpus)
    uncut = [[f(g) for f in solvers] + [enumerate_gamma_sets(g)] for g in graphs]
    # Tables built under either gate must not outlive it.
    solvers_mod._tables.cache_clear()
    request.addfinalizer(solvers_mod._tables.cache_clear)
    monkeypatch.setattr(solvers_mod, "ORBIT_CUT_MIN_N", 0)
    fewer = 0
    for g, before in zip(graphs, uncut):
        after = [f(g) for f in solvers]
        assert [(r.value, r.witness) for r in after] == [(r.value, r.witness)
                                                         for r in before[:-1]], g
        assert enumerate_gamma_sets(g) == before[-1]
        fewer += sum(a.nodes_explored < b.nodes_explored for a, b in zip(after, before))
    assert fewer > 0


# ---------------------------------------------------------------------------
# Structural properties over random graphs, plus the full oracle equivalence.
# ---------------------------------------------------------------------------

def test_chain_inequalities_random():
    rng = random.Random(20)
    for _ in range(120):
        g = random_graph(rng, rng.randint(0, 7))
        gv = gamma(g).value
        wr = gamma_weak_roman(g).value
        ro = gamma_roman(g).value
        se = gamma_secure(g).value
        assert gv <= wr <= ro <= 2 * gv or gv == 0
        assert gv <= wr <= se
        assert (wr == gv) == (se == gv)


def test_monotone_under_edge_removal():
    rng = random.Random(21)
    done = 0
    while done < 200:
        g = random_graph(rng, rng.randint(2, 7))
        edges = list(g.edges())
        if not edges:
            continue
        u, v = edges[rng.randrange(len(edges))]
        h = remove_edge(g, u, v)
        assert gamma_weak_roman(g).value <= gamma_weak_roman(h).value
        assert gamma_secure(g).value <= gamma_secure(h).value
        done += 1


def test_packing_matching_and_secure_relations():
    rng = random.Random(22)
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 7))
        gv = gamma(g).value
        assert two_packing(g).value <= gv
        if min_degree(g) >= 1:
            assert matching_number(g).value >= gv
        se = gamma_secure(g).value
        assert se <= gamma_k(g, 2).value
        if not any(g.degree(v) == 1 and g.degree(next(g.neighbors(v))) == 1
                   for v in range(g.n)):
            assert se >= leaf_count(g)


def test_oracle_equivalence_connected_n7(corpus_connected_n7):
    """Branch-and-bound values equal plain enumeration for every invariant."""
    for g in corpus_connected_n7:
        dom = gamma(g)
        value, members = oracles.brute_gamma(g)
        assert dom.value == value
        assert dom.witness.members() == tuple(sorted(members))
        kdom = gamma_k(g, 2)
        value, members = oracles.brute_gamma_k(g, 2)
        assert kdom.value == value
        assert kdom.witness.members() == tuple(sorted(members))
        assert gamma_roman(g).value == oracles.brute_gamma_roman(g)[0]
        assert gamma_weak_roman(g).value == oracles.brute_gamma_weak_roman(g)[0]
        secure = gamma_secure(g)
        value, members = oracles.brute_gamma_secure(g)
        assert secure.value == value
        assert secure.witness.members() == tuple(sorted(members))
        assert matching_number(g).value == oracles.brute_matching(g)[0]
        packing = two_packing(g)
        value, members = oracles.brute_two_packing(g)
        assert packing.value == value
        assert packing.witness.members() == tuple(sorted(members))
        assert chromatic_number(g).value == oracles.brute_chromatic(g)
        assert clique_cover(g).value == oracles.brute_clique_cover(g)
        twins = tau(g)
        value, members = oracles.brute_tau(g)
        assert twins.value == value
        assert twins.witness.members() == tuple(sorted(members))
        mine = [s.members() for s in enumerate_gamma_sets(g)]
        assert mine == [tuple(sorted(s)) for s in oracles.brute_gamma_sets(g)]
