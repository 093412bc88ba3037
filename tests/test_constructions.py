import random

import pytest

from domguard.constructions import (Certificate, ConstructionError, InapplicableError,
                                    clique_cover_secure_set, complement_secure_set,
                                    peel, product_secure_set, product_wrdf_aaaa,
                                    product_wrdf_lift, tree_secure_set,
                                    tree_wrdf_two_thirds, two_dominating_as_secure)
from domguard.graph import (Graph, cartesian_product, complete, corona, cycle, empty,
                            hypercube, join, path, star)
from domguard.protection import GuardFunction, is_secure_dominating, is_wrdf
from domguard.solvers import SolverLimits, gamma, gamma_secure, gamma_weak_roman, tau

from conftest import random_connected_graph, random_tree


class TestPeel:
    def test_fig1(self, fig1_tree):
        d = peel(fig1_tree)
        assert len(d.levels) == 1
        level = d.levels[0]
        assert level.supports.members() == (0, 2)
        assert level.removed.members() == (0, 2, 3, 4, 5)
        assert level.leaf_map[0].members() == (4, 5)
        assert level.leaf_map[2].members() == (3,)
        assert d.remainder.members() == (1,) and d.rho == 1

    def test_star(self):
        d = peel(star(5))
        assert len(d.levels) == 1
        assert d.levels[0].supports.members() == (0,)
        assert len(d.remainder) == 0 and d.rho == 0

    def test_p6(self):
        d = peel(path(6))
        assert d.levels[0].supports.members() == (1, 4)
        assert d.levels[0].removed.members() == (0, 1, 4, 5)
        assert d.remainder.members() == (2, 3) and d.rho == 1

    def test_rejects_non_trees(self):
        with pytest.raises(InapplicableError):
            peel(cycle(4))
        with pytest.raises(InapplicableError):
            peel(path(2))

    def test_partition_and_support_rules(self):
        rng = random.Random(31)
        for _ in range(150):
            t = random_tree(rng, rng.randint(3, 30))
            d = peel(t)
            union = 0
            for level in d.levels:
                assert level.supports.bits  # nonempty at every level
                assert union & level.removed.bits == 0
                union |= level.removed.bits
                alive = level.alive.bits
                for v in level.supports:
                    lv = level.leaf_map[v]
                    deg = (t.adj[v] & alive).bit_count()
                    assert len(lv) >= 1
                    assert deg <= len(lv) + 1
                    for leaf in lv:
                        assert (t.adj[leaf] & alive).bit_count() == 1
            assert len(d.remainder) <= 2
            assert d.rho == (1 if len(d.remainder) else 0)
            assert union | d.remainder.bits == t.full_mask
            assert union & d.remainder.bits == 0


class TestTwoThirdsTree:
    def test_corona_tightness(self):
        g = corona(path(3), 2)  # n = 9, bound 6, weight exactly 6
        cert = tree_wrdf_two_thirds(g)
        assert cert.claimed_bound == 6 and cert.achieved() == 6
        assert gamma_weak_roman(g).value == 6

    def test_star(self):
        cert = tree_wrdf_two_thirds(star(5))
        assert cert.object.values[0] == 2 and cert.achieved() == 2
        assert cert.claimed_bound == (2 * 5) // 3

    def test_p6(self):
        cert = tree_wrdf_two_thirds(path(6))
        assert cert.achieved() == 3 and cert.claimed_bound == 4
        assert cert.object.values == (0, 1, 0, 1, 1, 0)

    def test_two_vertices(self):
        cert = tree_wrdf_two_thirds(path(2))
        assert cert.achieved() == 1 and cert.object.values == (1, 0)

    def test_rejects_trivial_and_disconnected(self):
        with pytest.raises(InapplicableError):
            tree_wrdf_two_thirds(complete(1))
        with pytest.raises(InapplicableError):
            tree_wrdf_two_thirds(Graph(4, [(0, 1), (2, 3)]))

    def test_random_trees(self):
        rng = random.Random(32)
        for _ in range(100):
            t = random_tree(rng, rng.randint(2, 30))
            cert = tree_wrdf_two_thirds(t)
            assert cert.valid
            assert cert.achieved() <= (2 * t.n) // 3
            assert is_wrdf(t, cert.object)

    def test_on_non_tree_graphs(self):
        rng = random.Random(33)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(2, 12))
            cert = tree_wrdf_two_thirds(g)
            assert cert.valid and is_wrdf(g, cert.object)
            assert cert.achieved() <= (2 * g.n) // 3


class TestTreeSecureSet:
    def test_fig1(self, fig1_tree):
        cert = tree_secure_set(fig1_tree)
        assert cert.object.members() == (1, 3, 4, 5)
        assert cert.claimed_bound == 4
        assert gamma_secure(fig1_tree).value == 4  # tight here

    def test_corona_leaf_structure(self):
        g1 = cycle(4)
        g = corona(g1, 3)
        cert = tree_secure_set(g)
        assert cert.claimed_bound == 3 * g1.n and cert.achieved() == 3 * g1.n
        assert gamma_secure(g).value == 3 * g1.n

    def test_p6(self):
        cert = tree_secure_set(path(6))
        assert cert.object.members() == (0, 2, 5) and cert.achieved() == 3

    def test_random_trees(self):
        rng = random.Random(34)
        for _ in range(100):
            t = random_tree(rng, rng.randint(3, 30))
            cert = tree_secure_set(t)
            d = peel(t)
            supports = sum(len(level.supports) for level in d.levels)
            assert cert.valid
            assert is_secure_dominating(t, cert.object)
            assert cert.achieved() == cert.claimed_bound
            assert cert.achieved() <= t.n - supports


class TestComplementSecureSet:
    def test_k5_minus_edge(self):
        g = join(complete(3), empty(2))
        cert = complement_secure_set(g)
        assert cert.claimed_bound == 2 and cert.object.members() == (3, 4)

    def test_general_near_complete(self):
        from domguard.graph import remove_edge
        for n in (5, 6, 7):
            g = remove_edge(complete(n), n - 2, n - 1)
            cert = complement_secure_set(g)
            assert cert.claimed_bound == 2

    def test_c6(self):
        cert = complement_secure_set(cycle(6))
        assert cert.claimed_bound == 4 and len(cert.object) == 4

    def test_inapplicable_with_complete_component(self):
        with pytest.raises(InapplicableError):
            complement_secure_set(complete(4))
        with pytest.raises(InapplicableError):
            complement_secure_set(Graph(5, [(0, 1), (1, 2), (3, 4)]))

    def test_random_sandwich(self):
        rng = random.Random(35)
        done = 0
        while done < 120:
            g = random_connected_graph(rng, rng.randint(3, 9))
            from domguard.graph import component_is_complete
            if component_is_complete(g):
                continue
            cert = complement_secure_set(g)
            assert cert.valid
            assert cert.claimed_bound >= gamma_secure(g).value
            done += 1

    def test_exhaustive_sandwich_connected_n7(self, corpus_connected_n7):
        from domguard.graph import component_is_complete
        for g in corpus_connected_n7:
            if component_is_complete(g):
                continue
            cert = complement_secure_set(g)
            assert cert.valid
            assert cert.claimed_bound >= gamma_secure(g).value


class TestCliqueCoverSecureSet:
    def test_complete(self):
        cert = clique_cover_secure_set(complete(9))
        assert cert.claimed_bound == 1 and len(cert.object) == 1

    def test_fig2_left_tight(self, fig2_left):
        cert = clique_cover_secure_set(fig2_left)
        assert cert.claimed_bound == 3
        assert gamma_secure(fig2_left).value == 3

    def test_c5(self):
        cert = clique_cover_secure_set(cycle(5))
        assert cert.claimed_bound == 3 and cert.valid


class TestTwoDominatingAsSecure:
    def test_three_cube(self):
        cert = two_dominating_as_secure(hypercube(3))
        assert cert.claimed_bound == 4 and cert.achieved() == 4

    def test_c4_and_complete(self):
        assert two_dominating_as_secure(cycle(4)).claimed_bound == 2
        assert two_dominating_as_secure(complete(8)).claimed_bound == 2


class TestProductLift:
    def test_k2_square(self):
        k2 = complete(2)
        cert = product_wrdf_lift(GuardFunction(k2, (1, 0)), k2)
        assert cert.achieved() == 2 and cert.claimed_bound == 2
        assert gamma_weak_roman(cert.graph).value == 2

    def test_complete_times_small(self):
        for t in (3, 4):
            for h in (path(2), path(3), cycle(3)):
                if h.n > t:
                    continue
                kt = complete(t)
                f = gamma_weak_roman(kt).witness
                cert = product_wrdf_lift(f, h)
                assert cert.claimed_bound == h.n * 1
                assert gamma_weak_roman(cert.graph).value == h.n

    def test_all_ones_always_lifts(self):
        g, h = path(3), cycle(4)
        cert = product_wrdf_lift(GuardFunction(g, (1, 1, 1)), h)
        assert cert.achieved() == g.n * h.n and cert.valid

    def test_rejects_non_wrdf_input(self):
        p3 = path(3)
        with pytest.raises(InapplicableError):
            product_wrdf_lift(GuardFunction(p3, (0, 1, 0)), p3)

    def test_bound_dominates_exact_on_small_pairs(self):
        rng = random.Random(36)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 4))
            h = random_connected_graph(rng, rng.randint(2, 4))
            if g.n * h.n > 12:
                continue
            cert = product_wrdf_lift(gamma_weak_roman(g).witness, h)
            assert cert.claimed_bound >= gamma_weak_roman(cert.graph).value


class TestProductSecureSet:
    @pytest.mark.parametrize("l", [2, 3])
    def test_k3_with_clique_join_three_isolates(self, l):
        # the bound collapses to 5 for every clique size l >= 2, and is tight
        h = join(complete(l), empty(3))
        cert = product_secure_set(complete(3), h)
        assert cert.claimed_bound == 5
        assert gamma_secure(cert.graph).value == 5

    def test_star_square(self):
        cert = product_secure_set(star(3), star(3))
        assert cert.claimed_bound == 4
        assert gamma_secure(cert.graph).value == 4

    def test_grid(self):
        cert = product_secure_set(path(3), path(3))
        assert cert.claimed_bound == 4
        assert gamma_weak_roman(cert.graph).value == 4

    def test_preconditions(self):
        with pytest.raises(InapplicableError):
            product_secure_set(complete(1), path(3))
        with pytest.raises(InapplicableError):
            product_secure_set(path(3), complete(3))

    def test_random_sandwich(self):
        rng = random.Random(37)
        done = 0
        from domguard.graph import component_is_complete
        while done < 30:
            g = random_connected_graph(rng, rng.randint(2, 3))
            h = random_connected_graph(rng, rng.randint(3, 4))
            if component_is_complete(h) or g.n * h.n > 12:
                continue
            cert = product_secure_set(g, h)
            assert cert.valid
            assert cert.claimed_bound >= gamma_secure(cert.graph).value
            done += 1


class TestProductReserveLift:
    def test_fig3_instance(self, spider9):
        f = GuardFunction(spider9, (2, 0, 1, 0, 0, 0, 0, 0, 0))
        cert = product_wrdf_aaaa(complete(3), f)
        assert cert.claimed_bound == 8 and cert.achieved() == 8
        assert not cert.trusted_input

    def test_empty_uncovered_column_case(self):
        p3 = path(3)
        cert = product_wrdf_aaaa(path(2), GuardFunction(p3, (0, 2, 0)))
        assert cert.claimed_bound == 4 and cert.achieved() == 4

    def test_rejects_no_reserve(self):
        p3 = path(3)
        with pytest.raises(InapplicableError):
            product_wrdf_aaaa(path(2), GuardFunction(p3, (1, 1, 1)))

    def test_rejects_suboptimal(self):
        p4 = path(4)
        with pytest.raises(InapplicableError):
            product_wrdf_aaaa(path(2), GuardFunction(p4, (2, 0, 2, 0)))

    def test_trusted_when_h_above_limit(self, spider9):
        limits = SolverLimits(weak_roman_max_n=3)
        f = GuardFunction(spider9, (2, 0, 1, 0, 0, 0, 0, 0, 0))
        cert = product_wrdf_aaaa(complete(3), f, limits)
        assert cert.trusted_input and cert.valid


class TestCertificateShape:
    def test_json_dict(self, fig1_tree):
        cert = tree_secure_set(fig1_tree)
        d = cert.to_json_dict()
        assert set(d) == {"theorem_id", "graph6", "claimed_bound", "achieved",
                          "object", "valid", "trusted_input"}
        assert d["object"]["kind"] == "vertex_set"

    def test_vizing_style_counterexample(self):
        s4 = star(4)
        product_value = gamma_secure(cartesian_product(s4, s4)).value
        assert product_value == 6
        assert gamma_secure(s4).value ** 2 == 9
        assert product_value < 9
