import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domguard.graph import (VERTEX_CAP, Graph, GraphError, VertexSet, automorphisms,
                            bandwidth_order, cartesian_product, complement, complete,
                            component_is_complete, corona, cycle, empty, generate, hamming,
                            has_hamiltonian_cycle,
                            hypercube, is_connected, is_cycle_graph, is_tree, join, leaf_count,
                            max_degree, min_degree, path, relabel, remove_edge,
                            spanning_tree, star)
from domguard.oracles import naive_is_hamiltonian

from conftest import random_graph


def graphs(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        picked = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs
                      else st.just([]))
        return Graph(n, picked)
    return build()


class TestConstruction:
    def test_adjacency_symmetric_and_loop_free(self):
        g = Graph(4, [(0, 1), (2, 3), (1, 2)])
        for u in range(4):
            assert not g.has_edge(u, u)
            for v in range(4):
                assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_rejects_loops_and_bad_range(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])
        with pytest.raises(GraphError):
            Graph(-1)

    def test_vertex_cap(self):
        Graph(VERTEX_CAP)  # exactly at the cap is fine
        with pytest.raises(GraphError):
            Graph(VERTEX_CAP + 1)

    def test_builders_over_the_cap_fail_before_building(self):
        """Only ``Graph`` checks the order, before it reads an edge, so an
        oversized family or operator fails without building its edges."""
        k40, p1000, p2 = complete(40), path(1000), path(2)
        builds = (lambda: cycle(10 ** 5), lambda: hypercube(20000), lambda: hamming(20000, 3),
                  lambda: cartesian_product(k40, k40), lambda: join(p1000, p1000),
                  lambda: corona(p2, 10 ** 6))
        for build in builds:
            tracemalloc.start()
            try:
                with pytest.raises(GraphError, match=f"exceeds the vertex cap {VERTEX_CAP}"):
                    build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    def test_immutable(self):
        g = path(3)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_structural_equality(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        a = Graph(4, edges)
        b = Graph(4, [(v, u) for u, v in reversed(edges)])
        assert a == b and hash(a) == hash(b)


class TestVertexSet:
    def test_membership_and_cardinality(self):
        s = VertexSet.from_indices([0, 2, 5], 6)
        assert len(s) == 3 and 2 in s and 1 not in s
        assert s.members() == (0, 2, 5)

    def test_text_round_trip(self):
        s = VertexSet.from_text("0,2,5", 6)
        assert s.to_text() == "0,2,5"
        assert VertexSet.from_text("", 4) == VertexSet(0, 4)

    def test_rejects_out_of_universe(self):
        with pytest.raises(GraphError):
            VertexSet.from_indices([4], 4)

    def test_set_algebra(self):
        a = VertexSet.from_indices([0, 1], 4)
        b = VertexSet.from_indices([1, 2], 4)
        assert (a | b).members() == (0, 1, 2)
        assert (a & b).members() == (1,)
        assert (a - b).members() == (0,)
        assert a.complement().members() == (2, 3)

    def test_immutable(self):
        s = VertexSet(5, 4)
        for name, value in (("bits", 1), ("universe", 8), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(s, name, value)
        assert s == VertexSet(5, 4)


class TestFamilies:
    def test_path(self):
        assert list(path(4).edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_star_is_center_plus_leaves(self):
        g = star(5)
        assert sorted(g.neighbors(0)) == [1, 2, 3, 4]
        assert g.edge_count == 4

    def test_hamming_2_3(self):
        g = hamming(2, 3)
        assert g.n == 9
        assert all(g.degree(v) == 4 for v in range(9))

    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_hamming_equals_product_numbering(self, t):
        assert hamming(2, t) == cartesian_product(complete(t), complete(t))

    def test_hypercube(self):
        q3 = hypercube(3)
        assert q3.n == 8 and all(q3.degree(v) == 3 for v in range(8))

    def test_generate_dispatch_and_validation(self):
        assert generate("cycle", 5) == cycle(5)
        assert generate("hamming", 2, 2) == hamming(2, 2)
        with pytest.raises(GraphError):
            generate("cycle", 2)
        with pytest.raises(GraphError):
            generate("star", 1)
        with pytest.raises(GraphError):
            generate("nope", 3)
        with pytest.raises(GraphError):
            generate("path", 1, 2)

    def test_generator_outputs_are_simple(self):
        for g in (path(6), cycle(6), complete(5), star(7), empty(4), hypercube(3)):
            for v in range(g.n):
                assert not g.has_edge(v, v)
                for u in g.neighbors(v):
                    assert g.has_edge(u, v)


class TestOperators:
    def test_product_k2_k2_is_c4(self):
        assert is_cycle_graph(cartesian_product(complete(2), complete(2)))

    def test_product_grid(self):
        grid = cartesian_product(path(3), path(3))
        assert grid.n == 9 and grid.edge_count == 12

    def test_product_identity_factor(self):
        g = cycle(5)
        assert cartesian_product(g, complete(1)).adj == g.adj

    def test_product_order_and_degrees(self):
        rng = random.Random(3)
        for _ in range(25):
            g = random_graph(rng, rng.randint(1, 5))
            h = random_graph(rng, rng.randint(1, 5))
            p = cartesian_product(g, h)
            assert p.n == g.n * h.n
            for x in range(g.n):
                for y in range(h.n):
                    assert p.degree(x * h.n + y) == g.degree(x) + h.degree(y)

    def test_product_numbering_fixed(self):
        p = cartesian_product(path(2), path(3))
        # (x, y) -> x*3 + y; fiber edges then rung edges
        assert p.has_edge(0, 1) and p.has_edge(1, 2)
        assert p.has_edge(0, 3) and p.has_edge(2, 5)
        assert not p.has_edge(0, 4)

    def test_product_cap(self):
        with pytest.raises(GraphError, match="vertex cap"):
            cartesian_product(complete(513), complete(2))

    def test_corona_order_and_attachment(self):
        g1 = cycle(3)
        c = corona(g1, 2)
        assert c.n == 3 * (2 + 1)
        for v in range(3):
            for j in range(2):
                pend = 3 + v * 2 + j
                assert c.degree(pend) == 1 and c.has_edge(v, pend)

    def test_corona_k1_n2_is_star(self):
        assert corona(complete(1), 2) == star(3)

    def test_join_k3_n2_is_k5_minus_edge(self):
        g = join(complete(3), empty(2))
        assert g.n == 5 and g.edge_count == 9 and not g.has_edge(3, 4)

    def test_join_n1_n1_is_k2(self):
        assert join(empty(1), empty(1)) == complete(2)

    def test_join_edge_count(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_graph(rng, rng.randint(0, 5))
            h = random_graph(rng, rng.randint(0, 5))
            assert join(g, h).edge_count == g.edge_count + h.edge_count + g.n * h.n

    def test_complement_of_complete_is_empty(self):
        assert complement(complete(6)) == empty(6)

    def test_c5_self_complementary(self):
        c5 = cycle(5)
        co = complement(c5)
        assert is_cycle_graph(co) and co.n == 5

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_complement_involution(self, g):
        co = complement(g)
        assert complement(co) == g
        assert all(co.has_edge(u, v) != g.has_edge(u, v)
                   for u in range(g.n) for v in range(g.n) if u != v)
        assert not any(co.has_edge(v, v) for v in range(g.n))

    def test_remove_edge(self):
        g = remove_edge(path(3), 1, 2)
        assert list(g.edges()) == [(0, 1)]
        with pytest.raises(GraphError):
            remove_edge(path(3), 0, 2)

    def test_spanning_tree_c4(self):
        t = spanning_tree(cycle(4))
        assert sorted(t.edges()) == [(0, 1), (0, 3), (1, 2)]

    def test_spanning_tree_of_tree_is_identity(self):
        t = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        assert spanning_tree(t) == t

    def test_spanning_tree_k3_is_star(self):
        assert sorted(spanning_tree(complete(3)).edges()) == [(0, 1), (0, 2)]

    def test_spanning_tree_properties(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, 0.6)
            if not is_connected(g):
                continue
            t = spanning_tree(g)
            assert t.edge_count == n - 1 and is_connected(t)
            assert all(g.has_edge(u, v) for u, v in t.edges())

    def test_spanning_tree_requires_connected(self):
        with pytest.raises(GraphError):
            spanning_tree(Graph(4, [(0, 1), (2, 3)]))


def bandwidth(g: Graph) -> int:
    return max((v - u for u, v in g.edges()), default=0)


def degrees(g: Graph) -> list[int]:
    return sorted(g.degree(v) for v in range(g.n))


class TestBandwidthOrder:
    @settings(max_examples=150, deadline=None)
    @given(graphs(max_n=10))
    def test_permutation_deterministic_and_relabel_inverts(self, g):
        order = bandwidth_order(g)
        assert sorted(order) == list(range(g.n))
        assert bandwidth_order(Graph(g.n, g.edges())) == order
        h = relabel(g, order)
        assert h.edge_count == g.edge_count and degrees(h) == degrees(g)
        assert all(h.has_edge(i, j) == g.has_edge(order[i], order[j])
                   for i in range(g.n) for j in range(g.n))
        inverse = [0] * g.n
        for i, v in enumerate(order):
            inverse[v] = i
        assert relabel(h, inverse) == g

    def test_tiny_and_disconnected(self):
        assert bandwidth_order(Graph(0)) == [] and relabel(Graph(0), []) == Graph(0)
        assert bandwidth_order(Graph(1)) == [0]
        # Rank 6, 1, 2, 3, 4, 5, 0 by (degree, index): the walk from 6, then
        # from 1 (queueing 0, which queues 2 and 3), then from 4, reversed.
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (4, 5)])
        assert bandwidth_order(g) == [5, 4, 3, 2, 0, 1, 6]
        assert bandwidth(relabel(g, bandwidth_order(g))) == 2

    def test_shuffled_path_comes_back_with_bandwidth_one(self):
        rng = random.Random(11)
        for n in (2, 5, 12, 30):
            labels = list(range(n))
            rng.shuffle(labels)
            g = Graph(n, [(labels[i], labels[i + 1]) for i in range(n - 1)])
            assert bandwidth(relabel(g, bandwidth_order(g))) == 1

    def test_relabel_rejects_non_permutations(self):
        g = corona(path(2), 1)
        order = [2, 0, 3, 1]
        h = relabel(g, order)
        inverse = [order.index(v) for v in range(4)]
        assert h != g and relabel(h, inverse) == g
        for bad in ([0, 1, 2], [0, 1, 2, 2], [1, 2, 3, 4]):
            with pytest.raises(GraphError):
                relabel(g, bad)


def assert_automorphisms(g: Graph, group) -> None:
    """Distinct permutations that each map every edge to an edge."""
    assert len(set(group)) == len(group)
    edges = list(g.edges())
    for sigma in group:
        assert sorted(sigma) == list(range(g.n))
        assert all(g.has_edge(sigma[u], sigma[v]) for u, v in edges)


class TestAutomorphisms:
    def test_group_orders_match_networkx_all_n6(self, corpus_all_n6):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher
        for g in corpus_all_n6:
            group = automorphisms(g, limit=720)
            assert_automorphisms(g, group)
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            assert len(group) == sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter()), g

    def test_elements_are_automorphisms(self, corpus_connected_n7):
        for g in corpus_connected_n7:
            assert_automorphisms(g, automorphisms(g))

    def test_known_orders(self):
        for t in range(5, 16):
            g = cartesian_product(cycle(t), complete(2))
            group = automorphisms(g)
            assert len(group) == 4 * t
            assert_automorphisms(g, group)
        cases = ((hypercube(3), 48), (cartesian_product(path(5), path(5)), 8),
                 (cartesian_product(path(4), path(6)), 4), (path(30), 2))
        for g, order in cases:
            group = automorphisms(g, limit=100)
            assert len(group) == order
            assert_automorphisms(g, group)
        # Refinement alone is discrete here: only the identity is left.
        spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (0, 6)])
        assert automorphisms(spider) == [tuple(range(7))]

    def test_cap_is_respected(self):
        for g in (complete(7), empty(7)):
            group = automorphisms(g)
            assert len(group) == 28
            assert_automorphisms(g, group)
        assert len(automorphisms(hypercube(3))) == 32
        assert len(automorphisms(complete(7), limit=5)) == 5
        assert automorphisms(Graph(0)) == [()]


class TestQueries:
    def test_degrees(self):
        assert min_degree(cycle(5)) == max_degree(cycle(5)) == 2
        assert min_degree(star(5)) == 1 and max_degree(star(5)) == 4
        assert min_degree(empty(1)) == 0

    def test_leaf_count_fig1(self, fig1_tree):
        assert leaf_count(fig1_tree) == 3

    def test_component_is_complete(self):
        k3_p3 = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
        assert component_is_complete(k3_p3)
        assert not component_is_complete(path(4))
        assert component_is_complete(Graph(3, [(0, 1)]))  # isolated K_1 counts

    def test_is_connected_and_tree(self):
        assert is_connected(complete(1)) and is_connected(empty(1))
        assert not is_connected(empty(2))
        assert is_tree(path(6)) and not is_tree(cycle(6))


class TestHamiltonicity:
    def test_cycles_are_hamiltonian(self):
        assert has_hamiltonian_cycle(cycle(7))

    def test_star_is_not(self):
        assert not has_hamiltonian_cycle(star(5))

    def test_odd_grid_is_not(self):
        assert not has_hamiltonian_cycle(cartesian_product(path(3), path(3)))

    def test_prism_is(self):
        assert has_hamiltonian_cycle(cartesian_product(cycle(5), complete(2)))

    def test_small_orders(self):
        assert not has_hamiltonian_cycle(complete(2))
        assert has_hamiltonian_cycle(complete(3))

    def test_refuses_large_input(self):
        with pytest.raises(GraphError):
            has_hamiltonian_cycle(empty(30))

    def test_oracle_equivalence_connected_n7(self, corpus_connected_n7):
        """The pruned search against a plain permutation scan on every
        connected graph with n <= 7."""
        for g in corpus_connected_n7:
            assert has_hamiltonian_cycle(g) == naive_is_hamiltonian(g), g

    def test_oracle_equivalence_random_n8_n9(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng, rng.choice((8, 9)), rng.choice((0.35, 0.5)))
            assert has_hamiltonian_cycle(g) == naive_is_hamiltonian(g), g
