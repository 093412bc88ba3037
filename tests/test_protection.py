import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domguard import oracles
from domguard.graph import Graph, VertexSet, complete, cycle, empty, path, star
from domguard.protection import (GuardFunction, ProtectionError, defense_moves,
                                 first_failing_vertex, is_df, is_k_dominating, is_rdf,
                                 is_secure_dominating, is_wrdf, undefended,
                                 unsafe_zeros)

from conftest import random_graph


class TestGuardFunction:
    def test_weight_and_level_sets(self):
        g = path(4)
        f = GuardFunction(g, (2, 0, 1, 0))
        assert f.weight() == 3
        assert f.level_set(0).members() == (1, 3)
        assert f.level_set(1).members() == (2,)
        assert f.level_set(2).members() == (0,)

    def test_text_round_trip(self):
        g = path(3)
        f = GuardFunction.from_text(g, "2,0,1")
        assert f.to_text() == "2,0,1" and f.weight() == 3

    def test_rejects_bad_values(self):
        with pytest.raises(ProtectionError):
            GuardFunction(path(3), (0, 3, 0))
        with pytest.raises(ProtectionError):
            GuardFunction(path(3), (0, 1))

    def test_indicator(self):
        g = cycle(4)
        f = GuardFunction.from_vertex_set(g, VertexSet.from_indices([0, 2], 4))
        assert f.values == (1, 0, 1, 0)

    def test_immutable(self):
        f = GuardFunction(path(3), (2, 0, 1))
        for name, value in (("values", (0, 0, 0)), ("two_mask", 0), ("graph", path(2))):
            with pytest.raises(AttributeError):
                setattr(f, name, value)
        assert f.values == (2, 0, 1) and f.support_mask == 5 and f.two_mask == 1


class TestUndefended:
    def test_no_guards_everywhere_undefended(self):
        g = path(2)
        assert undefended(g, GuardFunction(g, (0, 0))).members() == (0, 1)

    def test_fig1_function_protects(self, fig1_tree):
        f = GuardFunction(fig1_tree, (2, 0, 1, 0, 0, 0))
        assert len(undefended(fig1_tree, f)) == 0

    def test_endpoint_left_alone(self):
        g = path(3)
        assert undefended(g, GuardFunction(g, (1, 0, 0))).members() == (2,)


class TestVerifierExamples:
    def test_whole_vertex_set_is_df(self):
        g = random_graph(random.Random(0), 6)
        assert is_df(g, VertexSet(g.full_mask, 6))

    def test_c4_pair_is_df(self):
        assert is_df(cycle(4), VertexSet.from_indices([0, 2], 4))

    def test_p5_endpoint_is_not_df(self):
        assert not is_df(path(5), VertexSet.from_indices([0], 5))

    def test_rdf_examples(self):
        k3 = complete(3)
        assert is_rdf(k3, GuardFunction(k3, (2, 0, 0)))
        assert not is_rdf(k3, GuardFunction(k3, (1, 0, 0)))
        p4 = path(4)
        assert is_rdf(p4, GuardFunction(p4, (0, 2, 0, 1)))

    def test_wrdf_examples(self, fig1_tree):
        assert is_wrdf(fig1_tree, GuardFunction(fig1_tree, (2, 0, 1, 0, 0, 0)))
        p3 = path(3)
        assert not is_wrdf(p3, GuardFunction(p3, (0, 1, 0)))

    def test_unprotected_is_never_wrdf(self):
        rng = random.Random(1)
        found = 0
        while found < 50:
            g = random_graph(rng, rng.randint(1, 7))
            vals = tuple(rng.choice((0, 1, 2)) for _ in range(g.n))
            f = GuardFunction(g, vals)
            if len(undefended(g, f)):
                assert not is_wrdf(g, f)
                found += 1

    def test_secure_examples(self, fig1_tree):
        assert is_secure_dominating(fig1_tree, VertexSet.from_indices([1, 3, 4, 5], 6))
        c5 = cycle(5)
        for a in range(5):
            for b in range(a + 1, 5):
                assert not is_secure_dominating(c5, VertexSet.from_indices([a, b], 5))

    def test_whole_set_is_secure_even_with_isolates(self):
        g = Graph(4, [(0, 1)])
        assert is_secure_dominating(g, VertexSet(g.full_mask, 4))

    def test_kdom_examples(self):
        assert is_k_dominating(cycle(4), VertexSet.from_indices([0, 2], 4), 2)
        assert not is_k_dominating(complete(5), VertexSet.from_indices([0], 5), 2)
        g = random_graph(random.Random(2), 6)
        assert is_k_dominating(g, VertexSet(g.full_mask, 6), 4)


class TestDefenseMoves:
    def test_fig1_two_guard_defender(self, fig1_tree):
        f = GuardFunction(fig1_tree, (2, 0, 1, 0, 0, 0))
        moves = defense_moves(fig1_tree, f, 4)
        assert [(m.defender, m.valid) for m in moves] == [(0, True)]

    def test_p3_center_cannot_defend(self):
        p3 = path(3)
        moves = defense_moves(p3, GuardFunction(p3, (0, 1, 0)), 0)
        assert len(moves) == 1
        assert moves[0].defender == 1 and moves[0].valid is False

    def test_no_guarded_neighbor_gives_empty_list(self):
        p4 = path(4)
        assert defense_moves(p4, GuardFunction(p4, (1, 0, 0, 0)), 3) == []

    def test_rejects_guarded_target(self):
        p3 = path(3)
        with pytest.raises(ProtectionError):
            defense_moves(p3, GuardFunction(p3, (0, 1, 0)), 1)


# ---------------------------------------------------------------------------
# Property tests against the naive oracles and the definitional equivalences.
# ---------------------------------------------------------------------------

def test_verifiers_agree_with_oracles():
    rng = random.Random(42)
    for _ in range(500):
        g = random_graph(rng, rng.randint(0, 8))
        vals = tuple(rng.choice((0, 1, 2)) for _ in range(g.n))
        members = {v for v in range(g.n) if rng.random() < 0.5}
        f = GuardFunction(g, vals)
        s = VertexSet.from_indices(members, g.n)
        assert undefended(g, f).members() == tuple(sorted(oracles.naive_undefended(g, vals)))
        assert is_df(g, s) == oracles.naive_is_df(g, members)
        assert is_rdf(g, f) == oracles.naive_is_rdf(g, vals)
        assert is_wrdf(g, f) == oracles.naive_is_wrdf(g, vals)
        assert is_secure_dominating(g, s) == oracles.naive_is_secure(g, members)
        assert is_k_dominating(g, s, 2) == oracles.naive_is_kdom(g, members, 2)


def test_verifiers_agree_with_oracles_larger_orders():
    """Adversarial pass at n up to 12 with sparse guard placements, where the
    single-cover bookkeeping in the fast kernel is most stressed."""
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(8, 12)
        g = random_graph(rng, n, rng.choice((0.15, 0.3, 0.6)))
        k = rng.randint(1, max(1, n // 3))
        support = rng.sample(range(n), k)
        vals = [0] * n
        for v in support:
            vals[v] = rng.choice((1, 1, 2))
        f = GuardFunction(g, vals)
        members = set(support)
        s = VertexSet.from_indices(members, n)
        assert is_wrdf(g, f) == oracles.naive_is_wrdf(g, vals)
        assert is_secure_dominating(g, s) == oracles.naive_is_secure(g, members)


def test_unsafe_zeros_agrees_with_oracles_all_n6(corpus_all_n6):
    """Every dominating support S of every graph with n <= 6 and every
    two-guard class T within S: S is secure iff the kernel yields nothing,
    and (S, T) is weak Roman iff T meets every yielded mask."""
    pairs = 0
    for g in corpus_all_n6:
        for smask in range(1 << g.n):
            members = {v for v in range(g.n) if smask >> v & 1}
            if not oracles.naive_is_df(g, members):
                continue
            unsafe = list(unsafe_zeros(g, smask))
            assert all(guards & ~smask == 0 for guards in unsafe)
            assert (next(unsafe_zeros(g, smask), None) is None) == oracles.naive_is_secure(g, members)
            twos = smask
            while True:
                vals = [2 if twos >> v & 1 else (1 if v in members else 0) for v in range(g.n)]
                assert all(guards & twos for guards in unsafe) == oracles.naive_is_wrdf(g, vals)
                pairs += 1
                if not twos:
                    break
                twos = (twos - 1) & smask
    assert pairs == 96186


def test_secure_is_wrdf_with_no_two_guard_class():
    rng = random.Random(9)
    for _ in range(500):
        g = random_graph(rng, rng.randint(0, 8))
        members = {v for v in range(g.n) if rng.random() < 0.5}
        s = VertexSet.from_indices(members, g.n)
        f = GuardFunction.from_vertex_set(g, s)
        assert is_wrdf(g, f) == is_secure_dominating(g, s)


def test_two_dominating_implies_secure():
    rng = random.Random(10)
    checked = 0
    for _ in range(2000):
        g = random_graph(rng, rng.randint(1, 8))
        members = {v for v in range(g.n) if rng.random() < 0.6}
        s = VertexSet.from_indices(members, g.n)
        if is_k_dominating(g, s, 2):
            assert is_secure_dominating(g, s)
            checked += 1
    assert checked > 100


def test_rdf_implies_wrdf():
    rng = random.Random(11)
    checked = 0
    for _ in range(2000):
        g = random_graph(rng, rng.randint(1, 7))
        vals = tuple(rng.choice((0, 0, 1, 2)) for _ in range(g.n))
        f = GuardFunction(g, vals)
        if is_rdf(g, f):
            assert len(undefended(g, f)) == 0
            assert is_wrdf(g, f)
            checked += 1
    assert checked > 100


def test_wrdf_implies_protected():
    rng = random.Random(12)
    for _ in range(800):
        g = random_graph(rng, rng.randint(0, 7))
        vals = tuple(rng.choice((0, 1, 2)) for _ in range(g.n))
        f = GuardFunction(g, vals)
        if is_wrdf(g, f):
            assert len(undefended(g, f)) == 0


@given(st.integers(min_value=1, max_value=7), st.data())
@settings(max_examples=200, deadline=None)
def test_defense_moves_consistent_with_wrdf(n, data):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n, edges)
    vals = tuple(data.draw(st.sampled_from((0, 1, 2))) for _ in range(n))
    f = GuardFunction(g, vals)
    if len(undefended(g, f)):
        assert not is_wrdf(g, f)
        return
    every_zero_defended = all(
        any(m.valid for m in defense_moves(g, f, v))
        for v in range(n) if vals[v] == 0)
    assert every_zero_defended == is_wrdf(g, f)


def test_first_failing_vertex_diagnosis():
    p3 = path(3)
    assert first_failing_vertex(p3, "df", VertexSet.from_indices([], 3)) == 0
    assert first_failing_vertex(p3, "wrdf", GuardFunction(p3, (0, 1, 0))) == 0
    assert first_failing_vertex(p3, "wrdf", GuardFunction(p3, (1, 0, 1))) is None
    assert first_failing_vertex(p3, "secure", VertexSet.from_indices([1], 3)) == 0
    assert first_failing_vertex(star(4), "kdom", VertexSet.from_indices([0], 4), 2) == 1
    with pytest.raises(ProtectionError):
        first_failing_vertex(star(4), "kdom", VertexSet.from_indices([0], 4), 0)


def test_first_failing_vertex_agrees_with_verifiers(corpus_all_n6):
    """A class holds exactly when ``first_failing_vertex`` finds no failing
    vertex: every guard function and every vertex set on every graph of
    order at most 5.  ``is_rdf`` and ``is_k_dominating`` are defined through
    it, so those two classes are checked against the naive oracles."""
    for g in corpus_all_n6:
        if g.n > 5:
            continue
        for values in itertools.product((0, 1, 2), repeat=g.n):
            f = GuardFunction(g, values)
            assert (first_failing_vertex(g, "rdf", f) is None) == oracles.naive_is_rdf(g, values)
            assert (first_failing_vertex(g, "wrdf", f) is None) == is_wrdf(g, f)
        for bits in range(1 << g.n):
            s = VertexSet(bits, g.n)
            members = set(s)
            assert (first_failing_vertex(g, "df", s) is None) == is_df(g, s)
            assert (first_failing_vertex(g, "secure", s) is None) == is_secure_dominating(g, s)
            for k in (1, 2):
                assert ((first_failing_vertex(g, "kdom", s, k) is None)
                        == oracles.naive_is_kdom(g, members, k))
