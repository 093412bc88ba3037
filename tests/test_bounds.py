import json
import random
from itertools import combinations

import pytest

from domguard import oracles
from domguard.bounds import (BoundReport, InvariantCache, _audit_report, _ng_record, audit,
                             conjecture_scan, family_value, nordhaus_gaddum, product_audit,
                             registry)
from domguard.graph import (Graph, bandwidth_order, cartesian_product, complement, complete,
                            component_is_complete, corona, cycle, empty, join, path, relabel,
                            star)
from domguard.protection import (is_df, is_k_dominating, is_rdf, is_secure_dominating,
                                 is_wrdf)
from domguard.solvers import (SolverLimits, gamma, gamma_roman, gamma_secure, gamma_weak_roman,
                              twin_shadow_mask)

from conftest import random_connected_graph, random_graph


def assert_witness_verifies(g: Graph, res) -> None:
    """The witness of an audit result is a valid witness on g of its value."""
    key, value, w = res.invariant_id, res.value, res.witness
    if key in ("gamma_roman", "gamma_weak_roman"):
        assert w.graph == g and w.weight() == value
        assert (is_rdf if key == "gamma_roman" else is_wrdf)(g, w)
    elif key in ("chromatic", "clique_cover"):
        # Classes of total size n that cover every vertex partition V.
        assert len(w) == value and sum(len(cls) for cls in w) == g.n
        assert set().union(*w) == set(range(g.n))
        for cls in w:
            for u, v in combinations(cls, 2):
                assert g.has_edge(u, v) == (key == "clique_cover"), (key, u, v)
    elif key == "matching":
        assert len(w) == value == len({x for e in w for x in e}) // 2
        assert all(g.has_edge(u, v) for u, v in w)
    elif key == "two_packing":
        assert len(w) == value
        assert all(not g.closed[u] & g.closed[v] for u, v in combinations(w, 2))
    elif key == "tau":
        assert is_df(g, w) and len(w) == gamma(g).value
        assert twin_shadow_mask(g, w.bits).bit_count() == value
    elif key == "gamma_2":
        assert len(w) == value and is_k_dominating(g, w, 2)
    else:
        verify = {"gamma": is_df, "gamma_secure": is_secure_dominating}[key]
        assert len(w) == value and verify(g, w), key


def rows_by_id(report: BoundReport) -> dict:
    return {r.id: r for r in report.bounds}


class TestRegistry:
    def test_size_and_unique_ids(self):
        regs = registry()
        assert len(regs) >= 20
        ids = [s.id for s in regs]
        assert len(ids) == len(set(ids))

    def test_kinds_and_scopes(self):
        for s in registry():
            assert s.kind in ("upper", "lower", "equality")
            assert s.scope in ("graph", "pair")


class TestAudit:
    def test_c5(self):
        rep = audit(cycle(5))
        rows = rows_by_id(rep)
        assert not rows["secure_le_half_order"].applicable
        assert rows["secure_le_half_order"].reason == "the five-cycle is excluded"
        ham = rows["hamiltonian_secure_three_sevenths"]
        assert ham.applicable and ham.holds and ham.slack == 0
        assert rep.passed and not rep.incomplete

    def test_k5_minus_edge_tau_tight(self):
        rep = audit(join(complete(3), empty(2)))
        row = rows_by_id(rep)["secure_le_order_gamma_tau"]
        assert row.applicable and row.holds and row.slack == 0 and row.actual == 2

    def test_corona_triggers_half_order_equalities(self):
        rep = audit(corona(cycle(3), 1))
        rows = rows_by_id(rep)
        for rid in ("half_gamma_forces_weak_roman", "half_gamma_forces_secure"):
            assert rows[rid].applicable and rows[rid].holds and rows[rid].actual == 3

    def test_tau_bounds_skip_complete_components(self):
        rep = audit(Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]))
        rows = rows_by_id(rep)
        for rid in ("secure_le_order_gamma_tau", "secure_le_order_packing_tau",
                    "secure_le_degree_fraction_tau"):
            assert not rows[rid].applicable

    def test_leaf_bound_skips_two_vertex_components(self):
        rep = audit(complete(2))
        assert not rows_by_id(rep)["secure_ge_leaf_count"].applicable
        assert rep.passed

    def test_hamiltonian_bound_undecided_above_cap(self, monkeypatch):
        import domguard.bounds as bounds_mod
        monkeypatch.setattr(bounds_mod, "HAMILTONIAN_SEARCH_CAP", 5)
        rep = audit(cycle(8))
        row = rows_by_id(rep)["hamiltonian_secure_three_sevenths"]
        assert not row.applicable and "undecided" in row.reason
        assert not row.budget_exceeded and not rep.incomplete

    def test_budget_exhaustion_marks_incomplete(self):
        rep = audit(cycle(9), SolverLimits(roman_max_n=4))
        assert rep.incomplete
        assert any(r.budget_exceeded for r in rep.bounds)

    def test_clique_cover_reuses_complement_coloring(self, monkeypatch):
        import domguard.solvers as solvers
        calls = []
        dsatur = solvers._dsatur

        def counted(g, counter):
            calls.append(g.n)
            return dsatur(g, counter)

        monkeypatch.setattr(solvers, "_dsatur", counted)
        rep = audit(cycle(9))
        assert calls == [9, 9]
        assert rep.invariants["clique_cover"] == 5 and not rep.incomplete
        calls.clear()
        rep = audit(cycle(9), SolverLimits(chromatic_max_n=4))
        assert calls == []
        reasons = {r.id: r.reason for r in rep.bounds if r.budget_exceeded}
        assert reasons == {
            "secure_le_clique_cover": "budget: clique_cover: order 9 exceeds solver limit 4",
            "ng_chromatic_sum_le_order_plus_one":
                "budget: chromatic: order 9 exceeds solver limit 4",
            "ng_chromatic_product_le_order_bound":
                "budget: chromatic: order 9 exceeds solver limit 4",
        }

    def test_secure_search_starts_from_weak_roman(self, monkeypatch):
        import domguard.bounds as bounds_mod
        import domguard.solvers as solvers
        calls = []  # (graph, sizes of each dominating-set search) per secure solve
        inside = []
        search, secure = solvers._lex_dominating_masks, bounds_mod.gamma_secure

        def counted_search(t, sizes, counter, allowance=None, reach=None, symmetry=False):
            if inside:
                calls[-1][1].append(sizes)
            return search(t, sizes, counter, allowance, reach, symmetry)

        def traced_secure(g, *args):
            calls.append((g, []))
            inside.append(g)
            try:
                return secure(g, *args)
            finally:
                inside.pop()

        monkeypatch.setattr(solvers, "_lex_dominating_masks", counted_search)
        monkeypatch.setattr(bounds_mod, "gamma_secure", traced_secure)
        # The audit searches each graph in bandwidth order.
        c9 = relabel(cycle(9), bandwidth_order(cycle(9)))
        # That C9's weak Roman witness 1,0,0,1,1,0,0,1,0 has no two-guard vertex.
        wr = gamma_weak_roman(c9)
        assert wr.witness.two_mask == 0 and wr.value == 4
        rep = audit(cycle(9))
        assert [sizes for g, sizes in calls if g == c9] == [[]]
        assert rep.invariants["gamma_secure"] == wr.value
        calls.clear()
        # P5's witness 1,0,0,2,0 has one, so the search starts at size γ_wr = 3.
        p5 = relabel(path(5), bandwidth_order(path(5)))
        wr = gamma_weak_roman(p5)
        assert wr.witness.two_mask != 0 and wr.value == 3
        rep = audit(path(5))
        assert [sizes for g, sizes in calls if g == p5] == [[range(wr.value, 6)]]
        assert rep.invariants["gamma_secure"] == 3

    def test_secure_budget_with_weak_roman_start(self):
        rep = audit(cycle(9), SolverLimits(secure_max_n=4))
        reasons = {r.id: r.reason for r in rep.bounds if r.budget_exceeded}
        assert set(reasons) == {
            "chain_weak_roman_le_secure", "equal_weak_roman_gamma_iff_secure_gamma",
            "hamiltonian_secure_three_sevenths", "secure_le_two_domination",
            "secure_le_half_order", "secure_ge_leaf_count", "secure_le_order_minus_matching",
            "secure_le_order_minus_gamma", "secure_le_order_gamma_tau",
            "secure_le_order_packing_tau", "secure_le_degree_fraction_tau",
            "secure_le_clique_cover", "ng_weak_roman_sum_le_secure_sum",
            "ng_secure_sum_le_order_plus_one", "ng_weak_roman_product_le_secure_product",
            "ng_secure_product_le_order_bound", "ng_secure_sum_refined",
            "ng_secure_product_refined"}
        assert set(reasons.values()) == {"budget: gamma_secure: order 9 exceeds solver limit 4"}
        assert rep.invariants["gamma_weak_roman"] == 4
        # Without a weak Roman result the secure search runs on its own.
        rep = audit(cycle(9), SolverLimits(weak_roman_max_n=4))
        reasons = {r.id: r.reason for r in rep.bounds if r.budget_exceeded}
        assert set(reasons) == {
            "chain_gamma_le_weak_roman", "chain_weak_roman_le_roman",
            "chain_weak_roman_le_secure", "equal_weak_roman_gamma_iff_secure_gamma",
            "weak_roman_le_two_thirds", "weak_roman_le_half_order_gamma_tau",
            "weak_roman_le_two_gamma_tau", "ng_weak_roman_sum_le_secure_sum",
            "ng_weak_roman_product_le_secure_product"}
        assert set(reasons.values()) == {
            "budget: gamma_weak_roman: order 9 exceeds solver limit 4"}
        assert rep.invariants["gamma_secure"] == gamma_secure(cycle(9)).value == 4

    def test_refined_rows_record_which_side_triggered(self, fig2_right):
        rep = audit(fig2_right)
        row = rows_by_id(rep)["ng_secure_sum_refined"]
        assert row.applicable and row.holds
        assert "hypotheses hold for" in row.reason

    def test_report_json_schema(self):
        rep = audit(path(4))
        d = rep.to_json_dict()
        assert set(d) == {"graph6", "invariants", "bounds", "conjectures",
                          "incomplete", "pass", "n"}
        for row in d["bounds"]:
            assert set(row) == {"id", "applicable", "claimed", "actual", "holds",
                                "slack", "reason"}
        json.dumps(d)  # must be serializable

    def test_all_n6_corpus_passes(self, corpus_all_n6):
        for g in corpus_all_n6:
            rep = audit(g)
            assert rep.passed, (rep.graph6, [(r.id, r.claimed, r.actual)
                                             for r in rep.failures()])
            assert not rep.incomplete

    def test_clique_cover_rows_match_oracles(self, corpus_all_n6):
        # θ(G) = χ(Ḡ): the clique cover row and the chromatic sum and product
        # rows against brute-force colorings of the graph and its complement.
        for g in corpus_all_n6:
            rows = rows_by_id(audit(g))
            chi, theta = oracles.brute_chromatic(g), oracles.brute_clique_cover(g)
            assert rows["secure_le_clique_cover"].claimed == theta, g
            assert rows["ng_chromatic_sum_le_order_plus_one"].actual == chi + theta, g
            assert rows["ng_chromatic_product_le_order_bound"].actual == chi * theta, g


class TestInvariantCache:
    def test_secure_from_weak_roman_matches_standalone(self, corpus_all_n6,
                                                       corpus_connected_n7):
        for g0 in corpus_all_n6 + corpus_connected_n7:
            for g in (g0, complement(g0)):
                res, alone = InvariantCache(g).result("gamma_secure"), gamma_secure(g)
                assert (res.value, res.witness) == (alone.value, alone.witness), g

    def test_bandwidth_route_matches_canonical_labels(self, corpus_all_n6,
                                                      corpus_connected_n7):
        # InvariantCache(g) keeps g's labels.
        for g in corpus_all_n6 + corpus_connected_n7:
            canonical = InvariantCache(g)
            assert canonical.graph is g
            assert audit(g).to_json_dict() == _audit_report(g, canonical).to_json_dict()
            assert nordhaus_gaddum(g) == _ng_record(InvariantCache(g))
        rng = random.Random(20261018)
        for _ in range(6):
            g = random_graph(rng, rng.randint(12, 16), rng.choice((0.2, 0.35, 0.5, 0.7)))
            assert audit(g).to_json_dict() == _audit_report(g, InvariantCache(g)).to_json_dict()

    def test_banded_cache_witnesses_are_in_its_labels(self, corpus_all_n6):
        for g in corpus_all_n6:
            banded = relabel(g, bandwidth_order(g))
            cache = InvariantCache(banded)
            assert cache.graph is banded
            _audit_report(g, cache)
            assert {"gamma", "gamma_secure", "clique_cover"} <= set(cache.computed_values())
            cache.co().result("clique_cover")  # colors the complement of the complement
            for c in (cache, cache.co()):
                for key in c.computed_values():
                    assert_witness_verifies(c.graph, c.result(key))


class TestFamilyValue:
    def test_examples(self):
        assert family_value("gamma_weak_roman", "path", 10) == 5
        assert family_value("gamma_weak_roman", "complete_x_star", 3, 8) == 6
        assert family_value("gamma_secure", "star_x_star", 4) == 6
        assert family_value("gamma", "path_x_k2", 7) == 4
        assert family_value("gamma_roman", "path_x_k2", 6) == 7
        assert family_value("gamma_weak_roman", "any_x_star", 2, 5) == 4

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            family_value("gamma_weak_roman", "path", 3)
        with pytest.raises(ValueError):
            family_value("gamma_weak_roman", "complete_x_any", 3, 5)
        with pytest.raises(ValueError):
            family_value("gamma_weak_roman", "any_x_star", 2, 4)
        with pytest.raises(ValueError):
            family_value("gamma", "path", 5)
        with pytest.raises(ValueError):
            family_value("gamma", "mystery", 5)

    @pytest.mark.parametrize("t", range(4, 10))
    def test_paths_cycles_match_exact(self, t):
        for build, fam in ((path, "path"), (cycle, "cycle")):
            g = build(t)
            want = family_value("gamma_weak_roman", fam, t)
            assert gamma_weak_roman(g).value == want
            assert gamma_secure(g).value == want

    @pytest.mark.parametrize("t,t2", [(2, 2), (2, 4), (3, 3), (3, 5), (4, 3)])
    def test_complete_times_star_match_exact(self, t, t2):
        g = cartesian_product(complete(t), star(t2))
        assert gamma_weak_roman(g).value == family_value("gamma_weak_roman", "complete_x_star", t, t2)
        assert gamma_secure(g).value == family_value("gamma_secure", "complete_x_star", t, t2)

    def test_complete_times_small_h_match_exact(self):
        for t in (3, 4):
            for h in (path(2), path(3), cycle(3), complete(2)):
                if h.n > t:
                    continue
                g = cartesian_product(complete(t), h)
                want = family_value("gamma_weak_roman", "complete_x_any", t, h.n)
                assert gamma_weak_roman(g).value == want
                assert gamma_secure(g).value == want

    @pytest.mark.parametrize("nh", [2, 3, 4, 5])
    def test_complete_five_times_paths_match_exact(self, nh):
        g = cartesian_product(complete(5), path(nh))
        want = family_value("gamma_weak_roman", "complete_x_any", 5, nh)
        assert gamma_weak_roman(g).value == want == nh
        assert gamma_secure(g).value == nh

    def test_star_square_match_exact(self):
        g = cartesian_product(star(3), star(3))
        assert gamma_weak_roman(g).value == family_value("gamma_weak_roman", "star_x_star", 3)
        assert gamma_secure(g).value == family_value("gamma_secure", "star_x_star", 3)

    @pytest.mark.parametrize("t", range(2, 7))
    def test_path_prism_gamma_and_roman(self, t):
        g = cartesian_product(path(t), complete(2))
        assert gamma(g).value == family_value("gamma", "path_x_k2", t)
        assert gamma_roman(g).value == family_value("gamma_roman", "path_x_k2", t)


class TestNordhausGaddum:
    def test_fig2_left(self, fig2_left):
        rec = nordhaus_gaddum(fig2_left)
        assert rec["gamma_weak_roman"] == rec["gamma_secure"] == 3
        assert rec["sum_secure"] == 6 == rec["n"] + 1
        assert rec["product_secure"] == 9 == (rec["n"] + 1) ** 2 // 4
        assert rec["pass"] and not rec["refined_applicable"]

    def test_fig2_right(self, fig2_right):
        rec = nordhaus_gaddum(fig2_right)
        assert rec["gamma_weak_roman"] == rec["gamma_secure"] == 4
        assert rec["sum_secure"] == 8 == rec["n"]
        assert rec["product_secure"] == 16 == rec["n"] ** 2 // 4
        assert rec["refined_applicable"] and rec["pass"]
        assert rec["refined_sum_bound"] == 8 and rec["refined_product_bound"] == 16

    def test_drawn_eight_vertex_figure_finding(self):
        # pinned finding: the literal drawing (K4 plus a degree-2 vertex on each
        # cyclically adjacent core pair) is self-complementary but has both
        # invariants equal to 3, so it does not witness the tight even case
        from domguard.graph6 import parse_edge_list
        from conftest import FIXTURES
        drawn = parse_edge_list((FIXTURES / "fig2_right_drawn.edges").read_text())
        rec = nordhaus_gaddum(drawn)
        assert rec["gamma_weak_roman"] == rec["gamma_secure"] == 3
        assert rec["sum_secure"] == 6 and rec["pass"]

    def test_c5_self_complementary(self):
        rec = nordhaus_gaddum(cycle(5))
        assert rec["sum_secure"] == 6 and rec["pass"]

    def test_k1_and_k2(self):
        assert nordhaus_gaddum(complete(1))["sum_secure"] == 2
        rec = nordhaus_gaddum(complete(2))
        assert rec["sum_secure"] == 3 == rec["sum_bound"]  # tight on K_2

    def test_random_graphs_pass(self):
        rng = random.Random(40)
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(1, 7))
            assert nordhaus_gaddum(g)["pass"]

    def test_refined_side_detection(self):
        # the degree hypotheses are self-dual, so the trigger side can only
        # differ via connectivity (or the 5-cycle exclusion)
        two_c4 = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                           (4, 5), (5, 6), (6, 7), (7, 4)])
        rec = nordhaus_gaddum(two_c4)
        assert rec["refined_applicable"] and rec["refined_via"] == "complement"
        assert rec["pass"]
        from domguard.graph import complement
        rec2 = nordhaus_gaddum(complement(two_c4))
        assert rec2["refined_applicable"] and rec2["refined_via"] == "graph"
        rec3 = nordhaus_gaddum(cycle(5))
        assert not rec3["refined_applicable"] and rec3["refined_via"] is None


class TestConjectureScan:
    def test_path_family_matches(self):
        rows = conjecture_scan("path_x_k2", 6)
        assert [r["t"] for r in rows] == list(range(2, 7))
        assert all(r["match"] for r in rows)

    def test_cycle_family_has_the_t3_finding(self):
        rows = conjecture_scan("cycle_x_k2", 6)
        by_t = {r["t"]: r for r in rows}
        # the conjectured closed form overshoots the true value on the 3-prism
        assert by_t[3]["exact"] == 2 and by_t[3]["conjectured"] == 3
        assert not by_t[3]["match"]
        assert all(by_t[t]["match"] for t in (4, 5, 6))

    def test_never_raises_on_mismatch(self):
        rows = conjecture_scan("cycle_x_k2", 3)
        assert rows[0]["match"] is False  # reported, not asserted

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            conjecture_scan("torus", 5)


class TestProductAudit:
    def test_grid_pair(self):
        rep = product_audit(path(3), path(3))
        rows = rows_by_id(rep)
        assert rep.passed
        mixed = rows["cartesian_secure_le_mixed_tau"]
        assert mixed.applicable and mixed.claimed == 4 and mixed.actual == 4

    def test_reserve_row_applicability(self, spider9):
        rep = product_audit(complete(3), spider9)
        row = rows_by_id(rep)["cartesian_weak_roman_le_reserve"]
        assert row.applicable and row.claimed == 8 and row.actual == 8 and row.holds

    def test_reserve_row_skipped_without_reserve_function(self):
        rep = product_audit(path(2), complete(3))
        row = rows_by_id(rep)["cartesian_weak_roman_le_reserve"]
        assert not row.applicable

    def test_reserve_row_over_budget_reports_the_budget(self):
        # the second factor is never solved, so no claim about its optima holds
        rep = product_audit(path(2), path(5), SolverLimits(weak_roman_max_n=4))
        row = rows_by_id(rep)["cartesian_weak_roman_le_reserve"]
        assert not row.applicable and row.reason.startswith("budget:")
        assert rep.incomplete

    def test_second_factor_weak_roman_solved_once(self, monkeypatch):
        from domguard import solvers
        orders = []
        real = solvers.gamma_weak_roman

        def counting(g, limits=None):
            orders.append(g.n)
            return real(g, limits)
        monkeypatch.setattr(solvers, "gamma_weak_roman", counting)
        product_audit(path(3), cycle(4))
        assert orders == [12, 4, 3]

    def test_random_pairs_pass(self):
        rng = random.Random(41)
        done = 0
        while done < 25:
            g = random_connected_graph(rng, rng.randint(1, 3))
            h = random_connected_graph(rng, rng.randint(2, 4))
            if g.n * h.n > 12:
                continue
            rep = product_audit(g, h)
            assert rep.passed, [(r.id, r.claimed, r.actual) for r in rep.failures()]
            done += 1

    def test_all_connected_pairs_product_at_most_12(self, corpus_connected_n7):
        small = [g for g in corpus_connected_n7 if g.n <= 6]
        for g in small:
            for h in small:
                if g.n * h.n > 12:
                    continue
                rep = product_audit(g, h)
                assert rep.passed, (rep.graph6,
                                    [(r.id, r.claimed, r.actual) for r in rep.failures()])

    def test_mixed_formula_remark_over_small_profiles(self, corpus_all_n6):
        # the inequality depends only on (n, gamma) of each factor
        profiles = set()
        for g in corpus_all_n6:
            if g.n >= 1 and component_is_complete(g) is not None:
                from domguard.graph import min_degree
                if g.n > 0 and min_degree(g) >= 1:
                    profiles.add((g.n, gamma(g).value))
        assert profiles
        for (ng, gg) in profiles:
            for (nh, gh) in profiles:
                assert ng * gh + nh * gg - 2 * gg * gh <= (ng * nh) // 2
