import io
import json
import subprocess
import sys
import tracemalloc
from functools import partial

import pytest

from domguard import bounds as bounds_mod
from domguard.cli import (EXIT_BOUND_VIOLATION, EXIT_IO, EXIT_OK, EXIT_USAGE, SpecError,
                          main, parse_family_spec, random_tree)
from domguard.graph import (Graph, GraphError, VertexSet, cartesian_product, complete, cycle,
                            is_tree, iter_bits, path)
from domguard.graph6 import parse_graph6, write_graph6
from domguard.protection import GuardFunction, is_rdf, kdom_mask

import random

from conftest import random_connected_graph


def run(argv, stdin="", out=None):
    buf = io.StringIO() if out is None else out
    err = io.StringIO()
    old_in, old_out, old_err = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), buf, err
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = old_in, old_out, old_err
    return code, buf.getvalue(), err.getvalue()


class TestFamilySpecGrammar:
    def test_atoms(self):
        assert parse_family_spec("path:4") == path(4)
        assert parse_family_spec("complete:3") == complete(3)
        assert parse_family_spec("hamming:2:2").n == 4

    def test_composites_nest(self):
        g = parse_family_spec("prod:prod:complete:2,complete:2,path:3")
        assert g.n == 12
        assert parse_family_spec("complement:complete:4").edge_count == 0
        assert parse_family_spec("corona:cycle:3,1").n == 6
        assert parse_family_spec("join:complete:3,empty:2").edge_count == 9

    def test_g6_atom(self):
        line = write_graph6(cycle(5))
        assert parse_family_spec(f"g6:{line}") == cycle(5)
        g = parse_family_spec(f"prod:g6:{write_graph6(complete(2))},path:2")
        assert g == cartesian_product(complete(2), path(2))

    def test_randomtree_deterministic(self):
        a = parse_family_spec("randomtree:12", seed=9)
        b = parse_family_spec("randomtree:12", seed=9)
        c = parse_family_spec("randomtree:12", seed=10)
        assert a == b and is_tree(a)
        assert a != c

    def test_errors_carry_position(self):
        with pytest.raises(SpecError) as exc:
            parse_family_spec("path:x")
        assert exc.value.position == 5
        with pytest.raises(SpecError) as exc:
            parse_family_spec("prod:path:3")
        assert exc.value.position == 11
        with pytest.raises(SpecError):
            parse_family_spec("path:4garbage")
        with pytest.raises(SpecError):
            parse_family_spec("cycle:2")  # family validation surfaces as SpecError
        for spec in ("path:\u00b2", "path:\u0663"):  # a superscript and an Arabic-Indic digit
            with pytest.raises(SpecError) as exc:
                parse_family_spec(spec)
            assert exc.value.position == 5


def test_random_tree_helper():
    rng = random.Random(0)
    for n in (1, 2, 3, 9, 20, 300):
        t = random_tree(n, rng)
        assert is_tree(t) and t.n == n


def test_random_tree_draws_are_pinned():
    code, out, _ = run(["gen", "randomtree:9", "randomtree:30", "--seed", "4"])
    assert code == EXIT_OK and out.splitlines() == [
        "HKS?HD?",
        "]OG?A?O????C?A???A????O??EI?????????@???_???O??_?CO?K?GO_?C?@???????OA`???"]


def test_oversized_random_tree_fails_before_drawing():
    rng = random.Random(0)
    state = rng.getstate()
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="exceeds the vertex cap"):
            random_tree(10 ** 5, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and rng.getstate() == state


class TestGen:
    def test_single(self):
        code, out, _ = run(["gen", "path:4"])
        assert code == EXIT_OK
        assert parse_graph6(out.strip()) == path(4)

    def test_multiple_lines(self):
        code, out, _ = run(["gen", "path:3", "cycle:4", "prod:complete:2,complete:2"])
        lines = out.strip().splitlines()
        assert code == EXIT_OK and len(lines) == 3
        assert parse_graph6(lines[2]).n == 4

    def test_bad_grammar_is_usage_error(self):
        code, _, err = run(["gen", "wat:3"])
        assert code == EXIT_USAGE and "wat" in err
        for spec in ("path:\u00b2", "path:\u0663"):
            code, out, err = run(["gen", spec])
            assert code == EXIT_USAGE and out == "" and "expected an integer" in err

    @pytest.mark.parametrize("spec", ["hypercube:20000", "hamming:20000:3", "cycle:100000"])
    def test_order_over_the_cap_is_usage_error(self, spec):
        code, out, err = run(["gen", spec])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: order ") and "exceeds the vertex cap 1024" in err

    def test_seeded_determinism(self):
        _, a, _ = run(["gen", "randomtree:15", "--seed", "3"])
        _, b, _ = run(["gen", "randomtree:15", "--seed", "3"])
        assert a == b


class TestSolve:
    def test_family_json(self):
        code, out, _ = run(["solve", "--family", "path:7",
                            "--invariants", "gamma,gamma_weak_roman,gamma_secure",
                            "--format", "json"])
        assert code == EXIT_OK
        entry = json.loads(out)[0]
        values = {r["invariant_id"]: r["value"] for r in entry["results"]}
        assert values == {"gamma": 3, "gamma_weak_roman": 3, "gamma_secure": 3}

    def test_stdin_multiple_graphs(self):
        stdin = write_graph6(complete(1)) + "\n" + write_graph6(cycle(4)) + "\n"
        code, out, _ = run(["solve", "--invariants", "gamma", "--format", "json"], stdin)
        data = json.loads(out)
        assert [e["results"][0]["value"] for e in data] == [1, 2]

    def test_input_file(self, tmp_path):
        corpus = tmp_path / "two.g6"
        corpus.write_text(write_graph6(path(4)) + "\n" + write_graph6(cycle(5)) + "\n")
        code, out, _ = run(["solve", "--input", str(corpus),
                            "--invariants", "gamma_secure", "--format", "json"])
        data = json.loads(out)
        assert code == EXIT_OK
        assert [e["results"][0]["value"] for e in data] == [2, 3]

    def test_missing_input_file_is_io_error(self):
        code, _, _ = run(["solve", "--input", "/nonexistent/corpus.g6"])
        assert code == EXIT_IO

    def test_text_contains_same_numbers(self):
        code, out, _ = run(["solve", "--family", "cycle:7", "--invariants", "gamma_roman"])
        assert code == EXIT_OK and "gamma_roman = 5" in out

    def test_empty_witnesses_print_by_kind(self):
        code, out, _ = run(["solve", "--family", "empty:2", "--invariants", "matching"])
        assert code == EXIT_OK and "  matching = 0  witness []  nodes " in out
        code, out, _ = run(["solve", "--family", "g6:?", "--invariants", "gamma,chromatic"])
        assert code == EXIT_OK
        assert "  gamma = 0  witness {}  nodes " in out
        assert "  chromatic = 0  witness []  nodes " in out

    def test_limit_exceeded_continues(self):
        stdin = write_graph6(path(12)) + "\n" + write_graph6(path(3)) + "\n"
        code, out, _ = run(["solve", "--invariants", "gamma_secure", "--format", "json",
                            "--limit-n", "8"], stdin)
        data = json.loads(out)
        assert code == EXIT_OK
        assert "error" in data[0]["results"][0]
        assert data[1]["results"][0]["value"] == 2

    def test_coloring_and_tau_past_order_16(self):
        """At order 20 the default limits color the graph and its complement
        and compute tau, in solve and in audit alike."""
        g = random_connected_graph(random.Random(20), 20, 0.3)
        stdin = write_graph6(g) + "\n"
        code, out, _ = run(["solve", "--invariants", "chromatic,clique_cover,tau",
                            "--format", "json"], stdin)
        assert code == EXIT_OK
        results = {r["invariant_id"]: r for r in json.loads(out)[0]["results"]}
        for key, independent in (("chromatic", True), ("clique_cover", False)):
            classes = [VertexSet.from_text(text, g.n).bits
                       for text in results[key]["witness"]["sets"]]
            assert len(classes) == results[key]["value"]
            union = 0
            for cls in classes:
                assert union & cls == 0
                union |= cls
                for u in iter_bits(cls):
                    inside = g.adj[u] & cls
                    assert inside == (0 if independent else cls & ~(1 << u))
            assert union == g.full_mask
        assert "value" in results["tau"]
        code, out, _ = run(["audit", "--format", "json"], stdin)
        assert code == EXIT_OK
        rep = json.loads(out)[0]
        assert {"chromatic", "clique_cover", "tau"} <= rep["invariants"].keys()
        assert not any((r["reason"] or "").startswith(
            ("budget: chromatic", "budget: clique_cover", "budget: tau")) for r in rep["bounds"])

    def test_roman_and_two_domination_at_order_24(self):
        """At order 24 the default limits solve γ_R and γ_2, and the audit
        completes every row."""
        g = random_connected_graph(random.Random(24), 24, 0.15)
        stdin = write_graph6(g) + "\n"
        code, out, _ = run(["solve", "--invariants", "gamma_roman,gamma_2", "--format", "json"],
                           stdin)
        assert code == EXIT_OK
        results = {r["invariant_id"]: r for r in json.loads(out)[0]["results"]}
        f = GuardFunction.from_text(g, results["gamma_roman"]["witness"]["text"])
        assert is_rdf(g, f) and f.weight() == results["gamma_roman"]["value"]
        s = VertexSet.from_text(results["gamma_2"]["witness"]["text"], g.n)
        assert kdom_mask(g, s.bits, 2) and len(s) == results["gamma_2"]["value"]
        code, out, _ = run(["audit", "--format", "json"], stdin)
        assert code == EXIT_OK
        rep = json.loads(out)[0]
        assert not rep["incomplete"]
        assert not any((r["reason"] or "").startswith("budget:") for r in rep["bounds"])

    def test_unknown_invariant_is_usage_error(self):
        code, _, _ = run(["solve", "--family", "path:3", "--invariants", "zeta"])
        assert code == EXIT_USAGE
        # Names are checked before any input is read: a malformed line on
        # stdin would be an I/O error.
        for name in ("gamma_0", "gamma_01", "gamma_\u00b2", "gamma_", "gamma_+2"):
            code, out, err = run(["solve", "--invariants", f"gamma,{name}"], "@@\n")
            assert code == EXIT_USAGE and out == "", name
            assert err.startswith(f"error: unknown invariant {name!r}"), name

    def test_two_sources_rejected(self):
        code, _, _ = run(["solve", "--family", "path:3", "--input", "nope.g6"])
        assert code == EXIT_USAGE


class TestVerify:
    def test_fig1_function(self, fig1_tree):
        code, out, _ = run(["verify", "--class", "wrdf", "--object", "2,0,1,0,0,0",
                            "--format", "json"], write_graph6(fig1_tree) + "\n")
        assert code == EXIT_OK and json.loads(out)["ok"] is True

    def test_p3_failure_with_moves(self):
        code, out, _ = run(["verify", "--class", "wrdf", "--object", "0,1,0",
                            "--format", "json"], write_graph6(path(3)) + "\n")
        d = json.loads(out)
        assert d["ok"] is False and d["failing_vertex"] == 0
        assert d["moves"] == [{"attacked": 0, "defender": 1, "valid": False}]

    def test_all_zero_function(self):
        code, out, _ = run(["verify", "--class", "wrdf", "--object", "0,0,0",
                            "--format", "json"], write_graph6(path(3)) + "\n")
        d = json.loads(out)
        assert d["ok"] is False and d["failing_vertex"] == 0

    def test_secure_class_uses_set_text(self, fig1_tree):
        code, out, _ = run(["verify", "--class", "secure", "--object", "1,3,4,5",
                            "--format", "json"], write_graph6(fig1_tree) + "\n")
        assert json.loads(out)["ok"] is True

    def test_kdom(self):
        code, out, _ = run(["verify", "--class", "kdom", "--object", "0,2", "--k", "2",
                            "--format", "json"], write_graph6(cycle(4)) + "\n")
        assert json.loads(out)["ok"] is True

    def test_rdf_class(self):
        code, out, _ = run(["verify", "--class", "rdf", "--object", "0,2,0,1",
                            "--format", "json"], write_graph6(path(4)) + "\n")
        assert json.loads(out)["ok"] is True
        code, out, _ = run(["verify", "--class", "rdf", "--object", "0,1,0,1",
                            "--format", "json"], write_graph6(path(4)) + "\n")
        d = json.loads(out)
        assert d["ok"] is False and d["failing_vertex"] == 0

    def test_df_class(self):
        code, out, _ = run(["verify", "--class", "df", "--object", "1",
                            "--format", "json"], write_graph6(path(3)) + "\n")
        assert json.loads(out)["ok"] is True

    def test_kdom_k_below_one_is_usage_error(self):
        # rejected before any input is read, as --limit-n 0 is
        code, out, err = run(["verify", "--class", "kdom", "--object", "0", "--k", "0",
                              "--input", "missing.g6"])
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: --k must be positive")

    def test_bad_object_text_is_io_error(self):
        code, _, _ = run(["verify", "--class", "wrdf", "--object", "2,x,1"],
                         write_graph6(path(3)) + "\n")
        assert code == EXIT_IO


class TestOrder400:
    """The ladder P200 x K2 and random trees of order 300, past the old
    64-vertex cap: they build, verify and certify, and the solvers skip them
    on their own caps."""

    ROW0 = ",".join(str(v) for v in range(0, 400, 2))

    @pytest.fixture(scope="class")
    def ladder_line(self):
        code, out, _ = run(["gen", "prod:path:200,complete:2"])
        assert code == EXIT_OK
        return out

    def test_verify_secure(self, ladder_line):
        # vertex (x, y) is 2x + y: row 0 is secure, and without vertex 200
        # the vertex 201 above it is undominated
        code, out, _ = run(["verify", "--class", "secure", "--object", self.ROW0], ladder_line)
        assert code == EXIT_OK and out == "class secure: VALID\n"
        holed = ",".join(str(v) for v in range(0, 400, 2) if v != 200)
        code, out, _ = run(["verify", "--class", "secure", "--object", holed], ladder_line)
        assert code == EXIT_OK
        assert out == "class secure: INVALID\nfirst failing vertex: 201\n"

    def test_solve_skips_over_the_solver_caps(self, ladder_line):
        code, out, _ = run(["solve", "--format", "json"], ladder_line)
        assert code == EXIT_OK
        [entry] = json.loads(out)
        assert entry["n"] == 400
        assert [r["invariant_id"] for r in entry["results"]] == [
            "gamma", "gamma_weak_roman", "gamma_secure"]
        for r in entry["results"]:
            assert "value" not in r and "order 400 exceeds solver limit" in r["error"]

    @pytest.mark.parametrize("algorithm", ["tree-secure", "two-thirds"])
    def test_tree_certificates(self, algorithm):
        code, out, _ = run(["construct", "--algorithm", algorithm, "--family", "randomtree:300",
                            "--seed", "5", "--format", "json"])
        d = json.loads(out)
        assert code == EXIT_OK and d["valid"] and d["achieved"] <= d["claimed_bound"]


class TestConstruct:
    def test_two_thirds_on_random_tree(self):
        code, out, _ = run(["construct", "--algorithm", "two-thirds",
                            "--family", "randomtree:20", "--seed", "1",
                            "--format", "json"])
        d = json.loads(out)
        assert code == EXIT_OK and d["valid"]
        assert d["achieved"] <= d["claimed_bound"] == (2 * 20) // 3

    def test_complement_secure_k5e(self):
        code, out, _ = run(["construct", "--algorithm", "complement-secure",
                            "--family", "join:complete:3,empty:2", "--format", "json"])
        d = json.loads(out)
        assert d["claimed_bound"] == 2 and d["achieved"] == 2

    def test_aaaa_fig3(self, spider9):
        code, out, _ = run(["construct", "--algorithm", "aaaa", "--family", "complete:3",
                            "--second", f"g6:{write_graph6(spider9)}",
                            "--object", "2,0,1,0,0,0,0,0,0", "--format", "json"])
        d = json.loads(out)
        assert code == EXIT_OK and d["claimed_bound"] == 8 and d["achieved"] == 8

    def test_product_lift_requires_arguments(self):
        code, _, _ = run(["construct", "--algorithm", "product-lift",
                          "--family", "path:3"])
        assert code == EXIT_USAGE

    def test_inapplicable_is_usage_error(self):
        code, _, err = run(["construct", "--algorithm", "complement-secure",
                            "--family", "complete:4"])
        assert code == EXIT_USAGE and "complete" in err


class InlinePool:
    """Stands in for ``ProcessPoolExecutor``: maps lazily in this process,
    and logs the pool's size and each ``shutdown``'s ``cancel_futures``."""

    def __init__(self, log, max_workers):
        self.log = log
        log.append(("pool", max_workers))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.log.append(("shutdown", cancel_futures))


class TestAudit:
    def test_pass_exit_zero(self):
        code, out, _ = run(["audit", "--family", "cycle:5", "--format", "json"])
        assert code == EXIT_OK
        rep = json.loads(out)[0]
        assert rep["pass"] is True and rep["conjectures"] == []

    def test_oversized_graph_skipped_not_fatal(self):
        stdin = write_graph6(path(30)) + "\n" + write_graph6(path(4)) + "\n"
        code, out, _ = run(["audit", "--format", "json", "--limit-n", "10"], stdin)
        data = json.loads(out)
        assert code == EXIT_OK
        assert "skipped" in data[0] and data[1]["pass"] is True

    def test_nonpositive_limit_is_usage_error(self):
        for bad in ("0", "-1"):
            code, out, err = run(["audit", "--family", "cycle:5", "--limit-n", bad])
            assert code == EXIT_USAGE and out == "" and "--limit-n" in err

    def test_violation_exit_two(self, monkeypatch):
        # no true bound can fail, so force a deliberately false registry entry
        from domguard.bounds import BoundSpec
        fake = BoundSpec("always_false", "upper", "gamma", "graph",
                         "deliberately false for exit-code testing",
                         lambda c: -1, lambda c: c.value("gamma"))
        monkeypatch.setattr(bounds_mod, "_REGISTRY", (fake,))
        code, out, _ = run(["audit", "--format", "json"], write_graph6(path(3)) + "\n")
        assert code == EXIT_BOUND_VIOLATION
        assert json.loads(out)[0]["pass"] is False

    def test_parse_error_exit_three(self):
        code, out, _ = run(["audit", "--format", "json"], "@\n\x7f\x7f\n")
        assert code == EXIT_IO

    def test_unexpected_error_is_confined_to_its_graph(self, monkeypatch):
        lines = [write_graph6(cycle(t)) for t in (3, 4, 5)]
        real_audit = bounds_mod.audit

        def flaky_audit(g, limits=None):
            if g.n == 4:
                raise RuntimeError("boom")
            return real_audit(g, limits)

        monkeypatch.setattr(bounds_mod, "audit", flaky_audit)
        code, out, err = run(["audit", "--format", "json"], "\n".join(lines) + "\n")
        data = json.loads(out)
        assert code == EXIT_IO and "RuntimeError: boom" in err
        assert [rep["graph6"] for rep in data] == lines
        assert data[0]["pass"] is True and data[2]["pass"] is True
        assert data[1]["error"] == "RuntimeError: boom"
        code, out, _ = run(["audit"], "\n".join(lines) + "\n")
        assert code == EXIT_IO
        assert f"{lines[1]}: ERROR RuntimeError: boom" in out.splitlines()

    def test_workers_preserve_order(self):
        lines = [write_graph6(cycle(t)) for t in (3, 4, 5, 6)]
        code, out, _ = run(["audit", "--workers", "2", "--format", "json"],
                           "\n".join(lines) + "\n")
        data = json.loads(out)
        assert code == EXIT_OK
        assert [rep["graph6"] for rep in data] == lines

    def test_workers_capped_at_graph_count(self, monkeypatch):
        import domguard.cli as cli_mod
        pools = []
        monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", partial(InlinePool, pools))
        lines = [write_graph6(cycle(t)) for t in (3, 4, 5)]
        code, out, _ = run(["audit", "--workers", "500", "--format", "json"],
                           "\n".join(lines) + "\n")
        assert code == EXIT_OK and pools == [("pool", 3)]
        assert [rep["graph6"] for rep in json.loads(out)] == lines
        _, serial, _ = run(["audit", "--format", "json"], "\n".join(lines) + "\n")
        assert out == serial
        code, out, _ = run(["audit", "--workers", "500", "--format", "json"], lines[0] + "\n")
        assert code == EXIT_OK and pools == [("pool", 3)]
        assert [rep["graph6"] for rep in json.loads(out)] == lines[:1]

    def test_text_mode(self):
        code, out, _ = run(["audit", "--family", "path:5"])
        assert code == EXIT_OK and "pass" in out

    def test_full_small_corpus_passes(self):
        import pathlib
        fixture = pathlib.Path(__file__).parent / "fixtures" / "all_graphs_n1_to_6.g6"
        code, out, _ = run(["audit", "--input", str(fixture), "--workers", "2",
                            "--format", "json"])
        data = json.loads(out)
        assert code == EXIT_OK and len(data) == 208
        assert all(rep["pass"] and not rep["incomplete"] for rep in data)

    def test_bad_workers_is_usage_error(self):
        code, _, _ = run(["audit", "--family", "path:4", "--workers", "0"])
        assert code == EXIT_USAGE


# Today's whole-list output, kept here to check the streamed bytes against.
def batch_json(records) -> str:
    return json.dumps(records, indent=2) + "\n"


def batch_audit_text(reports) -> str:
    lines_out = []
    for rep in reports:
        if "error" in rep:
            lines_out.append(f"{rep['graph6']}: ERROR {rep['error']}")
        elif "skipped" in rep:
            lines_out.append(f"{rep['graph6']}: skipped ({rep['skipped']})")
        else:
            verdict = "pass" if rep["pass"] else "FAIL"
            extra = " (incomplete)" if rep["incomplete"] else ""
            applicable = sum(1 for b in rep["bounds"] if b["applicable"])
            lines_out.append(f"{rep['graph6']}: {verdict}{extra} "
                             f"({applicable} bounds applicable)")
            for b in rep["bounds"]:
                if b["applicable"] and not b["holds"]:
                    lines_out.append(f"  VIOLATED {b['id']}: claimed {b['claimed']}, actual {b['actual']}")
    return "\n".join(lines_out) + "\n"


def batch_solve_text(entries) -> str:
    lines = []
    for entry in entries:
        lines.append(f"graph {entry['graph6']} (n={entry['n']})")
        for res in entry["results"]:
            if "error" in res:
                lines.append(f"  {res['invariant_id']}: skipped ({res['error']})")
            else:
                w = res["witness"]
                wtxt = w.get("text") or w.get("sets") or w.get("edges")
                lines.append(f"  {res['invariant_id']} = {res['value']}  "
                             f"witness {wtxt}  nodes {res['nodes_explored']}")
    return "\n".join(lines) + "\n"


class BrokenAfter(io.StringIO):
    """A stdout whose reader goes away after ``ok`` writes."""

    def __init__(self, ok):
        super().__init__()
        self.ok = ok

    def write(self, text):
        if self.ok == 0:
            raise BrokenPipeError(32, "Broken pipe")
        self.ok -= 1
        return super().write(text)


class TestStreaming:
    """audit and solve write each record as it is computed; the bytes are
    those of the whole list written at the end."""

    @pytest.fixture(scope="class")
    def mixed_lines(self):
        import pathlib
        fixture = pathlib.Path(__file__).parent / "fixtures" / "all_graphs_n1_to_6.g6"
        lines = fixture.read_text().split()
        return lines[:100] + ["@@"] + [write_graph6(path(12))] + lines[100:]

    @pytest.fixture(scope="class")
    def mixed_reports(self, mixed_lines):
        from domguard.cli import _audit_one_line
        from domguard.solvers import DEFAULT_LIMITS
        limits = DEFAULT_LIMITS.scaled(8)
        return [_audit_one_line(line, limits, 8) for line in mixed_lines]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_audit_bytes_match_batch_output(self, mixed_lines, mixed_reports, workers):
        assert "error" in mixed_reports[100] and "skipped" in mixed_reports[101]
        stdin = "\n".join(mixed_lines) + "\n"
        for fmt, expected in (("json", batch_json(mixed_reports)),
                              ("text", batch_audit_text(mixed_reports))):
            code, out, _ = run(["audit", "--format", fmt, "--limit-n", "8",
                                "--workers", workers], stdin)
            assert code == EXIT_IO and out == expected

    def test_empty_input(self):
        for cmd in ("audit", "solve"):
            assert run([cmd, "--format", "json"], "") == (EXIT_OK, "[]\n", "")
            assert run([cmd, "--format", "text"], "") == (EXIT_OK, "\n", "")

    def test_solve_bytes_match_batch_output(self):
        from domguard.solvers import DEFAULT_LIMITS, LimitExceeded, solve
        graphs = [cycle(5), path(12), path(4)]
        wanted = ["gamma", "gamma_secure"]
        limits = DEFAULT_LIMITS.scaled(8)
        entries = []
        for g in graphs:
            results = []
            for inv in wanted:
                try:
                    results.append(solve(g, inv, limits).to_json_dict())
                except LimitExceeded as exc:
                    results.append({"invariant_id": inv, "error": str(exc)})
            entries.append({"graph6": write_graph6(g), "n": g.n, "results": results})
        assert sum("error" in r for e in entries for r in e["results"]) == 2
        stdin = "".join(write_graph6(g) + "\n" for g in graphs)
        for fmt, expected in (("json", batch_json(entries)), ("text", batch_solve_text(entries))):
            code, out, _ = run(["solve", "--format", fmt, "--limit-n", "8",
                                "--invariants", ",".join(wanted)], stdin)
            assert code == EXIT_OK and out == expected

    def test_solve_malformed_line_fails_before_any_record(self):
        stdin = write_graph6(cycle(5)) + "\n@@\n"
        for fmt in ("json", "text"):
            code, out, err = run(["solve", "--format", fmt, "--invariants", "gamma"], stdin)
            assert code == EXIT_IO and out == "" and err.startswith("error:")

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_each_record_is_written_before_the_next_graph(self, monkeypatch, fmt):
        import domguard.cli as cli_mod
        lines = [write_graph6(cycle(t)) for t in (3, 4, 5, 6)]
        real = cli_mod._audit_one_line
        done = []

        def audit_one(line, limits, limit_n):
            written = sys.stdout.getvalue()
            if fmt == "json":
                records = json.loads(written + "\n]") if done else []
                assert [rep["graph6"] for rep in records] == [rep["graph6"] for rep in done]
            else:
                assert written == (batch_audit_text(done) if done else "")
            rep = real(line, limits, limit_n)
            done.append(rep)
            return rep

        monkeypatch.setattr(cli_mod, "_audit_one_line", audit_one)
        code, out, _ = run(["audit", "--format", fmt], "\n".join(lines) + "\n")
        assert code == EXIT_OK and len(done) == len(lines)

    def test_closed_stdout_stops_a_serial_audit(self, monkeypatch):
        import domguard.cli as cli_mod
        lines = [write_graph6(cycle(t)) for t in (3, 4, 5, 6, 7)]
        real = cli_mod._audit_one_line
        audited = []
        monkeypatch.setattr(cli_mod, "_audit_one_line",
                            lambda line, **kw: audited.append(line) or real(line, **kw))
        for fmt in ("json", "text"):
            audited.clear()
            code, _, err = run(["audit", "--format", fmt], "\n".join(lines) + "\n",
                               out=BrokenAfter(1))
            assert code == EXIT_IO and err == "error: [Errno 32] Broken pipe\n"
            assert audited == lines[:2]

    def test_closed_stdout_cancels_the_pool(self, monkeypatch):
        import domguard.cli as cli_mod
        log = []
        monkeypatch.setattr(cli_mod, "ProcessPoolExecutor", partial(InlinePool, log))
        lines = [write_graph6(cycle(t)) for t in (3, 4, 5)]
        code, _, err = run(["audit", "--workers", "2", "--format", "json"],
                           "\n".join(lines) + "\n", out=BrokenAfter(1))
        assert code == EXIT_IO and err == "error: [Errno 32] Broken pipe\n"
        assert log == [("pool", 2), ("shutdown", True)]
        log.clear()
        code, _, _ = run(["audit", "--workers", "2", "--format", "json"], "\n".join(lines) + "\n")
        assert code == EXIT_OK and log == [("pool", 2)]


class TestNgAndConjecture:
    def test_ng_fig2_right(self, fig2_right):
        code, out, _ = run(["ng", "--format", "json"], write_graph6(fig2_right) + "\n")
        d = json.loads(out)
        assert d["sum_secure"] == 8 and d["product_secure"] == 16 and d["pass"]

    def test_ng_k1(self):
        code, out, _ = run(["ng", "--family", "complete:1", "--format", "json"])
        assert json.loads(out)["sum_secure"] == 2

    def test_conjecture_path_table(self):
        code, out, _ = run(["conjecture", "--family", "path", "--t-max", "8",
                            "--format", "json"])
        d = json.loads(out)
        assert code == EXIT_OK
        assert len(d["rows"]) == 7 and all(r["match"] for r in d["rows"])

    def test_conjecture_text(self):
        code, out, _ = run(["conjecture", "--family", "cycle", "--t-max", "4"])
        assert code == EXIT_OK and "False" in out  # the t=3 finding shows up

    def test_t_max_below_first_order_is_usage_error(self):
        for family, bad in (("cycle", "2"), ("cycle", "-1"), ("path", "1")):
            code, out, err = run(["conjecture", "--family", family, "--t-max", bad])
            assert code == EXIT_USAGE and out == "" and "--t-max" in err
        for family, first in (("cycle", "3"), ("path", "2")):
            code, out, _ = run(["conjecture", "--family", family, "--t-max", first,
                                "--format", "json"])
            assert code == EXIT_OK and [r["t"] for r in json.loads(out)["rows"]] == [int(first)]


def test_commands_are_deterministic():
    for argv in (["solve", "--family", "cycle:9",
                  "--invariants", "gamma,gamma_secure,tau", "--format", "json"],
                 ["audit", "--family", "path:6", "--format", "json"],
                 ["construct", "--algorithm", "tree-secure",
                  "--family", "randomtree:14", "--seed", "7", "--format", "json"]):
        _, first, _ = run(list(argv))
        _, second, _ = run(list(argv))
        assert first == second


def test_parser_is_built_once_and_keeps_no_state(monkeypatch):
    """main() builds its parser once per process.  Back-to-back calls with
    different subcommands and options give what each gives on a parser of
    its own, and no option carries over into the next call."""
    from domguard import cli
    calls = (["solve", "--family", "cycle:7", "--invariants", "gamma_secure,tau",
              "--format", "json", "--limit-n", "5"],
             ["solve", "--family", "cycle:7", "--invariants", "gamma_secure"],
             ["gen", "randomtree:9", "--seed", "3"],
             ["gen", "randomtree:9"],
             ["conjecture", "--family", "path", "--t-max", "3", "--format", "json"],
             ["audit", "--family", "path:6"],
             ["frobnicate"])
    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(run(list(argv)))
    assert [code for code, _, _ in alone] == [EXIT_OK] * 6 + [EXIT_USAGE]
    # The limit, the format and the seed each change an output, so a value
    # carried over into the next call would show.
    assert "exceeds solver limit 5" in alone[0][1] and "exceeds" not in alone[1][1]
    assert alone[0][1].startswith("[") and not alone[1][1].startswith("[")
    assert alone[2][1] != alone[3][1]
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    in_a_row = [run(list(argv)) for argv in calls + calls[::-1]]
    assert in_a_row == alone + alone[::-1]
    assert len(built) == 1


def test_console_entry_point_subprocess():
    proc = subprocess.run([sys.executable, "-m", "domguard.cli", "gen", "path:4"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert parse_graph6(proc.stdout.strip()) == path(4)


def test_package_runs_as_module_from_checkout():
    import os
    import pathlib
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "domguard", "solve", "--family", "path:4",
                           "--invariants", "gamma"], capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_OK, proc.stderr


def test_usage_error_exit_code_subprocess():
    proc = subprocess.run([sys.executable, "-m", "domguard.cli", "frobnicate"],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_USAGE
