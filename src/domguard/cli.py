"""Command-line front end.

Subcommands: gen, solve, verify, construct, audit, ng, conjecture.
Graphs come from exactly one source: --family SPEC, --input FILE (graph6,
one per line) or stdin.  Family specs use a small colon/comma grammar:

    spec      := composite | atom
    atom      := path:N | cycle:N | complete:N | star:N | empty:N
               | hypercube:N | hamming:K:N | randomtree:N | g6:<graph6>
    composite := prod:spec,spec | join:spec,spec
               | corona:spec,N | complement:spec

``audit`` and ``solve`` write each graph's record as soon as it is computed,
in input order, and keep none of the earlier ones, so a batch's memory does
not grow with its length.  The output is the same bytes as one JSON array
(or text report) written at the end.  Their exit code is known only when the
last record is written.  A stdout that is closed mid-batch stops it: no
further graph is started, and the run exits 3.

Exit codes: 0 success (including incomplete audits), 1 usage error,
2 an applicable bound failed during audit, 3 I/O or parse failure.
"""

from __future__ import annotations

import argparse
import heapq
import json
import random
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache, partial
from typing import Iterator, Optional

from . import bounds as bounds_mod
from . import constructions as cons
from .graph import (_FAMILIES, Graph, GraphError, VertexSet, cartesian_product, complement,
                    corona, generate, join)
from .graph6 import EdgeListError, Graph6Error, parse_graph6, write_graph6
from .protection import GuardFunction, ProtectionError, defense_moves, first_failing_vertex
from .solvers import (DEFAULT_LIMITS, INVARIANT_IDS, LimitExceeded, SolverLimits, solve,
                      solver)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUND_VIOLATION = 2
EXIT_IO = 3


class SpecError(ValueError):
    """Family-spec grammar error with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


def random_tree(n: int, rng: random.Random) -> Graph:
    """Uniform random labeled tree (random parent-sequence decode).

    The draws and the decode run inside the edge generator, so ``Graph``
    rejects an order above its cap before the first draw."""
    if n < 1:
        raise GraphError(f"random tree order must be >= 1, got {n}")
    return Graph(n, _random_tree_edges(n, rng))


def _random_tree_edges(n: int, rng: random.Random) -> Iterator[tuple[int, int]]:
    if n < 2:
        return
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        yield (heapq.heappop(leaves), v)
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    yield (heapq.heappop(leaves), heapq.heappop(leaves))


_G6_CHARS = frozenset(chr(c) for c in range(63, 127))


def _parse_int(text: str, pos: int) -> tuple[int, int]:
    end = pos
    while end < len(text) and "0" <= text[end] <= "9":
        end += 1
    if end == pos:
        raise SpecError("expected an integer", pos)
    return int(text[pos:end]), end


def _parse_name(text: str, pos: int) -> tuple[str, int]:
    end = pos
    while end < len(text) and (text[end].isalnum() or text[end] == "_"):
        end += 1
    if end == pos:
        raise SpecError("expected a family or operator name", pos)
    return text[pos:end], end


def _expect(text: str, pos: int, ch: str) -> int:
    if pos >= len(text) or text[pos] != ch:
        raise SpecError(f"expected {ch!r}", pos)
    return pos + 1


def _parse_spec(text: str, pos: int, rng: random.Random) -> tuple[Graph, int]:
    name, pos = _parse_name(text, pos)
    start = pos - len(name)
    try:
        if name in ("prod", "join"):
            pos = _expect(text, pos, ":")
            left, pos = _parse_spec(text, pos, rng)
            pos = _expect(text, pos, ",")
            right, pos = _parse_spec(text, pos, rng)
            op = cartesian_product if name == "prod" else join
            return op(left, right), pos
        if name == "corona":
            pos = _expect(text, pos, ":")
            base, pos = _parse_spec(text, pos, rng)
            pos = _expect(text, pos, ",")
            t, pos = _parse_int(text, pos)
            return corona(base, t), pos
        if name == "complement":
            pos = _expect(text, pos, ":")
            base, pos = _parse_spec(text, pos, rng)
            return complement(base), pos
        if name == "g6":
            pos = _expect(text, pos, ":")
            end = pos
            while end < len(text) and text[end] in _G6_CHARS and text[end] != ",":
                end += 1
            if end == pos:
                raise SpecError("expected graph6 data after g6:", pos)
            return parse_graph6(text[pos:end]), end
        if name == "randomtree":
            pos = _expect(text, pos, ":")
            n, pos = _parse_int(text, pos)
            return random_tree(n, rng), pos
        if name in _FAMILIES:
            params = []
            for _ in range(_FAMILIES[name][1]):
                pos = _expect(text, pos, ":")
                t, pos = _parse_int(text, pos)
                params.append(t)
            return generate(name, *params), pos
    except (GraphError, Graph6Error) as exc:
        raise SpecError(str(exc), start) from exc
    raise SpecError(f"unknown family or operator {name!r}", start)


def parse_family_spec(text: str, seed: int = 0) -> Graph:
    rng = random.Random(seed)
    g, pos = _parse_spec(text, 0, rng)
    if pos != len(text):
        raise SpecError("trailing input after a complete spec", pos)
    return g


# ---------------------------------------------------------------------------
# Input plumbing.
# ---------------------------------------------------------------------------

def _limits(args) -> SolverLimits:
    """The solver limits of ``--limit-n``: every default clamped to it."""
    if args.limit_n is None:
        return DEFAULT_LIMITS
    if args.limit_n < 1:
        raise SpecError("--limit-n must be positive", 0)
    return DEFAULT_LIMITS.scaled(args.limit_n)


def _read_graph_lines(args) -> list[str]:
    if args.family is not None and args.input is not None:
        raise SpecError("choose one input source: --family or --input", 0)
    if args.family is not None:
        return [write_graph6(parse_family_spec(args.family, args.seed))]
    if args.input is not None:
        with open(args.input, "r", encoding="ascii") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return [line.strip() for line in text.splitlines() if line.strip()]


def _read_single_graph(args) -> Graph:
    graphs = [parse_graph6(line) for line in _read_graph_lines(args)]
    if len(graphs) != 1:
        raise SpecError(f"this command expects exactly one graph, got {len(graphs)}", 0)
    return graphs[0]


def _emit(payload, fmt: str, render_text, lead: Optional[str] = None) -> None:
    """Write one payload in a single write: its ``render_text``, or its JSON
    at indent 2 and a newline.  With ``lead``, the payload is one element of
    the JSON array that ``_emit_each`` streams: its JSON is written after
    ``lead``, shifted one level, and the array's close ends the line."""
    if fmt != "json":
        text = render_text(payload)
    elif lead is None:
        text = json.dumps(payload, indent=2) + "\n"
    else:
        # JSON escapes the newlines inside strings, so every newline here
        # starts a line of the layout
        text = lead + json.dumps(payload, indent=2).replace("\n", "\n  ")
    sys.stdout.write(text)


def _emit_each(records, fmt: str, render_text) -> None:
    """Write each of ``records`` as soon as it arrives, in order, and keep
    none.  The bytes are those of the whole list written at once: the JSON
    of ``json.dumps(records, indent=2)`` and a newline, or each record's
    ``render_text`` in turn (one empty line when there is no record)."""
    empty = True
    for record in records:
        _emit(record, fmt, render_text, "[\n  " if empty else ",\n  ")
        empty = False
    if fmt == "json":
        sys.stdout.write("[]\n" if empty else "\n]\n")
    elif empty:
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    for spec in args.specs:
        g, pos = _parse_spec(spec, 0, rng)
        if pos != len(spec):
            raise SpecError("trailing input after a complete spec", pos)
        print(write_graph6(g))
    return EXIT_OK


def _cmd_solve(args) -> int:
    limits = _limits(args)
    wanted = args.invariants.split(",") if args.invariants else ["gamma", "gamma_weak_roman", "gamma_secure"]
    for inv in wanted:
        solver(inv)  # an unknown name fails before any input is read
    lines = _read_graph_lines(args)
    # a malformed line fails the command before its first record is written
    for line in lines:
        parse_graph6(line)

    def entries():
        for line in lines:
            g = parse_graph6(line)
            entry = {"graph6": line, "n": g.n, "results": []}
            for inv in wanted:
                try:
                    entry["results"].append(solve(g, inv, limits).to_json_dict())
                except LimitExceeded as exc:
                    entry["results"].append({"invariant_id": inv, "error": str(exc)})
            yield entry

    def render(entry) -> str:
        lines_out = [f"graph {entry['graph6']} (n={entry['n']})"]
        for res in entry["results"]:
            if "error" in res:
                lines_out.append(f"  {res['invariant_id']}: skipped ({res['error']})")
            else:
                w = res["witness"]
                # lists print as lists, [] when empty; an empty set or function prints {}
                wtxt = w.get({"edge_set": "edges", "vertex_set_list": "sets"}.get(w["kind"], "text"))
                if wtxt == "":
                    wtxt = "{}"
                lines_out.append(f"  {res['invariant_id']} = {res['value']}  "
                                 f"witness {wtxt}  nodes {res['nodes_explored']}")
        return "\n".join(lines_out) + "\n"

    _emit_each(entries(), args.format, render)
    return EXIT_OK


def _cmd_verify(args) -> int:
    kind = args.cls
    if kind == "kdom" and args.k < 1:
        raise SpecError("--k must be positive", 0)
    g = _read_single_graph(args)
    if kind in ("rdf", "wrdf"):
        obj = GuardFunction.from_text(g, args.object)
    else:
        obj = VertexSet.from_text(args.object, g.n)
    failing = first_failing_vertex(g, kind, obj, args.k)
    payload = {"class": kind, "object": args.object, "ok": failing is None,
               "failing_vertex": failing, "moves": None}
    if kind in ("wrdf", "secure") and failing is not None:
        f = obj if kind == "wrdf" else GuardFunction.from_vertex_set(g, obj)
        if f.values[failing] == 0:
            payload["moves"] = [{"attacked": m.attacked, "defender": m.defender,
                                 "valid": m.valid} for m in defense_moves(g, f, failing)]

    def render(p) -> str:
        lines = [f"class {p['class']}: {'VALID' if p['ok'] else 'INVALID'}"]
        if p["failing_vertex"] is not None:
            lines.append(f"first failing vertex: {p['failing_vertex']}")
        if p["moves"] is not None:
            for m in p["moves"]:
                lines.append(f"  defender {m['defender']}: {'valid' if m['valid'] else 'leaves an undefended vertex'}")
        return "\n".join(lines) + "\n"

    _emit(payload, args.format, render)
    return EXIT_OK


_ALGORITHMS = ("two-thirds", "tree-secure", "complement-secure", "clique-cover",
               "two-dominating", "product-lift", "product-secure", "aaaa")


def _cmd_construct(args) -> int:
    limits = _limits(args)
    g = _read_single_graph(args)
    alg = args.algorithm
    second = None
    if args.second is not None:
        second = parse_family_spec(args.second, args.seed)
    if alg == "two-thirds":
        cert = cons.tree_wrdf_two_thirds(g)
    elif alg == "tree-secure":
        cert = cons.tree_secure_set(g)
    elif alg == "complement-secure":
        cert = cons.complement_secure_set(g, limits)
    elif alg == "clique-cover":
        cert = cons.clique_cover_secure_set(g, limits)
    elif alg == "two-dominating":
        cert = cons.two_dominating_as_secure(g, limits)
    elif alg == "product-lift":
        if second is None or args.object is None:
            raise SpecError("product-lift needs --second H and --object (function on the input graph)", 0)
        cert = cons.product_wrdf_lift(GuardFunction.from_text(g, args.object), second)
    elif alg == "product-secure":
        if second is None:
            raise SpecError("product-secure needs --second H", 0)
        cert = cons.product_secure_set(g, second, limits)
    elif alg == "aaaa":
        if second is None or args.object is None:
            raise SpecError("aaaa needs --second H and --object (function on H)", 0)
        cert = cons.product_wrdf_aaaa(g, GuardFunction.from_text(second, args.object), limits)
    else:
        raise SpecError(f"unknown algorithm {alg!r}; known: {', '.join(_ALGORITHMS)}", 0)
    payload = cert.to_json_dict()

    def render(p) -> str:
        return (f"{p['theorem_id']}: claimed <= {p['claimed_bound']}, achieved {p['achieved']}, "
                f"valid={p['valid']}\nobject: {p['object']['text']}\n")

    _emit(payload, args.format, render)
    return EXIT_OK


def _audit_one_line(line: str, limits: SolverLimits, limit_n: Optional[int]) -> dict:
    """One graph's audit report.  Any failure is confined to this graph's row:
    a parse error or an unexpected exception becomes an ``error`` row (the
    latter with its traceback on stderr) and a solver limit a ``skipped`` row,
    so the rest of the batch still runs."""
    try:
        g = parse_graph6(line)
        if limit_n is not None and g.n > limit_n:
            return {"graph6": line, "skipped": f"order {g.n} above --limit-n {limit_n}"}
        return bounds_mod.audit(g, limits).to_json_dict()
    except Graph6Error as exc:
        return {"graph6": line, "error": str(exc)}
    except LimitExceeded as exc:
        return {"graph6": line, "skipped": str(exc)}
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return {"graph6": line, "error": f"{type(exc).__name__}: {exc}"}


def _cmd_audit(args) -> int:
    if args.workers < 1:
        raise SpecError("--workers must be positive", 0)
    audit_one = partial(_audit_one_line, limits=_limits(args), limit_n=args.limit_n)
    lines = _read_graph_lines(args)
    violation = failed = False

    def tally(reports):
        nonlocal violation, failed
        for rep in reports:
            violation = violation or not rep.get("pass", True)
            failed = failed or "error" in rep
            yield rep

    def render(rep) -> str:
        if "error" in rep:
            return f"{rep['graph6']}: ERROR {rep['error']}\n"
        if "skipped" in rep:
            return f"{rep['graph6']}: skipped ({rep['skipped']})\n"
        verdict = "pass" if rep["pass"] else "FAIL"
        extra = " (incomplete)" if rep["incomplete"] else ""
        applicable = sum(1 for b in rep["bounds"] if b["applicable"])
        lines_out = [f"{rep['graph6']}: {verdict}{extra} ({applicable} bounds applicable)"]
        for b in rep["bounds"]:
            if b["applicable"] and not b["holds"]:
                lines_out.append(f"  VIOLATED {b['id']}: claimed {b['claimed']}, actual {b['actual']}")
        return "\n".join(lines_out) + "\n"

    # A fork-based pool starts all its workers at the first submit, so never
    # ask for more workers than there are graphs.
    workers = min(args.workers, len(lines))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                _emit_each(tally(pool.map(audit_one, lines)), args.format, render)
            except BaseException:
                # leaving the pool waits for every queued graph unless they
                # are cancelled first, as after a closed stdout
                pool.shutdown(cancel_futures=True)
                raise
    else:
        _emit_each(tally(map(audit_one, lines)), args.format, render)
    if failed:
        return EXIT_IO
    return EXIT_BOUND_VIOLATION if violation else EXIT_OK


def _cmd_ng(args) -> int:
    g = _read_single_graph(args)
    record = bounds_mod.nordhaus_gaddum(g, _limits(args))

    def render(p) -> str:
        lines = [f"n={p['n']}  weak_roman={p['gamma_weak_roman']} secure={p['gamma_secure']}  "
                 f"complement: weak_roman={p['gamma_weak_roman_complement']} secure={p['gamma_secure_complement']}",
                 f"secure sum {p['sum_secure']} <= {p['sum_bound']}; "
                 f"secure product {p['product_secure']} <= {p['product_bound']}"]
        if p["refined_applicable"]:
            lines.append(f"refined bounds apply via {p['refined_via']}: "
                         f"sum <= {p['refined_sum_bound']}, product <= {p['refined_product_bound']}")
        lines.append("all checks pass" if p["pass"] else "CHECK FAILED")
        return "\n".join(lines) + "\n"

    _emit(record, args.format, render)
    return EXIT_OK


def _cmd_conjecture(args) -> int:
    family = {"path": "path_x_k2", "cycle": "cycle_x_k2"}[args.family]
    t_min = bounds_mod.CONJECTURE_T_MIN[family]
    if args.t_max < t_min:
        raise SpecError(f"--t-max must be at least {t_min} for --family {args.family}", 0)
    rows = bounds_mod.conjecture_scan(family, args.t_max, _limits(args))
    payload = {"family": family, "rows": rows}

    def render(p) -> str:
        lines = [f"{'t':>3} {'exact':>6} {'conjectured':>12} match"]
        for r in p["rows"]:
            lines.append(f"{r['t']:>3} {r['exact']:>6} {r['conjectured']:>12} {r['match']}")
        return "\n".join(lines) + "\n"

    _emit(payload, args.format, render)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def _add_io_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="family spec (see grammar in the main help)")
    p.add_argument("--input", help="file of graph6 lines (default: stdin)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--limit-n", type=int, dest="limit_n",
                   help="clamp every solver limit to this order")
    p.add_argument("--seed", type=int, default=0, help="seed for random specs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="domguard", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit family graphs as graph6")
    p_gen.add_argument("specs", nargs="+", help="family specs, one graph6 line each")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(fn=_cmd_gen)

    p_solve = sub.add_parser("solve", help="exact invariant values with witnesses")
    _add_io_options(p_solve)
    p_solve.add_argument("--invariants",
                         help=f"comma list from: {', '.join(INVARIANT_IDS)}, "
                              "or gamma_<k> for k >= 1 "
                              "(default gamma,gamma_weak_roman,gamma_secure)")
    p_solve.set_defaults(fn=_cmd_solve)

    p_verify = sub.add_parser("verify", help="check a guard function or vertex set")
    _add_io_options(p_verify)
    p_verify.add_argument("--class", dest="cls", required=True,
                          choices=("df", "secure", "kdom", "rdf", "wrdf"))
    p_verify.add_argument("--object", required=True,
                          help="guard digits '2,0,1' for rdf/wrdf, indices '0,2' for set classes")
    p_verify.add_argument("--k", type=int, default=2, help="k for the kdom class")
    p_verify.set_defaults(fn=_cmd_verify)

    p_con = sub.add_parser("construct", help="run a constructive bound, print its certificate")
    _add_io_options(p_con)
    p_con.add_argument("--algorithm", required=True, choices=_ALGORITHMS)
    p_con.add_argument("--second", help="family spec of the second factor (product algorithms)")
    p_con.add_argument("--object", help="guard function text for product-lift (on the input) / aaaa (on --second)")
    p_con.set_defaults(fn=_cmd_construct)

    p_audit = sub.add_parser("audit", help="evaluate every applicable bound per graph")
    _add_io_options(p_audit)
    p_audit.add_argument("--workers", type=int, default=1)
    p_audit.set_defaults(fn=_cmd_audit)

    p_ng = sub.add_parser("ng", help="Nordhaus-Gaddum record for one graph")
    _add_io_options(p_ng)
    p_ng.set_defaults(fn=_cmd_ng)

    p_conj = sub.add_parser("conjecture", help="exact prism values versus the conjectured closed form")
    p_conj.add_argument("--family", choices=("path", "cycle"), required=True)
    p_conj.add_argument("--t-max", type=int, dest="t_max", required=True)
    p_conj.add_argument("--format", choices=("text", "json"), default="text")
    p_conj.add_argument("--limit-n", type=int, dest="limit_n")
    p_conj.set_defaults(fn=_cmd_conjecture)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on its first call and kept: building it
    takes about 2 ms and leaves cyclic garbage, and parsing does not change
    it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (Graph6Error, EdgeListError, ProtectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (GraphError, cons.InapplicableError, LimitExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
