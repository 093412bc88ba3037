"""Workload inputs, CLI invocations and the correctness gate.

Inputs are generated here from the seed, independently of the program: the
random graphs, their graph6 encoding and the prism edge lists use no domguard
code, so a change to the program cannot change what it is asked to solve.
The program only ever receives graph6 lines (on stdin) or family specs.
"""

from __future__ import annotations

import heapq
import io
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "fixtures" / "connected_n1_to_7.g6"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("corpus_audit", "random_audit", "prism_solve")

# random_audit: RANDOM_BLOCKS connected graphs per (order, density) cell.
# DEFAULT_SEED is the recorded draw, used when no seed is given; any other
# seed is a held-out draw of the same design.
DEFAULT_SEED = 1
RANDOM_ORDERS = tuple(range(12, 25))
RANDOM_DENSITIES = (0.15, 0.3, 0.5, 0.7)
RANDOM_BLOCKS = 6

# prism_solve: the hard structured graphs, one invariant per invocation so
# that the slowest single solve is visible.
PRISM_SOLVES = (
    ("cycle:12", "complete:2", "gamma_weak_roman"),
    ("cycle:14", "complete:2", "gamma_weak_roman"),
    ("path:5", "path:5", "gamma_weak_roman"),
    ("path:4", "path:6", "gamma_weak_roman"),
    ("path:5", "path:5", "gamma_secure"),
    ("path:4", "path:6", "gamma_secure"),
)
PRISM_CONJECTURES = (("cycle", 14), ("path", 14))


class CheckError(Exception):
    """An output of the program is wrong."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Input generation (no domguard code).
# ---------------------------------------------------------------------------

def random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labelled tree by Pruefer decoding."""
    if n < 3:
        return [(0, 1)] if n == 2 else []
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, w), max(u, w)))
    return edges


def connected_graph_edges(n: int, density: float, rng: random.Random) -> list[tuple[int, int]]:
    """A connected graph with exactly max(n-1, round(density*C(n,2))) edges:
    a random spanning tree plus uniformly chosen extra edges.  Fixing the
    edge count (rather than drawing G(n,p)) keeps the cost of a cell steady
    from one seed to the next."""
    edges = set(random_tree_edges(n, rng))
    target = max(n - 1, round(density * n * (n - 1) / 2))
    rest = [(u, v) for v in range(n) for u in range(v) if (u, v) not in edges]
    edges.update(rng.sample(rest, target - len(edges)))
    return sorted(edges)


def graph6(n: int, edges) -> str:
    """Canonical graph6 line (orders up to 62)."""
    present = set((min(u, v), max(u, v)) for u, v in edges)
    bits = [1 if (u, v) in present else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(63 + n)]
    for i in range(0, len(bits), 6):
        x = 0
        for b in bits[i:i + 6]:
            x = x << 1 | b
        out.append(chr(63 + x))
    return "".join(out)


def family_edges(spec: str) -> tuple[int, list[tuple[int, int]]]:
    name, t = spec.split(":")
    t = int(t)
    if name == "path":
        return t, [(i, i + 1) for i in range(t - 1)]
    if name == "cycle":
        return t, [(i, (i + 1) % t) for i in range(t)]
    if name == "complete":
        return t, [(u, v) for v in range(t) for u in range(v)]
    raise ValueError(f"no generator for {spec!r}")


def product_graph6(left: str, right: str) -> str:
    """graph6 of the Cartesian product, vertex (x, y) numbered x*n(H) + y."""
    ng, eg = family_edges(left)
    nh, eh = family_edges(right)
    edges = [(x * nh + a, x * nh + b) for x in range(ng) for a, b in eh]
    edges += [(x * nh + y, x2 * nh + y) for x, x2 in eg for y in range(nh)]
    return graph6(ng * nh, edges)


def random_audit_lines(seed: int) -> list[str]:
    """Largest orders first: the pool then ends on small, cheap graphs, so
    the pass time does not hinge on which worker draws the last hard one."""
    rng = random.Random(seed)
    lines = []
    for n in sorted(RANDOM_ORDERS, reverse=True):
        for _ in range(RANDOM_BLOCKS):
            for density in RANDOM_DENSITIES:
                lines.append(graph6(n, connected_graph_edges(n, density, rng)))
    return lines


def corpus_lines(seed: int) -> list[str]:
    """The fixed corpus, in a seed-determined order."""
    lines = [ln.strip() for ln in CORPUS.read_text(encoding="ascii").splitlines() if ln.strip()]
    random.Random(seed).shuffle(lines)
    return lines


# ---------------------------------------------------------------------------
# Invocations.
# ---------------------------------------------------------------------------

@dataclass
class Invocation:
    kind: str                      # audit | solve | conjecture
    argv: list[str]
    lines: list[str] = field(default_factory=list)   # audit input, sent on stdin
    expect: dict = field(default_factory=dict)       # what the checker needs


def audit_invocation(lines: list[str], workers: int) -> Invocation:
    return Invocation("audit", ["audit", "--format", "json", "--workers", str(workers)], lines)


def build(workload: str, seed: int, workers: Optional[int] = None) -> list[Invocation]:
    """The invocations of one pass.  ``workers`` overrides the audit pool size
    (the traced run needs a serial pass)."""
    if workload == "corpus_audit":
        return [audit_invocation(corpus_lines(seed), workers or 1)]
    if workload == "random_audit":
        return [audit_invocation(random_audit_lines(seed), workers or 2)]
    if workload == "prism_solve":
        invs = [Invocation("conjecture", ["conjecture", "--family", fam, "--t-max", str(t),
                                          "--format", "json"], expect={"family": fam, "t_max": t})
                for fam, t in PRISM_CONJECTURES]
        for left, right, inv in PRISM_SOLVES:
            invs.append(Invocation("solve", ["solve", "--family", f"prod:{left},{right}",
                                             "--invariants", inv, "--format", "json"],
                                   expect={"instance": f"{left}x{right}", "invariant": inv,
                                           "graph6": product_graph6(left, right)}))
        random.Random(seed).shuffle(invs)
        return invs
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def graphs_of(workload: str, invs: list[Invocation]) -> list[str]:
    """graph6 lines of every graph the pass hands to the program."""
    if workload == "prism_solve":
        return [inv.expect["graph6"] for inv in invs if inv.kind == "solve"]
    return [line for inv in invs for line in inv.lines]


def run_invocation(cli_main, inv: Invocation) -> tuple[int, float, str]:
    """Call domguard.cli.main in-process with stdin/stdout redirected."""
    out = io.StringIO()
    old_in, old_out = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO("".join(line + "\n" for line in inv.lines)), out
    try:
        start = time.perf_counter()
        rc = cli_main(list(inv.argv))
        elapsed = time.perf_counter() - start
    finally:
        sys.stdin, sys.stdout = old_in, old_out
    return rc, elapsed, out.getvalue()


# ---------------------------------------------------------------------------
# Correctness gate.
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    """Counts from one checked pass."""
    operations: int = 0      # graphs audited, solves and conjecture scans run
    failed: int = 0          # operations that errored, were skipped or raised
    rows: int = 0            # bound rows, solve results and conjecture rows attempted
    rows_done: int = 0       # of those, completed (not skipped on a limit, not raised)
    skipped: int = 0         # bound rows skipped on a limit
    inapplicable: int = 0    # bound rows whose hypotheses fail
    nodes: dict = field(default_factory=dict)   # (instance, invariant) -> nodes_explored

    def add(self, other: "Tally") -> None:
        self.operations += other.operations
        self.failed += other.failed
        self.rows += other.rows
        self.rows_done += other.rows_done
        self.skipped += other.skipped
        self.inapplicable += other.inapplicable
        self.nodes.update(other.nodes)


def _skipped_on_limit(row: dict) -> bool:
    return bool(row.get("budget_exceeded")) or str(row.get("reason") or "").startswith("budget")


def check_audit(inv: Invocation, rc: int, out: str, ref: dict) -> Tally:
    require(rc == 0, f"audit exited {rc}")
    reports = json.loads(out)
    require(len(reports) == len(inv.lines),
            f"audit returned {len(reports)} reports for {len(inv.lines)} graphs")
    corpus_ref = ref["corpus"]
    t = Tally()
    ids = None
    for line, rep in zip(inv.lines, reports):
        t.operations += 1
        if "bounds" not in rep:
            t.failed += 1
            continue
        require(rep["graph6"] == line, f"report for {rep['graph6']} where {line} was sent")
        row_ids = [row["id"] for row in rep["bounds"]]
        if ids is None:
            ids = row_ids
        require(row_ids == ids, f"{line}: bound rows differ from the first report")
        n = ord(line[0]) - 63
        require(rep["n"] == n and rep["invariants"].get("n") == n, f"{line}: wrong order")
        skipped = 0
        for row in rep["bounds"]:
            t.rows += 1
            if _skipped_on_limit(row):
                skipped += 1
            elif row["applicable"]:
                require(row["holds"] is True, f"{line}: bound {row['id']} fails: "
                        f"claimed {row['claimed']}, actual {row['actual']}")
            else:
                t.inapplicable += 1
        t.skipped += skipped
        t.rows_done += len(rep["bounds"]) - skipped
        require(rep["pass"] is True, f"{line}: report does not pass")
        require(bool(rep["incomplete"]) == (skipped > 0), f"{line}: wrong incomplete flag")
        pinned = corpus_ref.get(line)
        if pinned is not None:
            for key, value in rep["invariants"].items():
                if key in pinned:
                    require(value == pinned[key], f"{line}: {key} = {value}, reference {pinned[key]}")
    return t


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def closed_form(family: str, t: int) -> int:
    """The conjectured secure domination number of P_t x K_2 / C_t x K_2."""
    if family == "path":
        return _ceil_div(3 * t + 1, 4)
    return _ceil_div(3 * t, 4) + (1 if t % 8 == 4 else 0)


def check_conjecture(inv: Invocation, rc: int, out: str, ref: dict) -> Tally:
    require(rc == 0, f"conjecture exited {rc}")
    fam, t_max = inv.expect["family"], inv.expect["t_max"]
    payload = json.loads(out)
    rows = payload["rows"]
    t_min = 2 if fam == "path" else 3
    require([r["t"] for r in rows] == list(range(t_min, t_max + 1)), f"{fam}: wrong t range")
    pinned = ref["conjecture"][fam]
    for r in rows:
        t = r["t"]
        require(r["conjectured"] == closed_form(fam, t), f"{fam} t={t}: wrong closed form")
        require(r["match"] == (r["exact"] == r["conjectured"]), f"{fam} t={t}: wrong match flag")
        if t >= 4:
            require(r["exact"] == r["conjectured"], f"{fam} t={t}: exact {r['exact']} "
                    f"differs from the closed form {r['conjectured']}")
        if str(t) in pinned:
            require(r["exact"] == pinned[str(t)], f"{fam} t={t}: exact {r['exact']}, "
                    f"reference {pinned[str(t)]}")
    return Tally(operations=1, rows=len(rows), rows_done=len(rows))


def check_solve(inv: Invocation, rc: int, out: str, ref: dict) -> Tally:
    from domguard import oracles
    from domguard.graph import VertexSet
    from domguard.graph6 import parse_graph6
    from domguard.protection import GuardFunction, is_secure_dominating, is_wrdf

    require(rc == 0, f"solve exited {rc}")
    instance, invariant = inv.expect["instance"], inv.expect["invariant"]
    entries = json.loads(out)
    require(len(entries) == 1 and len(entries[0]["results"]) == 1,
            f"{instance}: expected one graph with one result")
    entry, res = entries[0], entries[0]["results"][0]
    require(entry["graph6"] == inv.expect["graph6"], f"{instance}: solved the wrong graph")
    require(res["invariant_id"] == invariant, f"{instance}: wrong invariant in the result")
    if "error" in res:
        return Tally(operations=1, failed=1, rows=1)
    value = res["value"]
    pinned = ref["prism"].get(instance, {}).get(invariant)
    if pinned is not None:
        require(value == pinned["value"], f"{instance} {invariant} = {value}, reference {pinned['value']}")
    g = parse_graph6(entry["graph6"])
    text = res["witness"]["text"]
    if invariant == "gamma_weak_roman":
        f = GuardFunction.from_text(g, text)
        require(f.weight() == value, f"{instance}: witness weight {f.weight()} != value {value}")
        require(is_wrdf(g, f) and oracles.naive_is_wrdf(g, f.values),
                f"{instance}: witness is not a weak Roman dominating function")
    else:
        s = VertexSet.from_text(text, g.n)
        require(len(s) == value, f"{instance}: witness size {len(s)} != value {value}")
        require(is_secure_dominating(g, s) and oracles.naive_is_secure(g, set(s)),
                f"{instance}: witness is not a secure dominating set")
    return Tally(operations=1, rows=1, rows_done=1,
                 nodes={(instance, invariant): res["nodes_explored"]})


CHECKS = {"audit": check_audit, "solve": check_solve, "conjecture": check_conjecture}


def check_pass(invs: list[Invocation], results: list[tuple[int, float, str]], ref: dict) -> Tally:
    total = Tally()
    for inv, (rc, _, out) in zip(invs, results):
        total.add(CHECKS[inv.kind](inv, rc, out, ref))
    return total


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())
