#!/usr/bin/env python3
"""Snapshot every solver's result on the usual comparison graphs (development tool).

Writes one JSON line per (graph, invariant) pair for every entry of
``solvers.INVARIANT_IDS``, and for ``gamma_3`` on the sets named in
``GAMMA_3_SETS``: the ``SolveResult.to_json_dict()`` under the default
limits, or the ``LimitExceeded`` message when the order is over a cap.  Two
snapshots of different trees then compare line by line:

    PYTHONPATH=src python3 scripts/solver_snapshot.py > after.jsonl
    PYTHONPATH=/path/to/other/src python3 scripts/solver_snapshot.py > before.jsonl
    python3 scripts/snapshot_diff.py before.jsonl after.jsonl

Both snapshots of a diff must come from one copy of this script, as above:
the graph sets change between versions of it, and lines that one copy
writes and the other does not would show up as differences.

Each graph then gets one line, marked ``"via": "InvariantCache"``, for
each of ``gamma_weak_roman`` and ``gamma_secure`` as ``bounds.InvariantCache``
computes them in the graph's own labels, and one line marked
``"via": "audit"`` holding ``audit(g).to_json_dict()``, whose values are
solved in bandwidth order.  So the diff also covers the audit's route.

A change that reshapes a search but keeps its answers shows up as lines
that differ in ``nodes_explored`` only.  The graph sets, in output order:

  all6      every graph on 1..6 vertices (tests/fixtures, 208 graphs)
  corpus7   every connected graph on 1..7 vertices (tests/fixtures, 996 graphs)
  random    the random_audit graphs of bench/workloads.py for its default
            seed (312 graphs), each followed by its complement
  prisms    C12xK2, C14xK2, P5xP5 and P4xP6

Last come single solves on large symmetric graphs, one line each, which the
sets above barely reach: ``gamma_secure`` of the prism conjecture scan's
graphs, C_t x K2 for t = 3..14 and P_t x K2 for t = 2..14 (set
``conjecture``), then the set ``frontier``: ``gamma_weak_roman`` and
``gamma_secure`` of C16xK2 and of the hypercube Q5 under raised order caps,
``gamma``, ``gamma_2``, ``gamma_weak_roman`` and ``gamma_secure`` of K4xK4,
and ``gamma``, ``gamma_weak_roman`` and ``gamma_secure`` of the complement
of C12xK2 in its own bandwidth order.  Q5 (3,840 automorphisms) and K4xK4
(1,152) have more automorphisms than ``graph.automorphisms`` lists by
default (4n), so the symmetry cut there uses only part of the group, and
the diff covers that case too.  The complement of C12xK2 holds more than
half of the possible edges and has 48 automorphisms (at most 4n), so the
diff covers the search tables' dense side, where the group is searched on
the complement.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, so another tree's src can win

from bench.workloads import DEFAULT_SEED, random_audit_lines  # noqa: E402
from domguard.bounds import InvariantCache, audit  # noqa: E402
from domguard.graph import (bandwidth_order, cartesian_product, complement,  # noqa: E402
                            complete, cycle, hamming, hypercube, path, relabel)
from domguard.graph6 import parse_graph6, write_graph6  # noqa: E402
from domguard.solvers import INVARIANT_IDS, LimitExceeded, SolverLimits, solve  # noqa: E402

SETS = ("all6", "corpus7", "random", "prisms")
# gamma_3 is in no audit row; these sets also check its search's witnesses.
GAMMA_3_SETS = ("all6", "corpus7", "random")
CACHED = ("gamma_weak_roman", "gamma_secure")
FIXTURES = ROOT / "tests" / "fixtures"


def graphs(name: str):
    if name in ("all6", "corpus7"):
        fixture = "all_graphs_n1_to_6.g6" if name == "all6" else "connected_n1_to_7.g6"
        for line in (FIXTURES / fixture).read_text(encoding="ascii").split():
            yield parse_graph6(line)
    elif name == "random":
        for line in random_audit_lines(DEFAULT_SEED):
            g = parse_graph6(line)
            yield g
            yield complement(g)
    else:
        yield cartesian_product(cycle(12), complete(2))
        yield cartesian_product(cycle(14), complete(2))
        yield cartesian_product(path(5), path(5))
        yield cartesian_product(path(4), path(6))


def symmetric_solves():
    """(set, graph, invariant, limits) of the single solves that come last."""
    for t in range(3, 15):
        yield "conjecture", cartesian_product(cycle(t), complete(2)), "gamma_secure", None
    for t in range(2, 15):
        yield "conjecture", cartesian_product(path(t), complete(2)), "gamma_secure", None
    for g in (cartesian_product(cycle(16), complete(2)), hypercube(5)):
        yield "frontier", g, "gamma_weak_roman", SolverLimits(weak_roman_max_n=32)
        yield "frontier", g, "gamma_secure", SolverLimits(secure_max_n=32)
    for inv in ("gamma", "gamma_2", "gamma_weak_roman", "gamma_secure"):
        yield "frontier", hamming(2, 4), inv, None
    dense = complement(cartesian_product(cycle(12), complete(2)))
    dense = relabel(dense, bandwidth_order(dense))
    for inv in ("gamma", "gamma_weak_roman", "gamma_secure"):
        yield "frontier", dense, inv, None


def emit(line: dict, compute) -> None:
    try:
        line["result"] = compute().to_json_dict()
    except LimitExceeded as exc:
        line["limit"] = str(exc)
    sys.stdout.write(json.dumps(line, sort_keys=True) + "\n")


def main() -> None:
    for name in SETS:
        for g in graphs(name):
            g6 = write_graph6(g)
            for inv in INVARIANT_IDS + (("gamma_3",) if name in GAMMA_3_SETS else ()):
                emit({"set": name, "graph6": g6, "invariant": inv}, lambda: solve(g, inv))
            cache = InvariantCache(g)
            for inv in CACHED:
                emit({"set": name, "graph6": g6, "invariant": inv, "via": "InvariantCache"},
                     lambda: cache.result(inv))
            emit({"set": name, "graph6": g6, "via": "audit"}, lambda: audit(g))
    for name, g, inv, limits in symmetric_solves():
        emit({"set": name, "graph6": write_graph6(g), "invariant": inv},
             lambda: solve(g, inv, limits))


if __name__ == "__main__":
    main()
