"""Regenerate bench/reference.json, the pinned values the correctness gate
compares against.

    python3 bench/make_reference.py

* corpus: every invariant of every graph in the corpus fixture, computed by
  the naive brute-force oracles and cross-checked against the exact solvers;
* prism: value and nodes_explored of each prism_solve instance, as the exact
  solvers give them (every run re-verifies the witnesses);
* conjecture: the exact secure domination numbers the prism scan reports.

Run it only when a value is known to be wrong; a faster search changes node
counts, which the benchmark reports as drift without failing.
"""

from __future__ import annotations

import json
import sys

from workloads import (CORPUS, PRISM_CONJECTURES, PRISM_SOLVES, REFERENCE, ROOT,
                       closed_form)

sys.path.insert(0, str(ROOT / "src"))

from domguard import oracles, solvers  # noqa: E402
from domguard.bounds import conjecture_scan  # noqa: E402
from domguard.cli import parse_family_spec  # noqa: E402
from domguard.graph6 import parse_graph6  # noqa: E402

ORACLES = {
    "gamma": lambda g: oracles.brute_gamma(g)[0],
    "gamma_2": lambda g: oracles.brute_gamma_k(g, 2)[0],
    "gamma_roman": lambda g: oracles.brute_gamma_roman(g)[0],
    "gamma_weak_roman": lambda g: oracles.brute_gamma_weak_roman(g)[0],
    "gamma_secure": lambda g: oracles.brute_gamma_secure(g)[0],
    "matching": lambda g: oracles.brute_matching(g)[0],
    "two_packing": lambda g: oracles.brute_two_packing(g)[0],
    "chromatic": oracles.brute_chromatic,
    "clique_cover": oracles.brute_clique_cover,
    "tau": lambda g: oracles.brute_tau(g)[0],
}


def corpus_reference() -> dict:
    out = {}
    for line in CORPUS.read_text(encoding="ascii").split():
        g = parse_graph6(line)
        values = {}
        for inv, oracle in ORACLES.items():
            value = oracle(g)
            solved = solvers.solve(g, inv).value
            if value != solved:
                raise SystemExit(f"{line}: {inv} oracle {value} != solver {solved}")
            values[inv] = value
        out[line] = values
    return out


def prism_reference() -> dict:
    out: dict = {}
    for left, right, inv in PRISM_SOLVES:
        res = solvers.solve(parse_family_spec(f"prod:{left},{right}"), inv)
        out.setdefault(f"{left}x{right}", {})[inv] = {"value": res.value,
                                                      "nodes": res.nodes_explored}
    return out


def conjecture_reference() -> dict:
    out = {}
    for fam, t_max in PRISM_CONJECTURES:
        rows = conjecture_scan(f"{fam}_x_k2", t_max)
        for r in rows:
            if r["t"] >= 4 and r["exact"] != closed_form(fam, r["t"]):
                raise SystemExit(f"{fam} t={r['t']}: exact {r['exact']} != closed form")
        out[fam] = {str(r["t"]): r["exact"] for r in rows}
    return out


def main() -> None:
    ref = {"corpus": corpus_reference(), "prism": prism_reference(),
           "conjecture": conjecture_reference()}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}: {len(ref['corpus'])} corpus graphs")


if __name__ == "__main__":
    main()
