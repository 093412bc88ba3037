#!/usr/bin/env python3
"""Compare two ``solver_snapshot.py`` outputs (development tool).

    python3 scripts/snapshot_diff.py before.jsonl after.jsonl

Pairs the lines of the two snapshots in order and reports how many differ,
how many of those differ beyond ``nodes_explored``, the ``nodes_explored``
totals of each side, and how many counts rose and fell, with the largest
changes.  A search change that keeps every value and witness differs only
in ``nodes_explored``.  Exits 1 when some line differs beyond it, or when
one snapshot has lines the other lacks, and 0 otherwise.

Both snapshots should come from one copy of ``solver_snapshot.py``, run
once per tree with ``PYTHONPATH`` set to that tree's ``src``: a copy with
more solves, such as a longer ``frontier`` set, writes more lines, and the
extra lines read as a difference.
"""

import json
import sys

SHOWN = 5  # the largest rises and falls printed


def nodes(line: dict):
    """The line's ``nodes_explored``, or None for an audit or limit line."""
    result = line.get("result")
    return result.get("nodes_explored") if isinstance(result, dict) else None


def without_nodes(line: dict) -> dict:
    line = dict(line)
    if nodes(line) is not None:
        line["result"] = {k: v for k, v in line["result"].items() if k != "nodes_explored"}
    return line


def label(line: dict) -> str:
    return " ".join(str(line[k]) for k in ("set", "graph6", "invariant", "via") if k in line)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: snapshot_diff.py before.jsonl after.jsonl\n")
        return 2
    sides = []
    for name in argv:
        with open(name, encoding="utf-8") as f:
            sides.append([json.loads(text) for text in f if text.strip()])
    before, after = sides
    differ, beyond, totals = 0, [], [0, 0]
    changes = []  # (after - before, before, after, label)
    for old, new in zip(before, after):
        a, b = nodes(old), nodes(new)
        totals[0] += a or 0
        totals[1] += b or 0
        if old == new:
            continue
        differ += 1
        if without_nodes(old) != without_nodes(new):
            beyond.append(label(new))
        elif a != b:
            changes.append((b - a, a, b, label(new)))
    print(f"lines: {len(before)} before, {len(after)} after")
    print(f"differ: {differ}, beyond nodes_explored: {len(beyond)}")
    for text in beyond[:SHOWN]:
        print(f"  {text}")
    change = totals[1] - totals[0]
    share = f" ({change / totals[0]:+.1%})" if totals[0] else ""
    print(f"nodes_explored total: {totals[0]} -> {totals[1]}{share}")
    rose = sorted((c for c in changes if c[0] > 0), reverse=True)
    fell = sorted(c for c in changes if c[0] < 0)
    for name, rows in (("rose", rose), ("fell", fell)):
        print(f"{name}: {len(rows)}")
        for _, a, b, text in rows[:SHOWN]:
            print(f"  {a} -> {b}  {text}")
    if len(before) != len(after):
        print(f"unpaired: {abs(len(before) - len(after))} lines at the end of the longer file")
    return 1 if beyond or len(before) != len(after) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
