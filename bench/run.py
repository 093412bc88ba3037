"""domguard benchmark.

    python3 bench/run.py --workload {corpus_audit,random_audit,prism_solve}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/`` and driven in-process through ``domguard.cli.main``.  Every pass is
checked (see workloads.py).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing off;
with ``--trace 1`` they are the per-layer ones of a separate traced run,
whose spans are written to ``bench/traces/``.  README.md defines each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from workloads import (CORPUS, DEFAULT_SEED, ROOT, WORKLOADS, CheckError, build,
                       check_pass, graphs_of, load_reference, require, run_invocation)

SRC = ROOT / "src"
TRACES = ROOT / "bench" / "traces"
SETUP_FIRST = 8
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import domguard; "
                  "print(repr(time.perf_counter() - t))")


def import_seconds() -> float:
    """Time to import domguard (building the bound registry) in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_pass(cli_main, invs):
    return [run_invocation(cli_main, inv) for inv in invs]


def report_node_drift(tally, ref) -> int:
    """Compare solver node counts with the pinned ones; drift is reported,
    not failed, because a faster search legitimately changes them."""
    drift = 0
    for (instance, invariant), nodes in sorted(tally.nodes.items()):
        pinned = ref["prism"].get(instance, {}).get(invariant, {}).get("nodes")
        if pinned is not None and pinned != nodes:
            drift += 1
            print(f"note: {instance} {invariant} explored {nodes} nodes, pinned {pinned}",
                  file=sys.stderr)
    return drift


def timed_run(workload: str, seed: int, seconds: float, cli_main, ref: dict) -> dict:
    # set-up is sampled at the start and again before every pass, so that its
    # median spans the same stretch of machine time as the passes
    setup = [import_seconds() for _ in range(SETUP_FIRST)]
    invs = build(workload, seed)
    inv_s = [[] for _ in invs]
    operations = failed = 0
    first = tally = None
    deadline = time.perf_counter() + seconds
    while True:
        setup.append(import_seconds())
        results = run_pass(cli_main, invs)
        outputs = [(rc, out) for rc, _, out in results]
        if first is None:
            tally = check_pass(invs, results, ref)
            first = outputs
        else:
            # identical output, node counts included, to the fully checked pass
            require(outputs == first, "output differs from the first pass")
        for samples, (_, t, _) in zip(inv_s, results):
            samples.append(t)
        operations += tally.operations
        failed += tally.failed
        if time.perf_counter() >= deadline:
            break
    report_node_drift(tally, ref)
    # a slow stretch of machine time hits different invocations in different
    # passes; per-invocation medians discard it where a median of pass sums
    # would not
    medians = [statistics.median(samples) for samples in inv_s]
    wall = sum(medians)
    print(f"{workload}: {len(inv_s[0])} passes, pass seconds "
          f"{[round(sum(p), 3) for p in zip(*inv_s)]}", file=sys.stderr)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "rows_per_s": tally.rows_done / wall,
        "completed_share": tally.rows_done / tally.rows,
        "hardest_solve_s": max(medians),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {"attempted": operations, "failed": failed, "metrics": metrics}


def traced_run(workload: str, seed: int, cli_main, ref: dict) -> dict:
    from domguard import solvers
    from domguard.graph6 import parse_graph6
    from tracing import Tracer, kernel_ns_per_call, span_metrics

    serial = build(workload, seed, workers=1)
    graphs = [parse_graph6(line) for line in graphs_of(workload, serial)]

    # untraced passes before and after the traced one: the machine slows
    # under sustained load, and their mean brackets the traced pass
    before = run_pass(cli_main, serial)
    tally = check_pass(serial, before, ref)
    tracer = Tracer(workload)
    tracer.install()
    try:
        traced = []
        for inv in serial:
            root = tracer.open("cli.main", "cli")
            traced.append(run_invocation(cli_main, inv))
            tracer.close(root)
        # a public solver no command reaches, timed directly on the inputs
        root = tracer.open("bench.probe", "bench")
        for g in graphs:
            try:
                solvers.enumerate_gamma_sets(g)
            except solvers.LimitExceeded:
                pass
        tracer.close(root)
    finally:
        tracer.uninstall()
    after = run_pass(cli_main, serial)
    untraced = [(rc, out) for rc, _, out in before]
    for other, what in ((traced, "traced"), (after, "second untraced")):
        require([(rc, out) for rc, _, out in other] == untraced,
                f"{what} output differs from the first untraced output")
    untraced_s = (sum(t for _, t, _ in before) + sum(t for _, t, _ in after)) / 2

    serial_s = pool_s = 0.0
    if serial[0].kind == "audit":
        pooled = build(workload, seed, workers=2)
        results = run_pass(cli_main, pooled)
        require([(rc, out) for rc, _, out in results] == untraced,
                "--workers 2 output differs from --workers 1 output")
        serial_s, pool_s = untraced_s, sum(t for _, t, _ in results)

    m = span_metrics(tracer.spans, untraced_s)
    m.update(kernel_ns_per_call(graphs_of("prism_solve", build("prism_solve", seed)), seed))
    m.update({
        "bounds.rows": tally.rows if serial[0].kind == "audit" else 0,
        "bounds.rows_skipped": tally.skipped,
        "bounds.rows_inapplicable": tally.inapplicable,
        "cli.output_bytes": sum(len(out) for _, out in untraced),
        "cli.serial_s": serial_s,
        "cli.pool_s": pool_s,
        "solvers.pinned_nodes_drift": report_node_drift(tally, ref),
    })
    tracer.write(TRACES / f"{workload}-seed{seed}.json")
    return {"attempted": tally.operations, "failed": tally.failed, "metrics": m}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "domguard" / "cli.py").is_file() or not CORPUS.is_file():
        print(f"error: {ROOT} is not a domguard source checkout "
              f"(need src/domguard and {CORPUS.relative_to(ROOT)})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from domguard.cli import main as cli_main

    ref = load_reference()
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, cli_main, ref)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, cli_main, ref)
        correct = True
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result, correct = {"attempted": 1, "failed": 1, "metrics": {}}, False
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if correct and set(result["metrics"]) != set(units):
        raise RuntimeError(f"metrics do not match BENCHMARK.json: "
                           f"{sorted(set(result['metrics']) ^ set(units))}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
