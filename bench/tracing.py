"""Spans around the public functions of each domguard module, and the
per-layer metrics derived from them.

The tracer wraps functions from the benchmark's side: it replaces every
reference to a target function inside the loaded ``domguard`` modules (and
in dispatch dicts held by their classes) with a wrapper that records a span,
and puts the originals back afterwards.  The program itself is not edited.
Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import math
import random
import sys
import time
from pathlib import Path


# (layer, module, function); solver spans are named by invariant id.
TARGETS = (
    ("graph6", "domguard.graph6", "parse_graph6"),
    ("graph6", "domguard.graph6", "write_graph6"),
    ("graph", "domguard.graph", "complement"),
    ("graph", "domguard.graph", "cartesian_product"),
    ("graph", "domguard.graph", "has_hamiltonian_cycle"),
    ("solvers", "domguard.solvers", "gamma"),
    ("solvers", "domguard.solvers", "gamma_k"),
    ("solvers", "domguard.solvers", "gamma_roman"),
    ("solvers", "domguard.solvers", "gamma_weak_roman"),
    ("solvers", "domguard.solvers", "gamma_secure"),
    ("solvers", "domguard.solvers", "matching_number"),
    ("solvers", "domguard.solvers", "two_packing"),
    ("solvers", "domguard.solvers", "chromatic_number"),
    ("solvers", "domguard.solvers", "clique_cover"),
    ("solvers", "domguard.solvers", "tau"),
    ("solvers", "domguard.solvers", "enumerate_gamma_sets"),
    ("bounds", "domguard.bounds", "audit"),
    ("bounds", "domguard.bounds", "conjecture_scan"),
    ("cli", "domguard.cli", "_emit"),
)
LAYERS = ("graph6", "graph", "solvers", "bounds", "cli")
SOLVER_IDS = ("gamma", "gamma_2", "gamma_roman", "gamma_weak_roman", "gamma_secure",
              "matching", "two_packing", "chromatic", "clique_cover", "tau")
_SOLVER_NAMES = {"matching_number": "matching", "chromatic_number": "chromatic"}


def _namespaces() -> list[dict]:
    """Module dicts of domguard, plus dict attributes of its classes (dispatch
    tables such as the audit's solver table hold direct references)."""
    out = []
    for name, module in list(sys.modules.items()):
        if name == "domguard" or name.startswith("domguard."):
            out.append(module.__dict__)
            for value in list(module.__dict__.values()):
                if isinstance(value, type) and value.__module__ == name:
                    out += [v for v in vars(value).values() if isinstance(v, dict)]
    return out


def _span_name(layer: str, fname: str, args, kwargs) -> str:
    if layer != "solvers":
        return f"{layer}.{fname}"
    if fname == "gamma_k":
        return f"solvers.gamma_{kwargs.get('k', args[1] if len(args) > 1 else '?')}"
    return f"solvers.{_SOLVER_NAMES.get(fname, fname)}"


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str, layer: str) -> dict:
        span = {"id": len(self.spans), "name": name, "layer": layer,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        span = self.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            self.close(span)
        nodes = getattr(result, "nodes_explored", None)
        if nodes is not None:
            span["nodes"] = nodes
        elif isinstance(result, list):
            span["items"] = len(result)
        return result

    def _wrap(self, layer: str, fname: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(_span_name(layer, fname, args, kwargs), layer, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Swap every reference to a target for its traced wrapper."""
        swaps = {}
        for layer, module, fname in TARGETS:
            fn = getattr(sys.modules.get(module), fname, None)
            if fn is not None:
                swaps[id(fn)] = (fn, self._wrap(layer, fname, fn))
        for container in _namespaces():
            for key, value in list(container.items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((container, key, value))
                    container[key] = hit[1]

    def uninstall(self) -> None:
        for container, key, value in reversed(self._restore):
            container[key] = value
        self._restore.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans))


# ---------------------------------------------------------------------------
# Metrics from spans.
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    values = sorted(values)
    return values[max(0, math.ceil(q * len(values)) - 1)]


def span_metrics(spans: list[dict], untraced_s: float) -> dict:
    """Per-layer metrics of a traced run.

    Root spans named ``cli.main`` are the traced pass; every other root is a
    probe the benchmark ran directly.  Layer self time and coverage use the
    traced pass only."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    by_id = {s["id"]: s for s in spans}
    root_of = {}
    for s in spans:
        p = s
        while p["parent"] is not None:
            p = by_id[p["parent"]]
        root_of[s["id"]] = p
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[s["id"]]

    def total(name):
        return sum(dur[s["id"]] for s in spans if s["name"] == name)

    m = {
        "graph6.parse_s": total("graph6.parse_graph6"),
        "graph6.write_s": total("graph6.write_graph6"),
        "graph.complement_s": total("graph.complement"),
        "graph.product_s": total("graph.cartesian_product"),
        "graph.hamiltonian_s": total("graph.has_hamiltonian_cycle"),
    }
    for sid in SOLVER_IDS + ("enumerate_gamma_sets",):
        mine = [s for s in spans if s["name"] == f"solvers.{sid}"]
        m[f"solvers.{sid}.s"] = sum(dur[s["id"]] for s in mine)
        if sid == "enumerate_gamma_sets":
            m["solvers.enumerate_gamma_sets.sets"] = sum(s.get("items", 0) for s in mine)
        else:
            m[f"solvers.{sid}.nodes"] = sum(s.get("nodes", 0) for s in mine)
            m[f"solvers.{sid}.skipped"] = sum(s.get("error") == "LimitExceeded" for s in mine)

    audits = [s for s in spans if s["name"] == "bounds.audit"]
    audit_ms = [dur[s["id"]] * 1e3 for s in audits]
    # derived: audit time minus the solver time spent under the same audits
    solver_under_audit = 0.0
    for s in spans:
        if s["layer"] != "solvers":
            continue
        p = s["parent"]
        while p is not None and by_id[p]["layer"] not in ("solvers", "bounds"):
            p = by_id[p]["parent"]
        if p is not None and by_id[p]["name"] == "bounds.audit":
            solver_under_audit += dur[s["id"]]
    m.update({
        "bounds.audit.s": sum(audit_ms) / 1e3,
        "bounds.audit.ms_p50": percentile(audit_ms, 0.5) if audits else 0.0,
        "bounds.audit.ms_p99": percentile(audit_ms, 0.99) if audits else 0.0,
        "bounds.audit.samples": len(audits),
        "bounds.eval_s": sum(audit_ms) / 1e3 - solver_under_audit,
        "bounds.conjecture_scan.s": total("bounds.conjecture_scan"),
        "cli.json_s": total("cli._emit"),
    })

    in_pass = [s for s in spans if root_of[s["id"]]["name"] == "cli.main"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(dur[s["id"]] - child_time[s["id"]]
                                   for s in in_pass if s["layer"] == layer)
    traced_s = sum(dur[s["id"]] for s in in_pass if s["parent"] is None)
    below_root = sum(dur[s["id"]] - child_time[s["id"]] for s in in_pass if s["parent"] is not None)
    m["trace.coverage"] = below_root / untraced_s
    m["trace.overhead"] = traced_s / untraced_s - 1.0
    m["trace.spans"] = len(spans)
    return m


# ---------------------------------------------------------------------------
# Kernel probe.
# ---------------------------------------------------------------------------

def kernel_ns_per_call(graphs6: list[str], seed: int, budget_s: float = 0.25) -> dict:
    """ns per call of each protection kernel on a seeded sample of dominating
    supports (with a two-guard subset) over the given graphs."""
    from domguard import protection
    from domguard.graph6 import parse_graph6

    rng = random.Random(seed)
    sample = []
    for line in graphs6:
        g = parse_graph6(line)
        n, closed, full = g.n, g.closed, g.full_mask
        found = 0
        while found < 200:
            k = rng.randint(n // 4, n // 2)
            support = sum(1 << v for v in rng.sample(range(n), k))
            cover = 0
            for v in range(n):
                if support >> v & 1:
                    cover |= closed[v]
            if cover != full:
                continue
            members = [v for v in range(n) if support >> v & 1]
            twos = sum(1 << v for v in rng.sample(members, k // 3))
            sample.append((g, support, twos))
            found += 1
    calls = {
        "coverage_mask": (protection.coverage_mask, [(g, s) for g, s, _ in sample]),
        "wrdf_mask": (protection.wrdf_mask, sample),
        "secure_mask": (protection.secure_mask, [(g, s) for g, s, _ in sample]),
        "kdom_mask": (protection.kdom_mask, [(g, s, 2) for g, s, _ in sample]),
    }
    out = {}
    for name, (kernel, arglist) in calls.items():
        done, start = 0, time.perf_counter_ns()
        while True:
            for a in arglist:
                kernel(*a)
            done += len(arglist)
            elapsed = time.perf_counter_ns() - start
            if elapsed >= budget_s * 1e9:
                break
        out[f"protection.{name}.ns_per_call"] = elapsed / done
    return out
