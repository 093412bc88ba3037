"""Machine-checkable bound registry, per-graph audit engine, closed-form family
values, Nordhaus-Gaddum records and the prism conjecture scanner.

Every inequality and equality the solvers can decide is a BoundSpec with an
explicit applicability predicate; ``audit`` evaluates all graph-scope entries
against exact invariant values and reports per-bound pass/fail with slack.
Pair-scope entries (Cartesian-product bounds) are driven by ``product_audit``.
A failed applicable bound is a build-failing event, surfaced via the report's
``passed`` flag and the CLI exit code.

``audit`` and ``nordhaus_gaddum`` solve a graph, and its complement, in
bandwidth order (``graph.bandwidth_order``): they report values only, and
values do not depend on labels, while the lex search cuts more when
neighbors sit close together.  The report still names the input graph.
``product_audit`` keeps the input's labels, so its witnesses are the
canonical ones that ``solve`` returns.  The clique cover number is solved
under its own name; the Nordhaus-Gaddum chromatic rows read it as the
chromatic number of the complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from .graph import (HAMILTONIAN_SEARCH_CAP, Graph, bandwidth_order, component_is_complete,
                    complement, has_hamiltonian_cycle, is_connected, is_cycle_graph, iter_bits,
                    leaf_count, max_degree, min_degree, relabel)
from .graph6 import write_graph6
from .solvers import (DEFAULT_LIMITS, LimitExceeded, SolveResult, SolverLimits, gamma_secure,
                      solve)


class InvariantCache:
    """Lazily computed exact invariants for one graph under a solver budget;
    each invariant is solved at most once and its whole result is kept, and
    each structural fact is computed once.

    The cache keeps the labels of ``graph``, the graph it is given, so its
    witnesses are those of ``graph``.  Its complement cache holds the
    complement in bandwidth order, and no witness passes between the two."""

    def __init__(self, g: Graph, limits: Optional[SolverLimits] = None):
        self.graph = g
        self.limits = limits or DEFAULT_LIMITS
        self._results: dict[str, SolveResult] = {}
        self._complement: Optional["InvariantCache"] = None

    def result(self, key: str) -> SolveResult:
        if key not in self._results:
            if key == "gamma_secure":
                # γ_s ≥ γ_wr: the secure search starts from the weak Roman
                # result, or from size 0 when that is over its cap.
                try:
                    weak_roman = self.result("gamma_weak_roman")
                except LimitExceeded:
                    weak_roman = None
                res = gamma_secure(self.graph, self.limits, weak_roman)
            else:
                res = solve(self.graph, key, self.limits)
            self._results[key] = res
        return self._results[key]

    def value(self, key: str) -> int:
        return self.result(key).value

    def computed_values(self) -> dict[str, int]:
        return {key: res.value for key, res in self._results.items()}

    @cached_property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def connected(self) -> bool:
        return is_connected(self.graph)

    @cached_property
    def no_isolated_vertex(self) -> bool:
        return self.n == 0 or self.min_degree >= 1

    @cached_property
    def has_complete_component(self) -> bool:
        return component_is_complete(self.graph)

    @cached_property
    def is_five_cycle(self) -> bool:
        return self.n == 5 and is_cycle_graph(self.graph)

    @cached_property
    def has_two_vertex_component(self) -> bool:
        g = self.graph
        for v in range(g.n):
            if g.degree(v) == 1:
                u = next(g.neighbors(v))
                if g.degree(u) == 1:
                    return True
        return False

    @cached_property
    def min_degree(self) -> int:
        return min_degree(self.graph)

    @cached_property
    def max_degree(self) -> int:
        return max_degree(self.graph)

    @cached_property
    def leaf_count(self) -> int:
        return leaf_count(self.graph)

    @cached_property
    def refined_ng_side(self) -> Optional[str]:
        """Which of the graph / its complement satisfies the refined
        Nordhaus-Gaddum hypotheses."""
        def side_ok(s: InvariantCache) -> bool:
            return (s.connected and not s.is_five_cycle and s.min_degree >= 2
                    and s.max_degree <= s.n - 3)
        g_ok = side_ok(self)
        co_ok = side_ok(self.co())
        if g_ok and co_ok:
            return "both"
        if g_ok:
            return "graph"
        if co_ok:
            return "complement"
        return None

    def co(self) -> "InvariantCache":
        if self._complement is None:
            self._complement = InvariantCache(_banded(complement(self.graph)), self.limits)
        return self._complement


def _banded(g: Graph) -> Graph:
    """g relabelled in bandwidth order, where the lex search cuts more."""
    return relabel(g, bandwidth_order(g))


class Inapplicable(Exception):
    """Internal signal: a bound's hypotheses fail for this graph."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class BoundSpec:
    """One registered inequality/equality with its applicability guard.

    ``claimed`` and ``actual`` receive an InvariantCache (a pair dict for
    pair-scope entries) and may raise Inapplicable (hypotheses fail) or
    LimitExceeded (budget).  Semantics per kind:
    upper: actual <= claimed, lower: actual >= claimed, equality: actual == claimed.
    """
    id: str
    kind: str
    target: str
    scope: str
    statement: str
    claimed: Callable = field(compare=False, repr=False)
    actual: Callable = field(compare=False, repr=False)
    note: Callable = field(compare=False, repr=False, default=lambda cache: None)


@dataclass
class BoundRow:
    id: str
    applicable: bool
    claimed: Optional[float] = None
    actual: Optional[float] = None
    holds: Optional[bool] = None
    slack: Optional[float] = None
    reason: Optional[str] = None
    budget_exceeded: bool = False

    def to_json_dict(self) -> dict:
        return {"id": self.id, "applicable": self.applicable, "claimed": self.claimed,
                "actual": self.actual, "holds": self.holds, "slack": self.slack,
                "reason": self.reason}


@dataclass
class BoundReport:
    graph6: str
    n: int
    invariants: dict
    bounds: list[BoundRow]
    conjectures: list = field(default_factory=list)
    incomplete: bool = False

    @property
    def passed(self) -> bool:
        return all(row.holds for row in self.bounds if row.applicable)

    def failures(self) -> list[BoundRow]:
        return [row for row in self.bounds if row.applicable and not row.holds]

    def to_json_dict(self) -> dict:
        return {"graph6": self.graph6, "n": self.n, "invariants": self.invariants,
                "bounds": [r.to_json_dict() for r in self.bounds],
                "conjectures": self.conjectures, "incomplete": self.incomplete,
                "pass": self.passed}


# ---------------------------------------------------------------------------
# Registry.  Helper guards raise Inapplicable with the failing hypothesis.
# ---------------------------------------------------------------------------

def _need(cond: bool, reason: str) -> None:
    if not cond:
        raise Inapplicable(reason)


def _no_complete_component(c: InvariantCache) -> None:
    _need(not c.has_complete_component, "a component is a complete graph")


def _connected_nontrivial(c: InvariantCache) -> None:
    _need(c.n >= 2, "order below 2")
    _need(c.connected, "graph is disconnected")


def _make_registry() -> tuple[BoundSpec, ...]:
    specs: list[BoundSpec] = []

    def add(id, kind, target, statement, claimed, actual, scope="graph", note=None):
        specs.append(BoundSpec(id, kind, target, scope, statement, claimed, actual,
                               note or (lambda c: None)))

    # --- basic chains -----------------------------------------------------
    add("chain_gamma_le_weak_roman", "lower", "gamma_weak_roman",
        "weak Roman domination is at least plain domination",
        lambda c: c.value("gamma"), lambda c: c.value("gamma_weak_roman"))
    add("chain_weak_roman_le_roman", "upper", "gamma_weak_roman",
        "weak Roman domination is at most Roman domination",
        lambda c: c.value("gamma_roman"), lambda c: c.value("gamma_weak_roman"))
    add("chain_roman_le_two_gamma", "upper", "gamma_roman",
        "Roman domination is at most twice domination",
        lambda c: 2 * c.value("gamma"), lambda c: c.value("gamma_roman"))
    add("chain_weak_roman_le_secure", "upper", "gamma_weak_roman",
        "weak Roman domination is at most secure domination",
        lambda c: c.value("gamma_secure"), lambda c: c.value("gamma_weak_roman"))
    add("equal_weak_roman_gamma_iff_secure_gamma", "equality", "gamma_weak_roman",
        "weak Roman equals domination exactly when secure equals domination",
        lambda c: int(c.value("gamma_weak_roman") == c.value("gamma")),
        lambda c: int(c.value("gamma_secure") == c.value("gamma")))

    # --- order-based secure bounds ---------------------------------------
    def _hamiltonian_applies(c):
        _need(c.n >= 4, "order below 4")
        # never guessed: above the search cap the bound is simply not audited
        _need(c.n <= HAMILTONIAN_SEARCH_CAP, "hamiltonicity undecided above the search cap")
        _need(has_hamiltonian_cycle(c.graph), "graph is not Hamiltonian")
        return -(-3 * c.n // 7)
    add("hamiltonian_secure_three_sevenths", "upper", "gamma_secure",
        "secure domination of a Hamiltonian graph is at most ceil(3n/7)",
        _hamiltonian_applies, lambda c: c.value("gamma_secure"))
    add("secure_le_two_domination", "upper", "gamma_secure",
        "any 2-dominating set is secure, so secure is at most 2-domination",
        lambda c: c.value("gamma_2"), lambda c: c.value("gamma_secure"))

    def _half_order(c):
        _connected_nontrivial(c)
        _need(c.min_degree >= 2, "minimum degree below 2")
        _need(not c.is_five_cycle, "the five-cycle is excluded")
        return c.n // 2
    add("secure_le_half_order", "upper", "gamma_secure",
        "secure domination of a connected min-degree-2 graph (not the 5-cycle) "
        "is at most floor(n/2)", _half_order, lambda c: c.value("gamma_secure"))

    def _two_thirds(c):
        _connected_nontrivial(c)
        return 2 * c.n // 3
    add("weak_roman_le_two_thirds", "upper", "gamma_weak_roman",
        "weak Roman domination of a connected nontrivial graph is at most floor(2n/3)",
        _two_thirds, lambda c: c.value("gamma_weak_roman"))

    def _leaf_lower(c):
        _need(not c.has_two_vertex_component,
              "a two-vertex component has adjacent leaves")
        return c.leaf_count
    add("secure_ge_leaf_count", "lower", "gamma_secure",
        "secure domination is at least the number of degree-one vertices "
        "(no two-vertex component)", _leaf_lower, lambda c: c.value("gamma_secure"))

    def _no_isolated(c, expr):
        _need(c.no_isolated_vertex, "graph has an isolated vertex")
        return expr(c)
    add("secure_le_order_minus_matching", "upper", "gamma_secure",
        "secure domination is at most n minus the matching number (no isolated vertex)",
        lambda c: _no_isolated(c, lambda c: c.n - c.value("matching")),
        lambda c: c.value("gamma_secure"))
    add("secure_le_order_minus_gamma", "upper", "gamma_secure",
        "secure domination is at most n minus domination (no isolated vertex)",
        lambda c: _no_isolated(c, lambda c: c.n - c.value("gamma")),
        lambda c: c.value("gamma_secure"))

    def _half_gamma(c):
        # inherited from the n - gamma bound this equality is derived from;
        # P_3 plus an isolated vertex has gamma = n/2 but strictly larger
        # weak Roman domination
        _need(c.no_isolated_vertex, "graph has an isolated vertex")
        _need(2 * c.value("gamma") == c.n, "domination number is not half the order")
        return c.n // 2
    add("half_gamma_forces_weak_roman", "equality", "gamma_weak_roman",
        "when domination is half the order (no isolated vertex), weak Roman equals n/2",
        _half_gamma, lambda c: c.value("gamma_weak_roman"))
    add("half_gamma_forces_secure", "equality", "gamma_secure",
        "when domination is half the order (no isolated vertex), secure domination equals n/2",
        _half_gamma, lambda c: c.value("gamma_secure"))

    # --- twin-shadow bounds -----------------------------------------------
    def _tau_bound(c):
        _no_complete_component(c)
        return c.n - c.value("gamma") - c.value("tau")
    add("secure_le_order_gamma_tau", "upper", "gamma_secure",
        "secure domination is at most n - gamma - tau (no complete component)",
        _tau_bound, lambda c: c.value("gamma_secure"))

    def _rho_tau_bound(c):
        _no_complete_component(c)
        return c.n - c.value("two_packing") - c.value("tau")
    add("secure_le_order_packing_tau", "upper", "gamma_secure",
        "secure domination is at most n - 2-packing - tau (no complete component)",
        _rho_tau_bound, lambda c: c.value("gamma_secure"))

    def _degree_fraction_tau(c):
        _no_complete_component(c)
        d = c.max_degree
        return (c.n * d) // (d + 1) - c.value("tau")
    add("secure_le_degree_fraction_tau", "upper", "gamma_secure",
        "secure domination is at most floor(n*maxdeg/(maxdeg+1)) - tau "
        "(no complete component)", _degree_fraction_tau,
        lambda c: c.value("gamma_secure"))

    def _avg_order_gamma_tau(c):
        _no_complete_component(c)
        return (c.n + c.value("gamma") - c.value("tau")) // 2
    add("weak_roman_le_half_order_gamma_tau", "upper", "gamma_weak_roman",
        "weak Roman domination is at most floor((n + gamma - tau)/2) "
        "(no complete component)", _avg_order_gamma_tau,
        lambda c: c.value("gamma_weak_roman"))

    def _two_gamma_tau(c):
        _no_complete_component(c)
        _need(3 * c.value("gamma") >= c.n, "domination number below n/3")
        return 2 * c.value("gamma") - c.value("tau")
    add("weak_roman_le_two_gamma_tau", "upper", "gamma_weak_roman",
        "weak Roman domination is at most 2*gamma - tau when gamma >= n/3 "
        "(no complete component)", _two_gamma_tau,
        lambda c: c.value("gamma_weak_roman"))

    # --- clique cover and Nordhaus-Gaddum ---------------------------------
    add("secure_le_clique_cover", "upper", "gamma_secure",
        "one representative per clique of a minimum clique cover is secure",
        lambda c: c.value("clique_cover"), lambda c: c.value("gamma_secure"))
    add("ng_weak_roman_sum_le_secure_sum", "upper", "gamma_weak_roman",
        "weak Roman sum over graph and complement is at most the secure sum",
        lambda c: c.value("gamma_secure") + c.co().value("gamma_secure"),
        lambda c: c.value("gamma_weak_roman") + c.co().value("gamma_weak_roman"))
    add("ng_secure_sum_le_order_plus_one", "upper", "gamma_secure",
        "secure sum over graph and complement is at most n + 1",
        lambda c: c.n + 1,
        lambda c: c.value("gamma_secure") + c.co().value("gamma_secure"))
    add("ng_weak_roman_product_le_secure_product", "upper", "gamma_weak_roman",
        "weak Roman product over graph and complement is at most the secure product",
        lambda c: c.value("gamma_secure") * c.co().value("gamma_secure"),
        lambda c: c.value("gamma_weak_roman") * c.co().value("gamma_weak_roman"))
    add("ng_secure_product_le_order_bound", "upper", "gamma_secure",
        "secure product over graph and complement is at most (n+1)^2/4",
        lambda c: (c.n + 1) ** 2 / 4,
        lambda c: c.value("gamma_secure") * c.co().value("gamma_secure"))

    def _refined_note(c):
        return f"hypotheses hold for: {c.refined_ng_side}" if c.refined_ng_side else None

    def _refined_sum(c):
        _need(c.refined_ng_side is not None,
              "refined hypotheses fail for graph and complement")
        return c.n - 1 if c.n % 2 else c.n
    add("ng_secure_sum_refined", "upper", "gamma_secure",
        "secure sum is at most n-1 (n odd) or n (n even) under the refined hypotheses",
        _refined_sum,
        lambda c: c.value("gamma_secure") + c.co().value("gamma_secure"),
        note=_refined_note)

    def _refined_product(c):
        _need(c.refined_ng_side is not None,
              "refined hypotheses fail for graph and complement")
        return (c.n - 1) ** 2 / 4 if c.n % 2 else c.n ** 2 / 4
    add("ng_secure_product_refined", "upper", "gamma_secure",
        "secure product is at most (n-1)^2/4 (n odd) or n^2/4 (n even) under the "
        "refined hypotheses", _refined_product,
        lambda c: c.value("gamma_secure") * c.co().value("gamma_secure"),
        note=_refined_note)

    # the chromatic number of the complement is the clique cover number
    add("ng_chromatic_sum_le_order_plus_one", "upper", "chromatic",
        "chromatic sum over graph and complement is at most n + 1",
        lambda c: c.n + 1,
        lambda c: c.value("chromatic") + c.value("clique_cover"))
    add("ng_chromatic_product_le_order_bound", "upper", "chromatic",
        "chromatic product over graph and complement is at most (n+1)^2/4",
        lambda c: (c.n + 1) ** 2 / 4,
        lambda c: c.value("chromatic") * c.value("clique_cover"))

    # --- Cartesian-product (pair scope; caches keyed "g"/"h"/"p") ---------
    def pair(id, kind, target, statement, claimed, actual):
        add(id, kind, target, statement, claimed, actual, scope="pair")

    pair("cartesian_gamma_ge_min_order", "lower", "gamma",
         "domination of a product is at least the smaller factor order",
         lambda pc: min(pc["g"].n, pc["h"].n), lambda pc: pc["p"].value("gamma"))
    pair("cartesian_weak_roman_ge_min_order", "lower", "gamma_weak_roman",
         "weak Roman domination of a product is at least the smaller factor order",
         lambda pc: min(pc["g"].n, pc["h"].n), lambda pc: pc["p"].value("gamma_weak_roman"))
    pair("cartesian_secure_ge_min_order", "lower", "gamma_secure",
         "secure domination of a product is at least the smaller factor order",
         lambda pc: min(pc["g"].n, pc["h"].n), lambda pc: pc["p"].value("gamma_secure"))
    pair("cartesian_weak_roman_le_factor_cover", "upper", "gamma_weak_roman",
         "weak Roman of a product is at most min(n(G)*wr(H), n(H)*wr(G))",
         lambda pc: min(pc["g"].n * pc["h"].value("gamma_weak_roman"),
                        pc["h"].n * pc["g"].value("gamma_weak_roman")),
         lambda pc: pc["p"].value("gamma_weak_roman"))
    pair("cartesian_secure_le_factor_cover", "upper", "gamma_secure",
         "secure domination of a product is at most min(n(G)*sec(H), n(H)*sec(G))",
         lambda pc: min(pc["g"].n * pc["h"].value("gamma_secure"),
                        pc["h"].n * pc["g"].value("gamma_secure")),
         lambda pc: pc["p"].value("gamma_secure"))

    def _mixed_tau(pc):
        _need(pc["g"].n >= 2, "first factor is trivial")
        _need(not pc["h"].has_complete_component,
              "a component of the second factor is complete")
        gg, hh = pc["g"], pc["h"]
        return (gg.n * hh.value("gamma") + hh.n * gg.value("gamma")
                - 2 * gg.value("gamma") * hh.value("gamma")
                - gg.value("gamma") * hh.value("tau"))
    pair("cartesian_secure_le_mixed_tau", "upper", "gamma_secure",
         "secure domination of a product is at most "
         "n(G)g(H) + n(H)g(G) - 2g(G)g(H) - g(G)tau(H)",
         _mixed_tau, lambda pc: pc["p"].value("gamma_secure"))

    def _mixed_le_half(pc):
        _need(pc["g"].no_isolated_vertex and pc["h"].no_isolated_vertex,
              "a factor has an isolated vertex")
        return (pc["g"].n * pc["h"].n) // 2
    pair("cartesian_mixed_formula_le_half_order", "upper", "mixed_formula",
         "n(G)g(H) + n(H)g(G) - 2g(G)g(H) never exceeds floor(n(G)n(H)/2)",
         _mixed_le_half,
         lambda pc: (pc["g"].n * pc["h"].value("gamma")
                     + pc["h"].n * pc["g"].value("gamma")
                     - 2 * pc["g"].value("gamma") * pc["h"].value("gamma")))

    def _reserve_bound(pc):
        fn = pc["h"].result("gamma_weak_roman").witness
        _need(fn.two_mask != 0,
              "no optimal weak Roman function of the second factor holds two guards")
        h = pc["h"].graph
        reach = 0
        for u in iter_bits(fn.two_mask):
            reach |= h.closed[u]
        y = h.full_mask & ~reach
        return (2 * pc["g"].n * fn.two_mask.bit_count()
                + y.bit_count() * pc["g"].value("gamma_weak_roman"))
    pair("cartesian_weak_roman_le_reserve", "upper", "gamma_weak_roman",
         "weak Roman of a product is at most 2n(G)|two-guard class| + "
         "|uncovered columns| * wr(G)", _reserve_bound,
         lambda pc: pc["p"].value("gamma_weak_roman"))

    ids = [s.id for s in specs]
    assert len(ids) == len(set(ids)), "duplicate bound ids"
    return tuple(specs)


_REGISTRY = _make_registry()


def registry() -> tuple[BoundSpec, ...]:
    """All registered bounds, graph scope first, deterministic order."""
    return _REGISTRY


def _evaluate(spec: BoundSpec, cache) -> BoundRow:
    try:
        claimed = spec.claimed(cache)
        actual = spec.actual(cache)
    except Inapplicable as exc:
        return BoundRow(spec.id, applicable=False, reason=exc.reason)
    except LimitExceeded as exc:
        return BoundRow(spec.id, applicable=False, reason=f"budget: {exc}",
                        budget_exceeded=True)
    if spec.kind == "upper":
        holds = actual <= claimed
        slack = claimed - actual
    elif spec.kind == "lower":
        holds = actual >= claimed
        slack = actual - claimed
    else:
        holds = actual == claimed
        slack = actual - claimed
    note = spec.note(cache)
    return BoundRow(spec.id, applicable=True, claimed=claimed, actual=actual,
                    holds=bool(holds), slack=slack, reason=note)


def audit(g: Graph, limits: Optional[SolverLimits] = None) -> BoundReport:
    """Evaluate every applicable graph-scope bound against exact values.
    The values are solved in bandwidth order; the report names g itself."""
    return _audit_report(g, InvariantCache(_banded(g), limits))


def _scope_rows(scope: str, cache) -> tuple[list[BoundRow], bool]:
    """The rows of every registry bound of one scope, and whether a budget
    cut any of them (the report is then incomplete)."""
    rows = [_evaluate(spec, cache) for spec in _REGISTRY if spec.scope == scope]
    return rows, any(row.budget_exceeded for row in rows)


def _audit_report(g: Graph, cache: InvariantCache) -> BoundReport:
    """The audit of g from a cache of g or of a relabelling of g."""
    rows, incomplete = _scope_rows("graph", cache)
    invariants = dict(sorted(cache.computed_values().items()))
    invariants["n"] = g.n
    return BoundReport(write_graph6(g), g.n, invariants, rows, [], incomplete)


def product_audit(g: Graph, h: Graph,
                  limits: Optional[SolverLimits] = None) -> BoundReport:
    """Evaluate the pair-scope (Cartesian product) bounds for factors g, h."""
    from .graph import cartesian_product
    p = cartesian_product(g, h)
    pair_cache: dict = {
        "g": InvariantCache(g, limits),
        "h": InvariantCache(h, limits),
        "p": InvariantCache(p, limits),
    }
    rows, incomplete = _scope_rows("pair", pair_cache)
    invariants = {"n_g": g.n, "n_h": h.n, "n_product": p.n}
    invariants.update({f"product_{k}": v
                       for k, v in sorted(pair_cache["p"].computed_values().items())})
    return BoundReport(write_graph6(p), p.n, invariants, rows, [], incomplete)


# ---------------------------------------------------------------------------
# Closed-form family values.
# ---------------------------------------------------------------------------

def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def family_value(invariant: str, family: str, *params: int) -> int:
    """Closed-form invariant value for a named family instance.

    Families and parameter ranges:
      path t / cycle t (t >= 4): weak Roman and secure both ceil(3t/7)
      complete_x_any t nh (2 <= nh <= t): weak Roman and secure both nh
      complete_x_path t t2 / complete_x_cycle t t2 (t, t2 >= 3): both t2
      complete_x_star t t2 (t, t2 >= 2): weak Roman min(2t, t2); secure t2
      any_x_star ng t (t > 2*ng >= 4): weak Roman 2*ng
      star_x_star t (t >= 3): weak Roman and secure both 2(t-1)
      path_x_k2 t (t >= 1): gamma ceil((t+1)/2); Roman t+1
    """
    def fail():
        raise ValueError(f"no closed form for {invariant!r} on {family!r}{params}")

    if family in ("path", "cycle"):
        (t,) = params
        if t < 4:
            raise ValueError(f"{family} closed form needs t >= 4, got {t}")
        if invariant in ("gamma_weak_roman", "gamma_secure"):
            return _ceil_div(3 * t, 7)
        fail()
    if family == "complete_x_any":
        t, nh = params
        if not 2 <= nh <= t:
            raise ValueError(f"complete_x_any needs 2 <= n(H) <= t, got t={t}, n(H)={nh}")
        if invariant in ("gamma_weak_roman", "gamma_secure"):
            return nh
        fail()
    if family in ("complete_x_path", "complete_x_cycle"):
        t, t2 = params
        if t < 3 or t2 < 3:
            raise ValueError(f"{family} needs t, t' >= 3, got ({t},{t2})")
        if invariant in ("gamma_weak_roman", "gamma_secure"):
            return t2
        fail()
    if family == "complete_x_star":
        t, t2 = params
        if t < 2 or t2 < 2:
            raise ValueError(f"complete_x_star needs t, t' >= 2, got ({t},{t2})")
        if invariant == "gamma_weak_roman":
            return min(2 * t, t2)
        if invariant == "gamma_secure":
            return t2
        fail()
    if family == "any_x_star":
        ng, t = params
        if not (t > 2 * ng >= 4):
            raise ValueError(f"any_x_star needs t > 2n(G) >= 4, got n(G)={ng}, t={t}")
        if invariant == "gamma_weak_roman":
            return 2 * ng
        fail()
    if family == "star_x_star":
        (t,) = params
        if t < 3:
            raise ValueError(f"star_x_star needs t >= 3, got {t}")
        if invariant in ("gamma_weak_roman", "gamma_secure"):
            return 2 * (t - 1)
        fail()
    if family == "path_x_k2":
        (t,) = params
        if t < 1:
            raise ValueError(f"path_x_k2 needs t >= 1, got {t}")
        if invariant == "gamma":
            return _ceil_div(t + 1, 2)
        if invariant == "gamma_roman":
            return t + 1
        fail()
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# Nordhaus-Gaddum record and the prism conjecture scan.
# ---------------------------------------------------------------------------

# Registry rows behind the record's checks, mapped to their record keys.
_NG_CHECKS = {
    "ng_weak_roman_sum_le_secure_sum": "weak_roman_sum_le_secure_sum",
    "ng_secure_sum_le_order_plus_one": "secure_sum_le_order_plus_one",
    "ng_weak_roman_product_le_secure_product": "weak_roman_product_le_secure_product",
    "ng_secure_product_le_order_bound": "secure_product_le_order_bound",
    "ng_secure_sum_refined": "refined_secure_sum",
    "ng_secure_product_refined": "refined_secure_product",
}


def nordhaus_gaddum(g: Graph, limits: Optional[SolverLimits] = None) -> dict:
    """Weak Roman / secure values on a graph and its complement with every
    sum/product check of the registry's ``ng_*`` rows, including the refined
    small-degree variant.  The values are solved in bandwidth order."""
    return _ng_record(InvariantCache(_banded(g), limits))


def _ng_record(cache: InvariantCache) -> dict:
    """The Nordhaus-Gaddum record of the cache's graph."""
    co = cache.co()
    # solved up front so an over-budget graph raises LimitExceeded here
    wr, sec = cache.value("gamma_weak_roman"), cache.value("gamma_secure")
    wr_c, sec_c = co.value("gamma_weak_roman"), co.value("gamma_secure")
    rows = {spec.id: _evaluate(spec, cache) for spec in _REGISTRY if spec.id in _NG_CHECKS}
    side = cache.refined_ng_side
    checks = {_NG_CHECKS[rid]: row.holds for rid, row in rows.items() if row.applicable}
    return {
        "n": cache.n,
        "gamma_weak_roman": wr,
        "gamma_secure": sec,
        "gamma_weak_roman_complement": wr_c,
        "gamma_secure_complement": sec_c,
        "sum_weak_roman": wr + wr_c,
        "sum_secure": sec + sec_c,
        "product_weak_roman": wr * wr_c,
        "product_secure": sec * sec_c,
        "sum_bound": rows["ng_secure_sum_le_order_plus_one"].claimed,
        "product_bound": rows["ng_secure_product_le_order_bound"].claimed,
        "refined_applicable": side is not None,
        "refined_via": side,
        "refined_sum_bound": rows["ng_secure_sum_refined"].claimed,
        "refined_product_bound": rows["ng_secure_product_refined"].claimed,
        "checks": checks,
        "pass": all(checks.values()),
    }


# The first order t of each conjecture family (P_2 x K_2, C_3 x K_2).
CONJECTURE_T_MIN = {"path_x_k2": 2, "cycle_x_k2": 3}


def conjecture_scan(family: str, t_max: int,
                    limits: Optional[SolverLimits] = None) -> list[dict]:
    """Exact secure domination of prisms over paths/cycles versus the
    conjectured closed forms.  Mismatches are reported, never asserted."""
    from .graph import cartesian_product, complete, cycle, path
    if family not in CONJECTURE_T_MIN:
        raise ValueError(f"unknown conjecture family {family!r}")
    rows = []
    for t in range(CONJECTURE_T_MIN[family], t_max + 1):
        base = path(t) if family == "path_x_k2" else cycle(t)
        product = cartesian_product(base, complete(2))
        exact = gamma_secure(product, limits).value
        if family == "path_x_k2":
            conjectured = _ceil_div(3 * t + 1, 4)
        else:
            conjectured = _ceil_div(3 * t, 4) + (1 if t % 8 == 4 else 0)
        rows.append({"t": t, "exact": exact, "conjectured": conjectured,
                     "match": exact == conjectured})
    return rows
