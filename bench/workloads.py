"""Workload pools, set-up and checks of the bvgraph benchmark.

Each workload is a fixed pool of checks; the exact output of every check is
pinned in ``golden.json``.  A pass runs the whole pool once, in pool order.
Where a check takes rational coefficients (the wedges of ``intertwine``,
``commute`` and the chain-map checks of ``graph_complex``) the seed draws
them; the graph checks of ``feynman`` and ``graph_complex`` have no free
inputs.  Running the whole pool keeps the mix of cheap and dear checks the
same from seed to seed, so the timings of two seeds compare.

The library is reached only through its public functions, by module attribute
(``dual.verify_commute``), so that the traced pass sees every call.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from bvgraph import ce, dual, frobenius, graphs, sampling, superpoly, symplectic

WORKLOADS = ("intertwine", "commute", "feynman", "graph_complex")

G3_GAUGES = ((0, 0, 0, 1), (1, 1, 1, 1), (1, 2, 3, 4))
GRAPH_COUNTS = {(5, 8): (4, 4), (5, 9): (20, 8), (6, 9): (7, 3)}

# Monomial keys index the variables p, q (even) and, on V_{2|1}, x (odd).
# Each commute item is (check kind, space, wedge factors, osp element or None).
# The pool keeps every degree of delta(chain) at 5 or less, so that no check
# builds a vertex tensor mu_k with k > 5 (those are set-up work: mu_6 alone
# costs seconds).
COMMUTE_POOL = (
    ("commute", "V20", ((0, 0, 0), (1, 1, 1)), None),
    ("commute", "V20", ((0, 0, 1), (0, 0, 1, 1, 1)), None),
    ("commute", "V20", ((0, 0, 0, 1), (1, 1, 1, 1)), None),
    ("commute", "V20", ((0, 1, 1, 1), (0, 0, 0, 1)), None),
    ("commute", "V20", ((1, 1, 1, 1, 1), (0, 1, 1, 1, 1)), None),
    ("commute", "V20", ((0, 0, 1), (1, 1, 1), (0, 0, 0, 0)), None),
    ("commute", "V20", ((0, 1, 1), (0, 0, 1), (0, 0, 0, 1)), None),
    ("commute", "V20", ((1, 1, 1, 1), (0, 0, 1, 1), (0, 1, 1, 1)), None),
    ("commute", "V20", ((1, 1, 1), (0, 0, 1), (0, 0, 0), (0, 1, 1)), None),
    ("commute", "V21", ((0, 0, 0), (0, 1, 1)), None),
    ("commute", "V21", ((0, 0, 1), (1, 1, 1, 1, 2)), None),
    ("commute", "V21", ((0, 0, 2), (0, 1, 1, 1, 2)), None),
    ("commute", "V21", ((0, 1, 1, 1), (0, 0, 0, 1)), None),
    ("commute", "V21", ((0, 1, 1, 2), (0, 0, 0, 1)), None),
    ("cocycle_chains", "V20", ((0, 0, 0), (1, 1, 1)), None),
    ("cocycle_chains", "V20", ((0, 0, 0), (0, 0, 1), (1, 1, 1, 1)), None),
    ("cocycle_chains", "V20", ((0, 0, 1), (0, 0, 0), (0, 1, 1, 1)), None),
    ("cocycle_chains", "V21", ((1, 1, 1), (0, 0, 0)), None),
    ("cocycle_chains", "V21", ((0, 0, 1), (1, 1, 1), (0, 0, 1, 1)), None),
    ("cocycle_chains", "V21", ((0, 0, 1), (1, 1, 2), (1, 1, 1, 2)), None),
    ("osp", "V20", ((0, 0, 1, 1), (0, 0, 0, 0)), (1, 1)),
    ("osp", "V20", ((0, 0, 0, 0), (1, 1, 1, 1)), (0, 0)),
    ("osp", "V20", ((0, 0, 1), (0, 1, 1), (0, 1, 1, 1)), (0, 0)),
    ("osp", "V20", ((1, 1, 1), (0, 0, 1), (0, 1, 1, 1)), (1, 1)),
    ("osp", "V21", ((0, 1, 2), (0, 0, 2)), (0, 1)),
    ("osp", "V21", ((0, 0, 0, 1), (0, 0, 1, 2)), (0, 2)),
    ("osp", "V21", ((1, 1, 2), (0, 0, 1, 1, 1)), (0, 1)),
)

# 3-wedges of quartics: an even half-edge count (an odd one makes wick_map
# vacuous).  Both sides of the chain-map identity are 0 on them.  A (4,5,5)
# wedge such as p^3q ^ p^4q ^ q^5 has a nonzero I(chain) but costs about 3 s
# of wick_map per pass, mostly outside the graph layer; it is left out.
KONTSEVICH_POOL = (
    ("V20", ((0, 0, 0, 1), (0, 0, 1, 1), (1, 1, 1, 1))),
    ("V20", ((0, 1, 1, 1), (1, 1, 1, 1), (0, 0, 0, 0))),
    ("V21", ((0, 0, 1, 2), (1, 1, 1, 1), (0, 1, 1, 2))),
    ("V21", ((0, 0, 0, 2), (0, 1, 1, 1), (0, 0, 0, 1))),
)


class Check:
    """One pool entry: ``prepare(ctx, rng)`` returns ``(run, output)``.

    ``run()`` is the timed call into the library; ``output(result)`` returns
    ``(status_ok, canonical text)``, whose digest is compared with the pin.
    """

    __slots__ = ("id", "prepare", "smoke")

    def __init__(self, cid, prepare, smoke=False):
        self.id = cid
        self.prepare = prepare
        self.smoke = smoke


def compare(lhs, rhs):
    """The equality a check decides (the traced pass counts nonzero sides)."""
    return lhs == rhs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def poly_text(p) -> str:
    return ";".join(f"{'.'.join(map(str, k))}:{v}" for k, v in sorted(p.terms.items()))


def json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _coefficient(rng) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


def _key_id(keys) -> str:
    return "^".join(".".join(map(str, k)) for k in keys)


def _chain(ctx, vname, keys, rng):
    """Seeded wedge of the monomials ``keys``; returns (chain, coefficient)."""
    v = ctx["spaces"][vname]
    coeffs = [_coefficient(rng) for _ in keys]
    polys = [superpoly.SuperPolynomial.monomial(v.space, k, c)
             for k, c in zip(keys, coeffs)]
    scale = Fraction(1)
    for c in coeffs:
        scale *= c
    return ce.CEChain.from_polynomials(v, polys), scale


# ---------------------------------------------------------------------------
# Set-up: import (timed by the caller), models and their vertex tensors mu_k

def setup(workload: str) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    spaces = {"V20": symplectic.SymplecticSpace.canonical_even(1, 0),
              "V21": symplectic.SymplecticSpace.canonical_even(1, 1)}
    ctx = {"spaces": spaces}
    if workload == "graph_complex":
        return ctx
    alg = frobenius.g3()
    names = ("V20",) if workload == "feynman" else ("V20", "V21")
    degrees = {"intertwine": (3, 4), "commute": (3, 4, 5), "feynman": ()}[workload]
    models = {}
    for name in names:
        models[name] = dual.TensorModel(alg, spaces[name])
        for k in degrees:
            models[name].mu(k)
    ctx["models"] = models
    gauges = {p: frobenius.g3_gauge(*p, alg=alg) for p in G3_GAUGES}
    ctx["gauges"] = gauges
    if workload == "commute":
        ctx["gauge_models"] = {n: dual.GaugeModel(m, gauges[(1, 1, 1, 1)])
                               for n, m in models.items()}
    elif workload == "feynman":
        ctx["gauge_models"] = {p: dual.GaugeModel(models["V20"], g)
                               for p, g in gauges.items()}
    return ctx


# ---------------------------------------------------------------------------
# intertwine: Psi delta = Delta Psi

def _intertwine(vname, keys):
    def prepare(ctx, rng):
        model = ctx["models"][vname]
        chain, scale = _chain(ctx, vname, keys, rng)

        def run():
            lhs = superpoly.SuperPolynomial.zero(model.space)
            for word, c in ce.ce_differential(chain).terms.items():
                lhs = lhs + c * dual.psi_of_word(model, word)
            rhs = superpoly.SuperPolynomial.zero(model.space)
            for word, c in chain.terms.items():
                rhs = rhs + c * model.symp.odd_laplacian(
                    dual.psi_of_word(model, word))
            return compare(lhs, rhs), lhs

        def output(result):
            ok, lhs = result
            return ok, poly_text(lhs * (1 / scale))
        return run, output
    return prepare


def _intertwine_pool(ctx):
    out = []
    for vname, size in (("V20", 3), ("V21", 2)):
        space = ctx["spaces"][vname].space
        keys = sampling.monomial_keys(space, 3)
        for word in combinations_with_replacement(keys, size):
            if len(set(word)) < size:
                # a repeated factor survives only if it is odd
                rep = next(k for k in word if word.count(k) > 1)
                if not sum(space.parities[i] for i in rep) % 2:
                    continue
            out.append(Check(f"intertwine:{vname}:{_key_id(word)}",
                             _intertwine(vname, word)))
    return out


# ---------------------------------------------------------------------------
# commute: S = F o I, delta-cocycle on chains, osp invariance

def _commute(kind, vname, keys, eta_key):
    def prepare(ctx, rng):
        model = ctx["models"][vname]
        gm = ctx["gauge_models"][vname]
        chain, scale = _chain(ctx, vname, keys, rng)
        if kind == "commute":
            def run():
                return dual.verify_commute(model, gm, chain)

            def pinned():
                return json_text(dual.wick_map(chain).scale(1 / scale).to_json())
        elif kind == "cocycle_chains":
            def run():
                return dual.verify_cocycle_chains(model, gm, [chain])

            def pinned():
                return json_text(ce.ce_differential(chain).scale(1 / scale).to_json())
        else:
            c = _coefficient(rng)
            eta = superpoly.SuperPolynomial.monomial(
                ctx["spaces"][vname].space, eta_key, c)

            def run():
                return dual.verify_osp_invariance(model, gm, eta, chain)

            def pinned():
                return json_text(
                    ce.osp_action(eta, chain).scale(1 / (c * scale)).to_json())
        return run, _report_output(pinned)
    return prepare


def _report_output(pinned=None):
    """Output of a verify_* check: its report, plus the suite's pinned input.

    At the seed fixtures S and F compare 0 with 0, so a passing report alone
    pins little; ``pinned`` recomputes, outside the timed call, the object
    the suite consumed (I(chain), delta(chain) or the osp action).
    """
    def output(report):
        text = json_text(report)
        if pinned is not None:
            text += "|" + pinned()
        return report["status"] == "pass", text
    return output


def _commute_pool(ctx):
    out = []
    for kind, vname, keys, eta in COMMUTE_POOL:
        cid = f"{kind}:{vname}:{_key_id(keys)}"
        if eta is not None:
            cid += f":eta={_key_id([eta])}"
        out.append(Check(cid, _commute(kind, vname, keys, eta)))
    return out


# ---------------------------------------------------------------------------
# feynman: cocycle condition on graphs and gauge independence on cycles

def _cocycle_graphs(v, e, gauge):
    def prepare(ctx, rng):
        model = ctx["models"]["V20"]
        gm = ctx["gauge_models"][gauge]

        def run():
            return dual.verify_cocycle_graphs(model, gm, v, e)
        return run, _report_output()
    return prepare


def _gauge_independence(v, e, g0, g1):
    def prepare(ctx, rng):
        model = ctx["models"]["V20"]
        gauges = ctx["gauges"]

        def run():
            return dual.verify_gauge_independence(model, gauges[g0], gauges[g1],
                                                  v, e)
        return run, _report_output()
    return prepare


def _feynman_pool(ctx):
    out = []
    for v, e in ((2, 3), (2, 5), (3, 5), (4, 6)):
        for g0, g1 in combinations(G3_GAUGES, 2):
            out.append(Check(f"gauge_independence:({v},{e}):{g0}-{g1}",
                             _gauge_independence(v, e, g0, g1),
                             smoke=(v, e) == (2, 3)))
    for v, e in ((3, 6), (4, 6)):
        for g in G3_GAUGES:
            out.append(Check(f"cocycle_graphs:({v},{e}):{g}",
                             _cocycle_graphs(v, e, g)))
    return out


# ---------------------------------------------------------------------------
# graph_complex: enumeration, cycle spaces, Kontsevich chain map

def _enumerate(v, e):
    def prepare(ctx, rng):
        def run():
            return graphs.enumerate_graphs(v, e)

        def output(basis):
            ok = len(basis) == GRAPH_COUNTS[(v, e)][0]
            return ok, ",".join(g.graph_id() for g in basis)
        return run, output
    return prepare


def _cycle_space(v, e):
    def prepare(ctx, rng):
        def run():
            return graphs.cycle_space(v, e)

        def output(result):
            basis, cycles = result
            ok = (len(basis), len(cycles)) == GRAPH_COUNTS[(v, e)]
            return ok, json_text([[g.graph_id() for g in basis],
                                  [z.to_json() for z in cycles]])
        return run, output
    return prepare


def _kontsevich(vname, keys):
    def prepare(ctx, rng):
        chain, scale = _chain(ctx, vname, keys, rng)

        def run():
            return dual.verify_kontsevich_chain_map(chain)

        def pinned():
            return json_text(dual.wick_map(chain).scale(1 / scale).to_json())
        return run, _report_output(pinned)
    return prepare


def _graph_complex_pool(ctx):
    out = []
    for v, e in GRAPH_COUNTS:
        out.append(Check(f"enumerate_graphs:({v},{e})", _enumerate(v, e),
                         smoke=(v, e) == (5, 8)))
        out.append(Check(f"cycle_space:({v},{e})", _cycle_space(v, e),
                         smoke=(v, e) == (5, 8)))
    for vname, keys in KONTSEVICH_POOL:
        out.append(Check(f"kontsevich_chain_map:{vname}:{_key_id(keys)}",
                         _kontsevich(vname, keys)))
    return out


def pool(ctx, workload: str, smoke: bool = False) -> list:
    """Every check of the workload; in smoke mode a cheap subset of it."""
    builders = {"intertwine": _intertwine_pool, "commute": _commute_pool,
                "feynman": _feynman_pool, "graph_complex": _graph_complex_pool}
    checks = builders[workload](ctx)
    if not smoke:
        return checks
    marked = [c for c in checks if c.smoke]
    return marked or checks[:2]
