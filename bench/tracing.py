"""Spans and counters around bvgraph's public functions, for the traced pass.

``Tracer.install()`` rebinds every binding of each wrapped name, including
the ``from .x import f`` copies inside other modules of the package, so a
call is seen whichever name it goes through (the harness calls the library
through module attributes).
Spans are kept in memory (name, start, end, parent) and written out once, at
the end of the pass.  A span's self time is its duration minus the durations
of its child spans.  Only calls made inside a check (between ``begin`` and
``end``) are recorded, so set-up and input building stay out of the numbers.
"""
from __future__ import annotations

import gzip
import sys
import time
from array import array

# (module, attribute, span name): calls that get a span.
SPANS = (
    ("superpoly", "apply_derivation", "superpoly.apply_derivation"),
    ("superpoly", "divergence", "superpoly.divergence"),
    ("superpoly", "SuperPolynomial.substitute", "superpoly.substitute"),
    ("superpoly", "SuperPolynomial.deriv_left", "superpoly.deriv_left"),
    ("symplectic", "SymplecticSpace.odd_laplacian", "symplectic.odd_laplacian"),
    ("symplectic", "SymplecticSpace.antibracket", "symplectic.antibracket"),
    ("symplectic", "SymplecticSpace.poisson", "symplectic.poisson"),
    ("symplectic", "SymplecticSpace.hamiltonian_field",
     "symplectic.hamiltonian_field"),
    ("symplectic", "restrict_polynomial", "symplectic.restrict_polynomial"),
    ("forms", "FormContext.d", "forms.d"),
    ("forms", "FormContext.contract", "forms.contract"),
    ("forms", "FormContext.lie", "forms.lie"),
    ("forms", "FormContext.inject", "forms.inject"),
    ("forms", "FormContext.one_form_coefficients", "forms.one_form_coefficients"),
    ("forms", "FormContext.poincare_integrate", "forms.poincare_integrate"),
    ("wick", "QuadraticWeight.expectation", "wick.expectation"),
    ("wick", "chord_diagrams", "wick.chord_diagrams"),
    ("frobenius", "vertex_tensor", "frobenius.vertex_tensor"),
    ("frobenius", "vertex_tensor_on_vectors", "frobenius.vertex_tensor_on_vectors"),
    ("graphs", "canonicalize_directed", "graphs.canonicalize_directed"),
    ("graphs", "enumerate_graphs", "graphs.enumerate_graphs"),
    ("graphs", "cycle_space", "graphs.cycle_space"),
    ("graphs", "boundary", "graphs.boundary"),
    ("graphs", "boundary_of_graph", "graphs.boundary_of_graph"),
    ("ce", "ce_differential", "ce.ce_differential"),
    ("ce", "osp_action", "ce.osp_action"),
    ("linalg", "inverse", "linalg.inverse"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("dual", "psi_of_word", "dual.psi_of_word"),
    ("dual", "GaugeModel.restrict", "dual.restrict"),
    ("dual", "s_functional", "dual.s_functional"),
    ("dual", "feynman_value", "dual.feynman_value"),
    ("dual", "feynman_on_chain", "dual.feynman_on_chain"),
    ("dual", "wick_map", "dual.wick_map"),
    ("dual", "verify_commute", "dual.verify_commute"),
    ("dual", "verify_cocycle_graphs", "dual.verify_cocycle_graphs"),
    ("dual", "verify_cocycle_chains", "dual.verify_cocycle_chains"),
    ("dual", "verify_gauge_independence", "dual.verify_gauge_independence"),
    ("dual", "verify_kontsevich_chain_map", "dual.verify_kontsevich_chain_map"),
    ("dual", "verify_osp_invariance", "dual.verify_osp_invariance"),
)

# Modules whose self time is reported as a share of the traced check time;
# "bench" is the harness's own code inside a check.
SHARE_MODULES = ("superpoly", "symplectic", "forms", "wick", "frobenius",
                 "graphs", "ce", "linalg", "dual", "bench")

# Every per-layer metric, with its unit, in the order it is printed.
LAYER_METRICS = (
    ("superpoly.add.calls", "count"),
    ("superpoly.add.terms_copied", "count"),
    ("superpoly.apply_derivation.self_s", "s"),
    ("symplectic.odd_laplacian.self_s", "s"),
    ("forms.self_s", "s"),
    ("superpoly.peak_terms", "count"),
    ("superpoly.mul.term_pairs", "count"),
    ("superpoly.substitute.self_s", "s"),
    ("symplectic.restrict_polynomial.self_s", "s"),
    ("dual.psi_of_word.self_s", "s"),
    ("dual.psi_of_word.out_terms", "count"),
    ("dual.s_functional.self_s", "s"),
    ("wick.expectation.self_s", "s"),
    ("wick.expectation.monomials", "count"),
    ("wick.live_ratio", "ratio"),
    ("wick.chord_diagrams.count", "count"),
    ("dual.feynman_value.calls", "count"),
    ("dual.feynman_value.self_s", "s"),
    ("dual.feynman_value.assignments", "count"),
    ("frobenius.vertex_tensor_on_vectors.self_s", "s"),
    ("frobenius.vertex_tensor_on_vectors.entries", "count"),
    ("linalg.inverse.calls", "count"),
    ("graded.koszul_sign.calls", "count"),
    ("graphs.canonicalize_directed.calls", "count"),
    ("graphs.canonicalize_directed.self_s", "s"),
    ("graphs.canonicalize_directed.distinct_ratio", "ratio"),
    ("graphs.loop_ratio", "ratio"),
    ("graphs.enumerate_graphs.self_s", "s"),
    ("graphs.cycle_space.self_s", "s"),
    ("ce.ce_differential.self_s", "s"),
    ("dual.wick_map.self_s", "s"),
    ("dual.nonzero_compared", "1/check"),
) + tuple((f"share.{m}", "ratio") for m in SHARE_MODULES) + (
    ("share.dual.feynman_value", "ratio"),
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
)

COUNTERS = ("superpoly.add.calls", "superpoly.add.terms_copied",
            "superpoly.peak_terms", "superpoly.mul.term_pairs",
            "dual.psi_of_word.out_terms", "wick.expectation.monomials",
            "wick.vev.evaluated", "wick.vev.live", "wick.chord_diagrams.count",
            "dual.feynman_value.calls", "dual.feynman_value.assignments",
            "frobenius.vertex_tensor_on_vectors.entries", "linalg.inverse.calls",
            "graded.koszul_sign.calls", "graphs.canonicalize_directed.calls",
            "graphs.loops", "compared.nonzero")


def _rebind(original, replacement):
    """Point every binding of ``original`` in a bvgraph module at ``replacement``."""
    hits = 0
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if name != "bvgraph" and not name.startswith("bvgraph."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def _rebind_method(cls, original, replacement):
    """Point every name of ``original`` in the class (aliases too) at it."""
    for attr, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, attr, replacement)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._distinct = set()
        self._assignments = {}
        self._suite_delta = None

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans -----------------------------------------------------------------
    def begin(self, name="bench.check"):
        self.stack.append(self._open(self._id(name)))

    def end(self):
        self.ends[self.stack.pop()] = time.perf_counter()

    def _open(self, nid):
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        return idx

    def _span(self, name, fn, after=None):
        nid = self._id(name)
        stack, ends, perf, open_ = self.stack, self.ends, time.perf_counter, self._open

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = open_(nid)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()
            if after is not None:
                after(args, result, idx)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, after):
        stack = self.stack

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if stack:
                after(args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _parent_name(self, idx):
        p = self.parents[idx]
        return self.names[self.name_ids[p]] if p >= 0 else ""

    # -- installation -------------------------------------------------------------
    def install(self):
        """Wrap every function in SPANS and the counted primitives."""
        import importlib
        mods = {m: importlib.import_module(f"bvgraph.{m}")
                for m in {entry[0] for entry in SPANS} | {"graded"}}
        after = self._after_hooks()
        for mod, attr, name in SPANS:
            owner = mods[mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = vars(cls)[meth]
                _rebind_method(cls, fn, self._span(name, fn, after.get(name)))
            else:
                fn = getattr(owner, attr)
                if not _rebind(fn, self._span(name, fn, after.get(name))):
                    raise RuntimeError(f"no binding of {mod}.{attr} found")
        poly = mods["superpoly"].SuperPolynomial
        c = self.counts

        def on_add(args, r):
            a, b = args
            c["superpoly.add.calls"] += 1
            c["superpoly.add.terms_copied"] += len(a.terms) + len(b.terms)
            if len(r.terms) > c["superpoly.peak_terms"]:
                c["superpoly.peak_terms"] = len(r.terms)

        def on_mul(args, r):
            a, b = args
            if isinstance(b, poly):
                c["superpoly.mul.term_pairs"] += len(a.terms) * len(b.terms)
                if len(r.terms) > c["superpoly.peak_terms"]:
                    c["superpoly.peak_terms"] = len(r.terms)

        def on_koszul(args, r):
            c["graded.koszul_sign.calls"] += 1

        add = vars(poly)["__add__"]
        _rebind_method(poly, add, self._counter(add, on_add))
        mul = vars(poly)["__mul__"]
        _rebind_method(poly, mul, self._counter(mul, on_mul))
        koszul = mods["graded"].koszul_sign
        _rebind(koszul, self._counter(koszul, on_koszul))
        weight = mods["wick"].QuadraticWeight
        vev = vars(weight)["monomial_vev"]
        _rebind_method(weight, vev, self._top_level_vev(vev))
        import workloads
        workloads.compare = self._counter(workloads.compare, self._on_compare)
        return self

    def _top_level_vev(self, fn):
        """Count the monomial VEVs an expectation asks for, not the recursion."""
        depth = [0]
        stack, c = self.stack, self.counts

        def wrapper(weight, key):
            top = depth[0] == 0
            depth[0] += 1
            try:
                val = fn(weight, key)
            finally:
                depth[0] -= 1
            if top and stack:
                c["wick.vev.evaluated"] += 1
                if val:
                    c["wick.vev.live"] += 1
            return val
        return wrapper

    def _on_compare(self, args, result):
        for side in args:
            if not side.is_zero():
                self.counts["compared.nonzero"] += 1

    def _after_hooks(self):
        c = self.counts
        feyn_id = self._id("dual.feynman_value")

        def count(key, size=None):
            def hook(args, r, idx):
                c[key] += 1 if size is None else size(args, r)
            return hook

        def on_vertex_tensor(args, r, idx):
            c["frobenius.vertex_tensor_on_vectors.entries"] += len(r)
            p = self.parents[idx]
            if p >= 0 and self.name_ids[p] == feyn_id:
                self._assignments[p] = self._assignments.get(p, 1) * len(r)

        def on_feynman(args, r, idx):
            c["dual.feynman_value.calls"] += 1
            c["dual.feynman_value.assignments"] += self._assignments.pop(idx, 0)

        def on_canonical(args, r, idx):
            c["graphs.canonicalize_directed.calls"] += 1
            self._distinct.add((args[0], tuple(args[1])))
            if r[1] == 0:
                c["graphs.loops"] += 1

        def in_suite(idx):
            return self._parent_name(idx).startswith("dual.verify_")

        def compared(args, r, idx):
            # S and F values, and the boundary side of the chain-map identity
            if in_suite(idx):
                nonzero = not r.is_zero() if hasattr(r, "is_zero") else r != 0
                c["compared.nonzero"] += int(nonzero)

        def on_delta(args, r, idx):
            if in_suite(idx):
                self._suite_delta = r

        def on_wick_map(args, r, idx):
            # only I(delta chain) is compared; I(chain) is an intermediate
            if in_suite(idx) and args[0] is self._suite_delta:
                c["compared.nonzero"] += int(not r.is_zero())

        return {
            "dual.psi_of_word": count("dual.psi_of_word.out_terms",
                                      lambda a, r: len(r.terms)),
            "wick.expectation": count("wick.expectation.monomials",
                                      lambda a, r: len(a[1].terms)),
            "wick.chord_diagrams": count("wick.chord_diagrams.count",
                                         lambda a, r: len(r)),
            "linalg.inverse": count("linalg.inverse.calls"),
            "frobenius.vertex_tensor_on_vectors": on_vertex_tensor,
            "dual.feynman_value": on_feynman,
            "graphs.canonicalize_directed": on_canonical,
            "dual.s_functional": compared,
            "dual.feynman_on_chain": compared,
            "ce.ce_differential": on_delta,
            "dual.wick_map": on_wick_map,
            "graphs.boundary": compared,
        }

    # -- results ------------------------------------------------------------------
    def self_times(self):
        """Self time summed per span name."""
        n = len(self.starts)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {}
        for i in range(n):
            name = self.names[self.name_ids[i]]
            out[name] = out.get(name, 0.0) + (self.ends[i] - self.starts[i]) - child[i]
        return out

    def metrics(self, n_checks: int) -> dict:
        """Every per-layer metric except the overhead, which needs two passes."""
        c = self.counts
        own = self.self_times()
        total = sum(own.values())

        def self_s(name):
            return own.get(name, 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        names = {name for name, _ in LAYER_METRICS}
        out = {key: c[key] for key in COUNTERS if key in names}
        for name, unit in LAYER_METRICS:
            if name.endswith(".self_s") and name != "forms.self_s":
                out[name] = self_s(name[:-len(".self_s")])
        out["forms.self_s"] = sum((v for k, v in own.items() if k.startswith("forms.")),
                                  0.0)
        calls = c["graphs.canonicalize_directed.calls"]
        out["graphs.canonicalize_directed.distinct_ratio"] = ratio(len(self._distinct), calls)
        out["graphs.loop_ratio"] = ratio(c["graphs.loops"], calls)
        out["wick.live_ratio"] = ratio(c["wick.vev.live"], c["wick.vev.evaluated"])
        out["dual.nonzero_compared"] = ratio(c["compared.nonzero"], n_checks)
        for mod in SHARE_MODULES:
            out[f"share.{mod}"] = ratio(
                sum(v for k, v in own.items() if k.split(".")[0] == mod), total)
        out["share.dual.feynman_value"] = ratio(self_s("dual.feynman_value"), total)
        out["trace.spans"] = len(self.starts)
        return out

    def write(self, path):
        """Spans as gzip CSV: id, name, parent id, start and end in seconds."""
        t0 = self.starts[0] if len(self.starts) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,parent,start_s,end_s\n")
            for i in range(len(self.starts)):
                fh.write(f"{i},{self.names[self.name_ids[i]]},{self.parents[i]},"
                         f"{self.starts[i] - t0:.9f},{self.ends[i] - t0:.9f}\n")
