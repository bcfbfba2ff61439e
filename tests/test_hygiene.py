"""Source hygiene of the package and test modules.

No module of the package or of the tests imports a name it never uses, and
no package module sums polynomials by folding ``x = x + ...`` or sums a sparse
dict by hand with ``d[k] = d.get(k, 0) + v``, ``d[k] = d[k] + v if k in d
else v`` or ``if k in d: d[k] += v`` / ``else: d[k] = v``: every sparse
accumulation goes through ``graded.sparse_sum`` (the one function exempt),
and ``SuperPolynomial.sum`` is its polynomial case.  The library holds the
engine and ``tests/`` the oracles: no package name ends in ``_oracle``, and
no module imports from the tests.  The oracles never name the kernels they
check.  Every import of the package and of the tests is at module level.
No package module loops over a parity split, ``x.parity_components()`` or
``parity_components(x)`` (that split lives in ``tests/oracles.py``): every
derivation reads its signs off the terms, and a sign (-1)^{|x|} is the
grading involution ``x.grading_involution()``.  The integer kernels scale
Fractions to ints in one place: no package module takes the ``lcm`` of
denominators outside ``graded.integer_terms``.  Vertex tensors come from one
table per list of elements, and an algebra keeps the one on its basis
(``FrobeniusAlgebra.vertex_tensors``): no package code outside the entry
points ``vertex_tensor`` and ``vertex_tensor_on_vectors`` calls either of them.
Gauges come from one builder: no package code outside
``frobenius.gauge_at`` calls ``Gauge``.
Bounded memos have one idiom: no package module calls ``.clear()`` outside
``graded.memoised``, which empties a full cache before it stores an entry, and
none hand-rolls a memo of its own: no ``if k in d: return d[k]``, no
``if k not in d: d[k] = ...`` and no ``lru_cache`` or ``cache`` decorator.
Every ``BilinearForm`` of the package is checked when it is built, but for
the pairing of a ``FrobeniusAlgebra``, which ``verify_axioms`` reports on.
Every ``verify_*`` suite of ``dual`` returns a ``_report`` dict, at every
``return``.  Linear algebra has one elimination kernel: every public function
of ``linalg`` but ``rref`` calls ``rref``.  The engine never imports the helpers of the tests and the
benchmark: no package module but ``sampling`` imports ``forms``, and none
imports ``sampling``.  S reads none of the Feynman data of a gauge: no
method of ``dual.GaugeModel`` and no ``dual.s_functional`` reads its vertex
tensors, propagator, partners or amplitudes.  Every module-level function of
an engine module (all but ``forms`` and ``sampling``) is reached, through
references inside the package, from a name the benchmark reads or from one
of ``ENTRY_POINTS``: code that only the tests call lives in ``tests/``; so
is every method of their classes but the dunders.  The package has no
runtime dependency: the project declares none, and every import of the
package is relative or of a standard-library module.
"""
import ast
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "bvgraph"
BENCH = TESTS.parent / "bench"


def unused_imports(path):
    """Imported names that no expression of the module reads, as 'file:line name'."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    # an attribute chain such as linalg.rank starts with a Name node
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


def test_no_unused_imports():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    hits = [hit for path in paths for hit in unused_imports(path)]
    assert hits == []



def self_folds(source, name=""):
    """Assignments whose value is a +/- chain starting with the target itself."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        head = node.value
        while isinstance(head, ast.BinOp) and isinstance(head.op, (ast.Add, ast.Sub)):
            head = head.left
        # unparse, not dump: the target is a Store and the operand a Load
        if head is not node.value and ast.unparse(head) == ast.unparse(node.targets[0]):
            hits.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    return hits


def test_self_folds_are_detected():
    source = ("out = out + p\n"
              "imgs[t] = imgs[t] + q - r\n"
              "out = p + out\n"
              "total += c\n"
              "out = SuperPolynomial.sum(space, parts)\n")
    assert self_folds(source) == [":1 out = out + p", ":2 imgs[t] = imgs[t] + q - r"]


def test_no_polynomial_folds():
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in self_folds(path.read_text(encoding="utf-8"), path.name)]
    assert hits == []


def membership_accumulation(node):
    """Whether an ``if`` statement tests ``k in d`` (or ``k not in d``), adds
    to ``d[k]`` with ``+=`` in the branch where k is in d and assigns ``d[k]``
    in the other."""
    test = node.test
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.In, ast.NotIn))):
        return False
    slot = f"{ast.unparse(test.comparators[0])}[{ast.unparse(test.left)}]"
    present, absent = node.body, node.orelse
    if isinstance(test.ops[0], ast.NotIn):
        present, absent = absent, present
    return (any(isinstance(s, ast.AugAssign) and isinstance(s.op, ast.Add)
                and ast.unparse(s.target) == slot for s in present)
            and any(isinstance(s, ast.Assign) and ast.unparse(s.targets[0]) == slot
                    for s in absent))


def sparse_accumulations(source, name="", exempt=()):
    """Assignments whose value, or the ``if`` branch of a conditional value,
    is a ``+`` chain headed by ``d.get(k, default)`` or by the target
    ``d[k]``, and ``if k in d: d[k] += v`` / ``else: d[k] = v`` statements;
    the bodies of the functions named in `exempt` are skipped."""
    tree = ast.parse(source)
    skipped = {id(inner) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name in exempt
               for inner in ast.walk(node)}
    hits = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.If) and membership_accumulation(node):
            hits.append(f"{name}:{node.lineno} if {ast.unparse(node.test)}")
            continue
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        value = node.value.body if isinstance(node.value, ast.IfExp) else node.value
        head = value
        while isinstance(head, ast.BinOp) and isinstance(head.op, ast.Add):
            head = head.left
        if head is value:
            continue
        lookup = (isinstance(head, ast.Call) and isinstance(head.func, ast.Attribute)
                  and head.func.attr == "get" and len(head.args) == 2)
        refold = (isinstance(target, ast.Subscript)
                  and ast.unparse(head) == ast.unparse(target))
        if lookup or refold:
            hits.append(f"{name}:{node.lineno} {ast.unparse(node)}")
    return hits


def test_sparse_accumulations_are_detected():
    source = ("out[k] = out.get(k, Fraction(0)) + v\n"
              "cur = terms.get(w, Fraction(0)) + s * c\n"
              "out[k] = out[k] + v if k in out else v\n"
              "rows[i][j] += val\n"
              "degs[a] += 1\n"
              "total = total + v\n"
              "x = d.get(k) + 1\n"
              "out = sparse_sum((k, v) for k, v in pairs)\n"
              "for k, v in pairs:\n"
              "    if k in out:\n        out[k] += v\n"
              "    else:\n        out[k] = v\n"
              "    if key not in acc:\n        acc[key] = c\n"
              "    else:\n        acc[key] += c\n"
              "    if k in seen:\n        seen[k] += 1\n"
              "    if k in out:\n        out[k] -= v\n"
              "    else:\n        out[k] = -v\n"
              "def sparse_sum(pairs):\n"
              "    if k in out:\n        out[k] += v\n"
              "    else:\n        out[k] = v\n")
    assert sparse_accumulations(source, exempt={"sparse_sum"}) == [
        ":1 out[k] = out.get(k, Fraction(0)) + v",
        ":2 cur = terms.get(w, Fraction(0)) + s * c",
        ":3 out[k] = out[k] + v if k in out else v",
        ":10 if k in out",
        ":14 if key not in acc"]
    assert len(sparse_accumulations(source)) == 6


def test_sparse_sums_go_through_sparse_sum():
    # graded.sparse_sum is the one accumulator, so the form it is written in
    # is allowed there and nowhere else
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in sparse_accumulations(
                path.read_text(encoding="utf-8"), path.name,
                {"sparse_sum"} if path.name == "graded.py" else ())]
    assert hits == []


def oracle_names(source, name=""):
    """Functions, classes and methods whose name ends in ``_oracle``."""
    return [f"{name}:{node.lineno} {node.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.endswith("_oracle")]


def test_oracles_live_in_the_tests():
    assert oracle_names("class W:\n    def berezin_oracle(self): pass\n") == \
        [":2 berezin_oracle"]
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in oracle_names(path.read_text(encoding="utf-8"), path.name)]
    assert hits == []


def foreign_imports(source, name=""):
    """Absolute imports of modules outside the standard library, as
    'file:line module'."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        hits += [f"{name}:{node.lineno} {n}" for n in names
                 if n.split(".")[0] not in sys.stdlib_module_names]
    return hits


def test_foreign_imports_are_detected():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from fractions import Fraction\n"
              "from . import linalg\n"
              "from .graded import EVEN\n"
              "import os.path, sympy.core\n"
              "from scipy.sparse import csr_matrix\n")
    assert foreign_imports(source) == [":2 numpy", ":6 sympy.core", ":7 scipy.sparse"]


def test_no_runtime_dependency():
    # the engine runs on the standard library alone (exact Fractions, no
    # numeric package): the project declares no dependency, and the package
    # imports none
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((TESTS.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert project["project"]["dependencies"] == []
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in foreign_imports(path.read_text(encoding="utf-8"), path.name)]
    assert hits == []


def test_library_never_imports_the_tests():
    test_modules = {"tests"} | {path.stem for path in TESTS.glob("*.py")}
    hits = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            hits += [f"{path.name}:{node.lineno} {n}" for n in names
                     if n.split(".")[0] in test_modules]
    assert "oracles" in test_modules
    assert hits == []


# the helpers of the tests and the benchmark, each with the package modules
# that may import it: only sampling imports the form algebra, and no package
# module imports sampling
HELPERS = {"forms": {"sampling"}, "sampling": set()}


def helper_imports(source, module=""):
    """Imports of a helper by the package module `module` (a file stem) that
    ``HELPERS`` does not allow, relative or absolute: ``from .forms import
    X``, ``from . import forms``, ``import bvgraph.forms`` and the like."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("bvgraph" if node.level else "", node.module)))
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for parts in (n.split(".") for n in names):
            if (len(parts) == 2 and parts[0] == "bvgraph" and parts[1] in HELPERS
                    and module not in HELPERS[parts[1]]):
                hits.append(f"{module}:{node.lineno} {parts[1]}")
    return hits


def test_helper_imports_are_detected():
    source = ("from .forms import FormContext\n"
              "from . import forms, graded\n"
              "import bvgraph.forms\n"
              "from bvgraph.forms import FormContext\n"
              "from bvgraph import sampling\n"
              "from .graded import EVEN\n"
              "import bvgraph.symplectic\n")
    assert helper_imports(source, "symplectic") == [
        "symplectic:1 forms", "symplectic:2 forms", "symplectic:3 forms",
        "symplectic:4 forms", "symplectic:5 sampling"]
    assert helper_imports(source, "sampling") == ["sampling:5 sampling"]
    assert helper_imports(source, "__init__") == [
        "__init__:1 forms", "__init__:2 forms", "__init__:3 forms", "__init__:4 forms",
        "__init__:5 sampling"]


def test_engine_never_imports_the_test_helpers():
    # forms and sampling serve the tests and the benchmark; no engine path
    # loads them, and ``import bvgraph`` loads neither
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in helper_imports(path.read_text(encoding="utf-8"), path.stem)]
    assert hits == []


# the kernels that tests/oracles.py checks: the Feynman route (with the
# integer walk of products behind mu_k, its scaled structure constants, the
# integer vertex tensors and propagator, and the matrix scaling), the
# polynomial product (its key merge), the restriction, Psi of a monomial
# and mu_k on the gauge basis behind restricted Psi on the BV route, and the
# matchability cut of I, of the expectation and of S (the deficiency of a
# multiset under a matrix's support), and the sparse elimination kernel
KERNELS = {"feynman_value", "vertex_tensor_on_vectors", "VertexTensors",
           "_product_step", "integer_mult", "integer_mu", "integer_propagator",
           "integer_matrix", "chord_classes", "__mul__", "merge_keys",
           "_psi_monomial", "substitute", "restricted_mu", "MatchingSupport",
           "deficiency", "completable", "matchable_word", "rref"}


def read_names(node):
    """The names a syntax tree reads, by name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def kernel_uses(source):
    """The kernels a module imports or reads, by name or as an attribute
    such as ``dual.feynman_value``."""
    tree = ast.parse(source)
    imported = {alias.name.rsplit(".", 1)[-1] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    return sorted((imported | read_names(tree)) & KERNELS)


def test_oracles_never_use_the_kernels_they_check():
    source = ("from bvgraph.dual import feynman_value as fv\n"
              "from bvgraph import frobenius\n"
              "frobenius.VertexTensors(alg, els).products(2)\n"
              "import bvgraph.wick as w\n"
              "w.chord_classes(pars, word, support)\n"
              "from bvgraph.superpoly import merge_keys\n"
              "SuperPolynomial.__mul__(a, b)\n"
              "model._psi_monomial(key)\n"
              "d, entries = gauge.integer_mu(3)\n"
              "d_p, prop = graded.integer_matrix(gauge.propagator)\n"
              "from bvgraph.wick import MatchingSupport\n"
              "weight.support.deficiency(key)\n")
    assert kernel_uses(source) == ["MatchingSupport", "VertexTensors", "__mul__",
                                   "_psi_monomial", "chord_classes", "deficiency",
                                   "feynman_value", "integer_matrix", "integer_mu",
                                   "merge_keys"]
    assert kernel_uses((TESTS / "oracles.py").read_text(encoding="utf-8")) == []


# the vertex-tensor entry points for callers outside the package:
# vertex_tensor reads the algebra's table, vertex_tensor_on_vectors builds
# one of its own
ONE_SHOT = {"vertex_tensor", "vertex_tensor_on_vectors"}


def calls_outside(source, called, exempt=(), name=""):
    """Calls of the names in `called`, by name or as an attribute, outside
    the bodies of the functions named in `exempt`."""
    tree = ast.parse(source)
    skipped = {id(inner) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name in exempt
               for inner in ast.walk(node)}
    return [f"{name}:{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
            if id(node) not in skipped and isinstance(node, ast.Call)
            and called_name(node) in called]


def one_shot_calls(source, name=""):
    """Calls of the one-shot vertex-tensor functions outside their bodies."""
    return calls_outside(source, ONE_SHOT, ONE_SHOT, name)


def test_one_shot_calls_are_detected():
    source = ("mu = vertex_tensor_on_vectors(self.alg, self.vectors, k)\n"
              "mu = frobenius.vertex_tensor(alg, 3)\n"
              "mu = self.vertex_tensors.mu(k)\n"
              "def vertex_tensor(alg, k):\n"
              "    return vertex_tensor_on_vectors(alg, identity(n), k)\n")
    assert one_shot_calls(source) == [
        ":1 vertex_tensor_on_vectors(self.alg, self.vectors, k)",
        ":2 frobenius.vertex_tensor(alg, 3)"]


def test_library_builds_vertex_tensors_through_one_table():
    # a holder of mu_k keeps one VertexTensors table and reads every valence
    # from it; a one-shot call would rebuild the walk of products
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in one_shot_calls(path.read_text(encoding="utf-8"), path.name)]
    assert hits == []


def test_gauge_builds_are_detected():
    source = ("g = Gauge(alg, [(0, 1)], label='K2')\n"
              "g = frobenius.Gauge(alg, vectors)\n"
              "class Gauge(LagrangianSubspace):\n"
              "    pass\n"
              "def gauge_at(alg, coords, label=None):\n"
              "    return Gauge(alg, vectors, label=label)\n")
    assert calls_outside(source, {"Gauge"}, {"gauge_at"}) == [
        ":1 Gauge(alg, [(0, 1)], label='K2')", ":2 frobenius.Gauge(alg, vectors)"]
    assert len(calls_outside(source, {"Gauge"})) == 3


def test_library_builds_gauges_through_gauge_at():
    # every gauge of the package is a point of its algebra's gauge family:
    # frobenius.gauge_at is the one package function that builds a Gauge
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in calls_outside(path.read_text(encoding="utf-8"), {"Gauge"},
                                     {"gauge_at"} if path.name == "frobenius.py" else (),
                                     path.name)]
    assert hits == []


def local_imports(source, name=""):
    """Import statements inside a function or method body."""
    return [f"{name}:{inner.lineno} {ast.unparse(inner)}"
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]


def test_local_imports_are_detected():
    source = ("import os\n"
              "def f():\n    from . import linalg\n"
              "class C:\n    def g(self):\n        import math\n")
    assert local_imports(source) == [":3 from . import linalg", ":6 import math"]


def test_imports_are_at_module_level():
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    hits = [hit for path in paths
            for hit in local_imports(path.read_text(encoding="utf-8"), path.name)]
    assert hits == []


def called_name(call):
    """The name a call calls: ``f`` for ``f(x)`` and for ``m.f(x)``."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def parity_splits(source, name=""):
    """Loops and comprehensions whose iterable calls ``parity_components``, as
    a method or a function, in line order."""
    iters = sorted((node.iter for node in ast.walk(ast.parse(source))
                    if isinstance(node, (ast.For, ast.comprehension))),
                   key=lambda it: it.lineno)
    return [f"{name}:{it.lineno} {ast.unparse(it)}" for it in iters
            if any(isinstance(call, ast.Call) and called_name(call) == "parity_components"
                   for call in ast.walk(it))]


def test_parity_splits_are_detected():
    source = ("for part in a.parity_components():\n    pass\n"
              "out = [f(p) for p in q.parity_components() if p]\n"
              "for i, p in enumerate(f.parity_components()):\n    pass\n"
              "even, odd = x.parity_components()\n"
              "for term in terms:\n    pass\n"
              "for part in parity_components(b):\n    pass\n")
    assert parity_splits(source) == [":1 a.parity_components()",
                                     ":3 q.parity_components()",
                                     ":4 enumerate(f.parity_components())",
                                     ":9 parity_components(b)"]


def test_no_parity_splits():
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in parity_splits(path.read_text(encoding="utf-8"), path.name)]
    assert hits == []


def denominator_lcms(source, name="", exempt=()):
    """Calls of ``lcm`` (``math.lcm`` too) that read a ``.denominator``; the
    bodies of the functions named in `exempt` are skipped."""
    tree = ast.parse(source)
    skipped = {id(inner) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name in exempt
               for inner in ast.walk(node)}
    return [f"{name}:{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
            if id(node) not in skipped and isinstance(node, ast.Call)
            and called_name(node) == "lcm"
            and any(isinstance(inner, ast.Attribute) and inner.attr == "denominator"
                    for inner in ast.walk(node))]


def test_denominator_lcms_are_detected():
    source = ("d = lcm(*(v.denominator for v in terms.values()))\n"
              "d_p = math.lcm(p.denominator, q.denominator)\n"
              "n = lcm(3, 4)\n"
              "k = v.denominator\n"
              "def integer_terms(terms):\n"
              "    return lcm(*(v.denominator for v in terms.values()))\n")
    assert denominator_lcms(source, exempt={"integer_terms"}) == [
        ":1 lcm(*(v.denominator for v in terms.values()))",
        ":2 math.lcm(p.denominator, q.denominator)"]
    assert len(denominator_lcms(source)) == 3


def test_integer_scaling_goes_through_integer_terms():
    # graded.integer_terms is the one place that scales Fractions to ints
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in denominator_lcms(
                path.read_text(encoding="utf-8"), path.name,
                {"integer_terms"} if path.name == "graded.py" else ())]
    assert hits == []


def clear_calls(source, name="", exempt=()):
    """Calls of a ``.clear()`` method; the bodies of the functions named in
    `exempt` are skipped."""
    tree = ast.parse(source)
    skipped = {id(inner) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name in exempt
               for inner in ast.walk(node)}
    return [f"{name}:{node.lineno} {ast.unparse(node)}" for node in ast.walk(tree)
            if id(node) not in skipped and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "clear"]


def test_hand_rolled_memos_are_detected():
    source = ("hit = _cache.get(key)\n"
              "if hit is None:\n"
              "    hit = compute(key)\n"
              "    if len(_cache) >= _SIZE:\n"
              "        _cache.clear()\n"
              "    _cache[key] = hit\n"
              "hit = memoised(_cache, _SIZE, key, compute)\n"
              "def memoised(cache, size, key, compute):\n"
              "    cache.clear()\n")
    assert clear_calls(source, exempt={"memoised"}) == [":5 _cache.clear()"]
    assert len(clear_calls(source)) == 2


def memo_lookups(source, name=""):
    """Hand-rolled memos: ``if k in d`` whose body returns d[k], ``if k not
    in d`` whose body assigns d[k], for a dict d that outlives a call (an
    attribute or a module-level name), and ``lru_cache``/``cache``
    decorators."""
    tree = ast.parse(source)
    module_names = {t.id for node in tree.body if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare) \
                and len(node.test.ops) == 1:
            d = node.test.comparators[0]
            if not (isinstance(d, ast.Attribute)
                    or isinstance(d, ast.Name) and d.id in module_names):
                continue
            entry = ast.unparse(ast.Subscript(d, node.test.left))
            inner = [n for stmt in node.body for n in ast.walk(stmt)]
            returned = {ast.unparse(n.value) for n in inner
                        if isinstance(n, ast.Return) and n.value is not None}
            assigned = {ast.unparse(t) for n in inner if isinstance(n, ast.Assign)
                        for t in n.targets}
            op = type(node.test.ops[0])
            if entry in {ast.In: returned, ast.NotIn: assigned}.get(op, ()):
                hits.append(f"{name}:{node.lineno} if {ast.unparse(node.test)}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                called = target.attr if isinstance(target, ast.Attribute) else \
                    getattr(target, "id", None)
                if called in ("lru_cache", "cache"):
                    hits.append(f"{name}:{dec.lineno} @{ast.unparse(dec)}")
    return hits


def test_memo_lookups_and_cache_decorators_are_detected():
    # a dict local to one call, such as the first position of each variable
    # in a walk, is no memo
    source = ("_lists = {}\n"
              "if key in self._memo:\n"
              "    return self._memo[key]\n"
              "if k not in self._mu:\n"
              "    self._mu[k] = build(k)\n"
              "if k not in _lists:\n"
              "    _lists[k] = build(k)\n"
              "@lru_cache(maxsize=None)\n"
              "def diagrams(k):\n"
              "    return k\n"
              "@functools.cache\n"
              "def table(k):\n"
              "    return k\n"
              "if k in self._out:\n"
              "    self._out[k] += v\n"
              "if k not in self._seen:\n"
              "    self._seen.add(k)\n"
              "if v not in first:\n"
              "    first[v] = pos\n"
              "@cached_property\n"
              "def d_image(self):\n"
              "    return 1\n")
    assert memo_lookups(source) == [
        ":2 if key in self._memo", ":4 if k not in self._mu", ":6 if k not in _lists",
        ":8 @lru_cache(maxsize=None)", ":11 @functools.cache"]


def test_bounded_memos_go_through_memoised():
    # graded.memoised is the one bounded memo, so emptying a cache is
    # allowed there and nowhere else, and no module keeps a memo of its own
    hits = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        hits += clear_calls(source, path.name,
                            {"memoised"} if path.name == "graded.py" else ())
        hits += memo_lookups(source, path.name)
    assert hits == []


def unchecked_forms(source, name=""):
    """``BilinearForm`` calls that may skip the form's check: a ``check``
    argument other than the literal True, by keyword or in fifth place, each
    as 'file:line owner', the owner the classes and functions around it."""
    hits = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner + (child.name,))
                continue
            if isinstance(child, ast.Call) and called_name(child) == "BilinearForm":
                flags = [k.value for k in child.keywords if k.arg == "check"]
                flags += child.args[4:5]
                if any(not (isinstance(f, ast.Constant) and f.value is True) for f in flags):
                    hits.append(f"{name}:{child.lineno} {'.'.join(owner)}")
            visit(child, owner)
    visit(ast.parse(source), ())
    return hits


def test_unchecked_forms_are_detected():
    source = ("class FrobeniusAlgebra:\n"
              "    def __init__(self, space, rows):\n"
              "        self.pairing = BilinearForm(space, rows, ODD, 'sym', check=False)\n"
              "def i2_of_quadratic(sigma):\n"
              "    return symplectic.BilinearForm(space, rows, EVEN, 'sym', check=False)\n"
              "form = BilinearForm(space, rows, EVEN, 'sym', check=flag)\n"
              "form = BilinearForm(space, rows, EVEN, 'sym', False)\n"
              "form = BilinearForm(space, rows, EVEN, 'sym', check=True)\n"
              "form = BilinearForm(space, rows, EVEN, 'sym')\n"
              "report = verify(alg, check=False)\n")
    assert unchecked_forms(source) == [":3 FrobeniusAlgebra.__init__",
                                       ":5 i2_of_quadratic", ":6 ", ":7 "]


def test_only_the_algebra_pairing_skips_the_form_check():
    # an algebra's pairing may be degenerate or even (the vanishing theorem's
    # control algebra has an even one): verify_axioms reports it, so it is
    # built unchecked; every other form is checked
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in unchecked_forms(path.read_text(encoding="utf-8"), path.name)]
    assert [hit.split(" ", 1)[1] for hit in hits] == ["FrobeniusAlgebra.__init__"]
    assert hits[0].startswith("frobenius.py:")


def unreported_suites(source, name=""):
    """Top-level ``verify_*`` functions with no ``return`` or with one whose
    value is not a ``_report(...)`` call, as 'file:line function'."""
    hits = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("verify_"):
            values = [r.value for r in ast.walk(node) if isinstance(r, ast.Return)]
            if not values or not all(isinstance(v, ast.Call) and called_name(v) == "_report"
                                     for v in values):
                hits.append(f"{name}:{node.lineno} {node.name}")
    return hits


def test_unreported_suites_are_detected():
    source = ("def verify_vanishing_divergence(alg, v, zeta):\n"
              "    return divergence(psi(alg, zeta)).is_zero()\n"
              "def verify_commute(model, gm, chain):\n"
              "    if chain.is_zero():\n"
              "        return True\n"
              "    return _report('commute', ok)\n"
              "def verify_quietly(model):\n"
              "    model.check()\n"
              "def verify_master_equations(model):\n"
              "    return _report('master_equations', ok, wit)\n"
              "def psi_field(alg, eta):\n"
              "    return VectorField(space, images)\n")
    assert unreported_suites(source) == [":1 verify_vanishing_divergence",
                                         ":3 verify_commute", ":7 verify_quietly"]


def test_every_dual_suite_returns_a_report():
    source = (SRC / "dual.py").read_text(encoding="utf-8")
    suites = [node.name for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("verify_")]
    assert "verify_vanishing_divergence" in suites and len(suites) >= 8
    assert unreported_suites(source, "dual.py") == []


def kernel_bypasses(source, kernel="rref", name=""):
    """Public module-level functions, but `kernel` itself, whose bodies never
    call `kernel`, by name or as an attribute."""
    return [f"{name}:{node.lineno} {node.name}" for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            and node.name != kernel
            and not any(isinstance(call, ast.Call) and called_name(call) == kernel
                        for call in ast.walk(node))]


def test_kernel_bypasses_are_detected():
    source = ("def rref(rows):\n    return _reduce(rows)\n"
              "def _items(row):\n    return dict(enumerate(row))\n"
              "def rank(rows):\n    return len(rref(rows)[1])\n"
              "def determinant(a):\n"
              "    for col in range(len(a)):\n"
              "        for i in range(col + 1, len(a)):\n"
              "            a[i] = [x - a[i][col] / a[col][col] * y for x, y in zip(a[i], a[col])]\n"
              "    return prod(a[i][i] for i in range(len(a)))\n"
              "def is_invertible(a):\n    return rank(a) == len(a)\n"
              "def nullity(rows, n):\n    return n - len(linalg.rref(rows)[1])\n"
              "class Matrix:\n    def rank(self):\n        return 0\n")
    assert kernel_bypasses(source) == [":7 determinant", ":12 is_invertible"]


def test_linear_algebra_goes_through_one_kernel():
    # a second elimination loop in linalg would be a second place to keep
    # exact; every answer is read off the one sparse kernel
    source = (SRC / "linalg.py").read_text(encoding="utf-8")
    names = [node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)]
    assert {"rref", "rank", "nullspace", "solve", "inverse"} <= set(names)
    assert kernel_bypasses(source, name="linalg.py") == []


# the Feynman data a gauge carries: F reads it, S must not
FEYNMAN_DATA = {"vertex_tensors", "integer_propagator", "partners", "propagator",
                "amplitudes"}


def gauge_feynman_reads(source, name=""):
    """Reads of the gauge's Feynman data on the S route: an attribute in
    ``FEYNMAN_DATA`` of an expression that names ``gauge``, inside a method
    of ``GaugeModel`` or inside ``s_functional``."""
    route = []
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef) and top.name == "GaugeModel":
            route += [node for node in top.body if isinstance(node, ast.FunctionDef)]
        elif isinstance(top, ast.FunctionDef) and top.name == "s_functional":
            route.append(top)
    return [f"{name}:{node.lineno} {ast.unparse(node)}" for func in route
            for node in ast.walk(func)
            if isinstance(node, ast.Attribute) and node.attr in FEYNMAN_DATA
            and "gauge" in read_names(node.value)]


def test_gauge_feynman_reads_are_detected():
    source = ("class GaugeModel:\n"
              "    def __init__(self, model, gauge):\n"
              "        self.rows = gauge.propagator\n"
              "        self.mu = model.vertex_tensors\n"
              "    def _tallied_factor(self, key):\n"
              "        return self.gauge.vertex_tensors.integer_mu(len(key))\n"
              "class Gauge:\n"
              "    def __init__(self):\n"
              "        self.partners = partner_lists(self.propagator)\n"
              "def s_functional(model, gm, chain):\n"
              "    return gm.gauge.amplitudes, gm.gauge.vectors\n"
              "def feynman_value(gauge, graph):\n"
              "    return gauge.integer_propagator\n")
    assert gauge_feynman_reads(source) == [
        ":3 gauge.propagator", ":6 self.gauge.vertex_tensors",
        ":11 gm.gauge.amplitudes"]


def test_s_route_reads_none_of_the_gauges_feynman_data():
    # S and F share no object: S reads the algebra's table on the basis of
    # A and the gauge basis, F the gauge's own table and propagator
    source = (SRC / "dual.py").read_text(encoding="utf-8")
    assert "GaugeModel" in source and "s_functional" in source
    assert gauge_feynman_reads(source, "dual.py") == []


# the engine's entry points, each with the reason it is one; with the names
# the benchmark reads they are the roots from which every module-level
# function and every method of an engine module must be reached
ENTRY_POINTS = {
    "verify_axioms": "suite: the DG Frobenius axioms, which every JSON algebra passes",
    "verify_vanishing_divergence": "suite: Psi of a field has zero divergence",
    "verify_master_equations": "suite: sigma solves both master equations",
    "verify_commute": "suite: S = F o I on a CE chain",
    "verify_cocycle_graphs": "suite: F vanishes on graph boundaries",
    "verify_cocycle_chains": "suite: S vanishes on CE boundaries",
    "verify_gauge_independence": "suite: F agrees at two gauges on graph cycles",
    "verify_kontsevich_chain_map": "suite: I is a chain map",
    "verify_osp_invariance": "suite: S is osp-invariant",
    "k2": "algebra fixture K2",
    "g3": "algebra fixture G3",
    "so3_reduced": "algebra fixture so3red, whose F is the so(3) weight system",
    "direct_sum": "builds the fixtures that are sums, such as so3red + G3",
    "grassmann_algebra": "builds the Grassmann fixtures, such as G5",
    "g3_gauge": "the G3 gauges L(a, b, c, d) of the closed form",
    "gauge_at": "the one builder of gauges",
    "feynman_cochain": "the graph cochain: F on every graph of a bidegree",
    "algebra_to_json": "the JSON boundary, out",
    "algebra_from_json": "the JSON boundary, in",
    "SuperPolynomial.variable": "the coordinate functions y_i, the inputs of every polynomial",
    "VectorField.coordinate": "the coordinate fields d/dy_i, the inputs of every field",
    "SymplecticSpace.canonical_odd": "the odd symplectic spaces U_{n|n}, the BV model spaces",
}


def bench_names(source):
    """The names a benchmark module reads, and the parts of its dotted
    identifier strings, which name the functions the tracer wraps."""
    tree = ast.parse(source)
    return read_names(tree).union(*(
        n.value.split(".") for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
        and all(part.isidentifier() for part in n.value.split("."))))


def methods(cls):
    """The methods of a class that Python does not call by itself: all but
    the dunders such as ``__init__`` and ``__mul__``."""
    return [node for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def unreachable(sources, roots, reported):
    """Module-level functions and methods of module-level classes of the
    modules in `reported` that no chain of references from the names `roots`
    reaches, as 'module:line name' or 'module:line Class.method'; `sources`
    maps each module to its source.

    A top-level function or assignment reaches every name its body reads.
    A class reaches what its bases, decorators and body read, but for the
    bodies of its methods other than dunders: each of those is a name of
    its own, which reaches what it reads, and is reached where its name is
    read, as ``obj.name`` or ``Class.name``.  Any other top-level statement
    but an import runs on import, so what it reads is a root.  Names resolve
    by name alone: a dead function or method that shares its name with a
    live one passes, and no function or method that a chain of references
    reaches is reported.
    """
    reads, roots = {}, set(roots)
    for source in sources.values():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef):
                own = methods(node)
                for method in own:
                    reads.setdefault(method.name, set()).update(read_names(method))
                reads.setdefault(node.name, set()).update(*(
                    read_names(part) for part in (*node.bases, *node.keywords,
                                                  *node.decorator_list, *node.body)
                    if part not in own))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                reads.setdefault(node.name, set()).update(read_names(node))
            elif isinstance(node, ast.Assign):
                for target in set().union(*map(read_names, node.targets)):
                    reads.setdefault(target, set()).update(read_names(node.value))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= read_names(node)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(reads.get(name, ()))
    hits = []
    for module in sorted(reported):
        for node in ast.parse(sources[module]).body:
            if isinstance(node, ast.FunctionDef) and node.name not in reached:
                hits.append(f"{module}:{node.lineno} {node.name}")
            elif isinstance(node, ast.ClassDef):
                hits += [f"{module}:{method.lineno} {node.name}.{method.name}"
                         for method in methods(node) if method.name not in reached]
    return hits


def test_unreachable_functions_are_detected():
    sources = {
        "wick": ("from .graded import koszul_sign, unused\n"
                 "_SIZE = _size()\n"
                 "class Weight:\n"
                 "    def sign(self):\n        return chord_sign(self.p, self.c)\n"
                 "def chord_sign(parities, chord):\n    return koszul_sign(chord, parities)\n"
                 "def flat_integral(f):\n    return berezin(f)\n"
                 "def berezin(f):\n    return f\n"),
        "graded": ("def koszul_sign(order, parities):\n    return _table()[order]\n"
                   "def _table():\n    return {}\n"
                   "def _size():\n    return 16\n"
                   "def unused():\n    return 0\n"
                   "register(hook)\n"
                   "def hook():\n    return 1\n"),
        "sampling": "def draw(rng):\n    return rng\n",
    }
    assert unreachable(sources, {"Weight", "sign"}, {"wick", "graded", "sampling"}) == [
        "graded:5 _size", "graded:7 unused", "sampling:1 draw",
        "wick:8 flat_integral", "wick:10 berezin"]
    assert unreachable(sources, {"Weight", "sign", "_SIZE", "flat_integral"},
                       {"wick", "graded"}) == ["graded:7 unused"]
    assert bench_names('SPANS = (("wick", "QuadraticWeight.expectation", "wick.live ratio"),)\n'
                       "dual.verify_commute(model, gm, chain)\n") == {
        "SPANS", "wick", "QuadraticWeight", "expectation", "dual", "verify_commute",
        "model", "gm", "chain"}


def test_unreachable_methods_are_detected():
    # a method is reached by its name alone, from a reached name or a root:
    # Base.table through alg.table in Model.__init__; a reached class
    # reaches its dunders, its class body and its bases, not its other
    # methods
    source = ("class Model(Base):\n"
              "    SIZE = _size()\n"
              "    def __init__(self, alg):\n        self.mu = alg.table.mu\n"
              "    def __mul__(self, other):\n        return self.lift(other)\n"
              "    def lift(self, key):\n        return key\n"
              "    def psi(self, h):\n        return self.lift(h)\n"
              "    @classmethod\n"
              "    def canonical(cls, n):\n        return cls(n)\n"
              "    def render(self):\n        return _text(self)\n"
              "class Base:\n"
              "    def table(self):\n        return {}\n"
              "def _size():\n    return 4\n"
              "def _text(x):\n    return str(x)\n"
              "def run(model):\n    return model.render()\n")
    sources = {"dual": source}
    assert unreachable(sources, {"Model"}, {"dual"}) == [
        "dual:9 Model.psi", "dual:12 Model.canonical", "dual:14 Model.render",
        "dual:21 _text", "dual:23 run"]
    assert unreachable(sources, {"Model", "run", "canonical"}, {"dual"}) == [
        "dual:9 Model.psi"]


def test_every_engine_function_is_reachable():
    # the library holds what the engine reaches, and tests/ what only the
    # tests call; the benchmark's names are roots, so a name it wraps stays.
    # A method entry point is named as Class.method and reached by its name
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    defined = set()
    for source in sources.values():
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, ast.ClassDef):
                defined |= {f"{node.name}.{method.name}" for method in methods(node)}
    assert set(ENTRY_POINTS) <= defined
    roots = {name.rsplit(".", 1)[-1] for name in ENTRY_POINTS}.union(*(
        bench_names(path.read_text(encoding="utf-8")) for path in BENCH.glob("*.py")))
    assert unreachable(sources, roots, set(sources) - set(HELPERS)) == []
