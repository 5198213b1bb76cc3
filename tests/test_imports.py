"""Every name imported by the package and its tests is referenced (pyflakes' F401, by ``ast``),
every private module-level helper of the package is used somewhere in it, every public function
and method of the package is referenced somewhere in the package, tests, scripts or benchmark,
every defaulted parameter of the package is passed by some call in them, every double-backtick
name in a docstring or comment of the package names something that it defines or imports,
only ``metrics`` (and the negative control) calls ``gram``, ``cross_covariance`` or ``moments``,
singular vectors and eigendecompositions are taken in their few homes only, and the batch and
minibatch drivers share one loop, which copies no rule that has its own home in ``appgrad`` and
throws nothing into a row source, and a record's ridge is read in its two homes only."""

import ast
import builtins
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/ccakit/*.py"))
FILES = sorted([*SRC, *ROOT.glob("tests/*.py")])


def unused_imports(source):
    """Sorted (line, name) of each name an import binds and nothing references. Imports on
    lines marked ``# noqa: F401`` and names listed in ``__all__`` count as referenced."""
    tree, lines = ast.parse(source), source.splitlines()
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                  for t in node.targets):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
            if marked or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_sees_what_it_must():
    source = ("import os\nimport numpy.linalg\nfrom sys import (  # noqa: F401\n    argv)\n"
              "from json import dumps, loads as _loads\n__all__ = ['dumps']\n"
              "numpy.linalg.norm\n")
    assert unused_imports(source) == [(1, "os"), (5, "_loads")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_private_helpers(sources):
    """Sorted (module, name) of each module-level function or class named ``_name`` that no
    module of ``sources`` ({module: source}) references by name, attribute or import."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
    return sorted((module, name) for module, name in defined if name not in used)


def test_dead_helper_checker_sees_what_it_must():
    sources = {"a": "def _dead(x):\n    return x\ndef _called():\n    pass\nclass _Kept:\n"
                    "    pass\ndef __getattr__(name):\n    pass\n_called()\n",
               "b": "from a import _Kept\nimport a\na._attr_used\n",
               "c": "def _attr_used():\n    pass\nclass _Unused:\n    pass\n"}
    assert dead_private_helpers(sources) == [("a", "_dead"), ("c", "_Unused")]


def test_no_dead_private_helpers():
    assert dead_private_helpers({p.stem: p.read_text() for p in SRC}) == []


def unreferenced_public_functions(package, others):
    """Sorted (module, qualified name) of each public module-level function, or public method of
    a module-level class, in ``package`` ({module: source}) whose name nothing in ``package`` or
    ``others`` (a list of sources) references by name, attribute or import. A ``def`` does not
    reference the name it defines, though a recursive call in its body does."""
    defined, used = [], set()
    for module, source in package.items():
        body = ast.parse(source).body
        defined += [(module, node.name, node.name) for node in body
                    if isinstance(node, ast.FunctionDef)]
        defined += [(module, f"{c.name}.{f.name}", f.name) for c in body
                    if isinstance(c, ast.ClassDef) for f in c.body
                    if isinstance(f, ast.FunctionDef)]
    for source in [*package.values(), *others]:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted((module, qualified) for module, qualified, name in defined
                  if not name.startswith("_") and name not in used)


def test_unreferenced_function_checker_sees_what_it_must():
    package = {"a": "def unused():\n    pass\ndef called():\n    pass\ndef _private():\n"
                    "    pass\nclass C:\n    def __init__(self):\n        pass\n"
                    "    def attr_used(self):\n        pass\n    def dead(self):\n        pass\n"
                    "called()\n",
               "b": "def imported():\n    pass\n"}
    others = ["from b import imported\nobj.attr_used()\n"]
    assert unreferenced_public_functions(package, others) == [("a", "C.dead"), ("a", "unused")]


def test_no_unreferenced_public_functions():
    others = [p.read_text() for d in ("tests", "scripts", "perfbench")
              for p in sorted(ROOT.glob(f"{d}/*.py"))]
    assert unreferenced_public_functions({p.stem: p.read_text() for p in SRC}, others) == []


def dead_parameters(package, callers):
    """Sorted (module, function, parameter) of each defaulted parameter of a ``def`` in
    ``package`` ({module: source}) that no call in ``callers`` (a list of sources) passes by
    keyword, by position or through ``*``/``**``. A call reaches every ``def`` of its name
    (``f(...)``, ``obj.f(...)``, ``partial(f, ...)``; ``C(...)`` reaches ``C.__init__``), and a
    method's positions start after ``self``."""
    defs = {}  # call name -> [(module, qualified name, positional names, defaulted names)]
    for module, source in package.items():
        tree = ast.parse(source)
        methods = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            a, cls = node.args, methods.get(id(node))
            positional = [p.arg for p in a.posonlyargs + a.args]
            if cls and "staticmethod" not in {getattr(d, "id", None) for d in node.decorator_list}:
                positional = positional[1:]
            defaulted = positional[len(positional) - len(a.defaults):] + [
                p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            name = cls if node.name == "__init__" else node.name
            qualified = f"{cls}.{node.name}" if cls else node.name
            defs.setdefault(name, []).append((module, qualified, positional, set(defaulted)))
    passed = set()
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if getattr(func, "id", None) == "partial" and args:
                func, args = args[0], args[1:]
            for module, qualified, positional, _ in defs.get(
                    getattr(func, "id", None) or getattr(func, "attr", None), ()):
                spread = any(isinstance(a, ast.Starred) for a in args)
                passed.update((qualified, p) for p in positional[:None if spread else len(args)])
                for kw in node.keywords:
                    if kw.arg is None:  # **kwargs may carry any parameter
                        passed.update((qualified, p) for p in positional)
                    passed.add((qualified, kw.arg))
    return sorted((module, qualified, p) for entries in defs.values()
                  for module, qualified, _, defaulted in entries
                  for p in defaulted if (qualified, p) not in passed)


def test_dead_parameter_checker_sees_what_it_must():
    package = {"a": "def f(x, y=1, z=2, *, w=3):\n    pass\ndef g(x, y=1, z=2):\n    pass\n"
                    "def h(x, y=1):\n    pass\nclass C:\n    def __init__(self, v=0, u=1):\n"
                    "        pass\n    def m(self, s=1):\n        pass\n"}
    callers = ["f(1, 2)\ng(*args)\nh(1, **kw)\nC(5)\nobj.m(s=2)\n",
               "from functools import partial\npartial(f, 0, w=1)\n"]
    assert dead_parameters(package, callers) == [("a", "C.__init__", "u"), ("a", "f", "z")]


# appgrad_step_rank1 reaches run_appgrad only as step_fn, which passes lam positionally
DEAD_PARAMETER_ALLOWLIST = [("appgrad", "appgrad_step_rank1", "lam")]


def test_no_dead_parameters():
    callers = [p.read_text() for d in ("src/ccakit", "tests", "scripts", "perfbench")
               for p in sorted(ROOT.glob(f"{d}/*.py"))]
    package = {p.stem: p.read_text() for p in SRC}
    assert dead_parameters(package, callers) == DEAD_PARAMETER_ALLOWLIST


def stale_doc_names(package):
    """Sorted (module, name) of each double-backtick name in a docstring or comment of ``package``
    ({module: source}) that names nothing the package defines or imports. A name is the dotted
    identifier that opens the quoted text; past a module or class of the package, each further
    part must be defined there too, while the attributes of a variable or an imported module
    (``X.T``, ``np.take``) are not checked."""
    defined, scopes, texts = set(dir(builtins)) | set(package), set(package), {}
    for module, source in package.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined.add(node.name)
                scopes.add(node.name)
            elif isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                defined.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                defined.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
                defined.update(alias.name for alias in node.names)
            if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)):
                texts.setdefault(module, []).append(ast.get_docstring(node) or "")
        texts[module] += [tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                          if tok.type == tokenize.COMMENT]
    stale = set()
    for module, chunks in texts.items():
        for quoted in re.findall(r"``([^`]+)``", "\n".join(chunks)):
            name = re.match(r"[\w.]*", quoted).group().strip(".")
            if not name or name[0].isdigit():
                continue
            head, *rest = name.split(".")
            if head not in defined or (head in scopes and not set(rest) <= defined):
                stale.add((module, name))
    return sorted(stale)


def test_stale_doc_name_checker_sees_what_it_must():
    package = {"a": '"""Uses ``b.f``, ``b.gone``, ``C.m``, ``x.T``, ``np.take`` and ``lost``."""\n'
                    "import numpy as np\nclass C:\n    def m(self, x):\n        pass  # ``C.n``\n",
               "b": "def f():\n    pass\n"}
    assert stale_doc_names(package) == [("a", "C.n"), ("a", "b.gone"), ("a", "lost")]


# names quoted on purpose: a method of the standard library's FileIO, and a removed report field
STALE_DOC_NAME_ALLOWLIST = [("io", "readall"), ("metrics", "err")]


def test_no_stale_doc_names():
    assert stale_doc_names({p.stem: p.read_text() for p in SRC}) == STALE_DOC_NAME_ALLOWLIST


MOMENT_FORMERS = ("gram", "cross_covariance", "moments")


def scoped_nodes(package):
    """(module, scope, node) of each AST node in ``package`` ({module: source}). The scope is the
    module-level function, the class method (``C.m``), the rest of a class (``C``) or the rest of
    the module (``<module>``) that holds the node."""
    for module, source in package.items():
        scopes = []
        for node in ast.parse(source).body:
            if isinstance(node, ast.FunctionDef):
                scopes.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                scopes += [(f"{node.name}.{f.name}" if isinstance(f, ast.FunctionDef)
                            else node.name, f) for f in node.body]
            else:
                scopes.append(("<module>", node))
        yield from ((module, scope, inner) for scope, node in scopes for inner in ast.walk(node))


def scoped_calls(package, names):
    """(module, scope, call) of each call of a ``names`` name, as ``f(...)`` or ``obj.f(...)``, in
    ``package`` ({module: source}), scoped as in ``scoped_nodes``."""
    yield from ((module, scope, call) for module, scope, call in scoped_nodes(package)
                if isinstance(call, ast.Call) and (getattr(call.func, "id", None)
                                                   or getattr(call.func, "attr", None)) in names)


def moment_calls(package):
    """Sorted (module, scope) of each call of a MOMENT_FORMERS name (see ``scoped_calls``) in a
    module of ``package`` other than ``metrics``."""
    return sorted({(module, scope) for module, scope, _ in scoped_calls(
        {m: source for m, source in package.items() if m != "metrics"}, MOMENT_FORMERS)})


def test_moment_call_checker_sees_what_it_must():
    package = {"a": "def f(X):\n    return gram(X)\nclass C:\n    def m(self, X, Y):\n"
                    "        return linalg.cross_covariance(X, Y)\n    S = moments(X, Y)\n"
                    "def g(X):\n    return kernel_gram(X), X.view_gram(0), gram\n",
               "b": "M = moments(X, Y)\n",
               "metrics": "def h(X, Y):\n    return gram(X), cross_covariance(X, Y)\n"}
    assert moment_calls(package) == [("a", "C"), ("a", "C.m"), ("a", "f"), ("b", "<module>")]


# the negative control forms its own Grams; every other reader takes a metrics.Views
MOMENT_CALL_ALLOWLIST = [("reference", "naive_gradient_step")]


def test_moments_are_formed_in_metrics_only():
    assert moment_calls({p.stem: p.read_text() for p in SRC}) == MOMENT_CALL_ALLOWLIST


def svd_vector_calls(package):
    """Sorted (module, scope) of each ``svd`` call (see ``scoped_calls``) in ``package`` that
    computes singular vectors, that is, one not passed ``compute_uv=False``."""
    return sorted({(module, scope) for module, scope, call in scoped_calls(package, ("svd",))
                   if not any(kw.arg == "compute_uv" and getattr(kw.value, "value", True) is False
                              for kw in call.keywords)})


def test_svd_vector_checker_sees_what_it_must():
    package = {"a": "def f(C):\n    return svd(C, full_matrices=False)\nclass C:\n"
                    "    def m(self, A):\n        return linalg.svd(A, compute_uv=True)\n"
                    "def g(A):\n    return svd(A, compute_uv=False), randomized_svd(A, 2), svd\n",
               "b": "U, s, Vt = np.linalg.svd(M)\n"}
    assert svd_vector_calls(package) == [("a", "C.m"), ("a", "f"), ("b", "<module>")]


# a rotation onto canonical pairs goes through reference.canonical_pairs; the other two
# factor a sketch (randomized_svd) or align two iterates (procrustes_distance)
SVD_VECTOR_ALLOWLIST = [("appgrad", "procrustes_distance"), ("linalg", "randomized_svd"),
                        ("reference", "canonical_pairs")]


def test_singular_vectors_are_taken_in_canonical_pairs_only():
    assert svd_vector_calls({p.stem: p.read_text() for p in SRC}) == SVD_VECTOR_ALLOWLIST


def eigensolve_calls(package):
    """Sorted (module, scope) of each ``eigh`` or ``eigvalsh`` call (see ``scoped_calls``) in
    ``package``."""
    return sorted({(module, scope) for module, scope, _ in
                   scoped_calls(package, ("eigh", "eigvalsh"))})


def test_eigensolve_checker_sees_what_it_must():
    package = {"a": "def f(S):\n    return eigh(S)\nclass C:\n    def m(self, S):\n"
                    "        return np.linalg.eigvalsh(S)\n"
                    "def g(S):\n    return sym_inv_sqrt(S), S.view_eigvals(0), eigh\n",
               "b": "w = scipy.linalg.eigh(S, eigvals_only=True)\n"}
    assert eigensolve_calls(package) == [("a", "C.m"), ("a", "f"), ("b", "<module>")]


# a view Gram's spectrum comes from Views.view_eigvals, a full inverse root from sym_inv_sqrt;
# the rest decompose a k-by-k iterate Gram, a kernel, the joint moment or two bases' Grams
EIGENSOLVE_ALLOWLIST = [("appgrad", "_whiten"), ("kernels", "check_psd"),
                        ("linalg", "sym_inv_sqrt"), ("metrics", "Views.view_eigvals"),
                        ("metrics", "_joint_pair"), ("metrics", "principal_angles")]


def test_eigensolves_are_taken_in_their_homes_only():
    assert eigensolve_calls({p.stem: p.read_text() for p in SRC}) == EIGENSOLVE_ALLOWLIST


QR_CALLS = ("qr", "geqrt", "dgeqrt", "gemqrt", "dgemqrt", "geqrf", "dgeqrf")


def qr_calls(package):
    """Sorted (module, scope) of each QR_CALLS call (see ``scoped_calls``) in ``package``."""
    return sorted({(module, scope) for module, scope, _ in scoped_calls(package, QR_CALLS)})


def test_qr_checker_sees_what_it_must():
    package = {"a": "def f(A):\n    return qr(A, mode='economic')\nclass C:\n    def m(self, A):\n"
                    "        return lapack.dgeqrt(128, A)\n"
                    "def g(A):\n    return qr_cca(A, A, 1), householder_qr(A), thin_q(A), qr\n",
               "b": "H, info = dgemqrt(V, T, C)\n",
               "c": "def h(A):\n    return np.linalg.qr(A), dgeqrf(A)\n"}
    assert qr_calls(package) == [("a", "C.m"), ("a", "f"), ("b", "<module>"), ("c", "h")]


# every n-row QR is linalg's compact-WY home; planted._mixing keeps scipy's qr, which defines
# its p-by-p rotations bit for bit
QR_ALLOWLIST = [("linalg", "apply_q"), ("linalg", "householder_qr"), ("planted", "_mixing")]


def test_qrs_are_taken_in_their_home_only():
    assert qr_calls({p.stem: p.read_text() for p in SRC}) == QR_ALLOWLIST


LOOP_CALLS = ("RunReport", "extract_model", "replace")


def loop_call_scopes(package):
    """{name: sorted (module, scope)} of the calls of each LOOP_CALLS name, as ``f(...)`` or
    ``obj.f(...)``, in ``package`` ({module: source}). The scope is the module-level function or
    class that holds the call (its nested functions included), or ``<module>`` outside one."""
    found = {name: set() for name in LOOP_CALLS}
    for module, source in package.items():
        for node in ast.parse(source).body:
            for call in ast.walk(node):
                name = isinstance(call, ast.Call) and (getattr(call.func, "id", None)
                                                       or getattr(call.func, "attr", None))
                if name in found:
                    found[name].add((module, getattr(node, "name", "<module>")))
    return {name: sorted(scopes) for name, scopes in found.items()}


def test_loop_call_checker_sees_what_it_must():
    package = {"a": "def _drive(s):\n    RunReport()\n    def last():\n        return replace(s)\n"
                    "def run(s):\n    return appgrad.extract_model(s)\nr = RunReport()\n",
               "b": "class C:\n    def m(self, s):\n        return replace(s)\n"}
    assert loop_call_scopes(package) == {"RunReport": [("a", "<module>"), ("a", "_drive")],
                                         "extract_model": [("a", "run")],
                                         "replace": [("a", "_drive"), ("b", "C")]}


def test_the_drivers_share_one_loop():
    sources = {p.stem: p.read_text() for p in SRC if p.stem in ("appgrad", "stochastic")}
    assert loop_call_scopes(sources) == {name: [("appgrad", "_drive")] for name in LOOP_CALLS}
    for module, driver in (("appgrad", "run_appgrad"), ("stochastic", "run_stochastic")):
        node = next(n for n in ast.parse(sources[module]).body if getattr(n, "name", "") == driver)
        assert not [n for n in ast.walk(node) if isinstance(n, (ast.For, ast.While))], driver


PRICE_HOME = ("appgrad", "AppGradState.step_price")
# the ridge of a record: projected_correlations applies it, a record on a whitened cache divides
# by it, so the two must agree
RIDGE_READERS = (("appgrad", "AppGradState.tcc"), ("metrics", "projected_correlations"))


def loop_rule_copies(package):
    """Sorted (module, scope, finding) of each copy of a rule that ``appgrad`` keeps in one home,
    in ``package`` ({module: source}): a call of the ``step_flops`` formula outside PRICE_HOME
    (see ``scoped_calls``); a read of ``RIDGE_SCALE`` outside RIDGE_READERS; an ``evaluate`` or
    ``tol`` parameter of ``_drive`` (the run's ``Views`` scores, its config holds tol), a
    ``.whiteners`` read in it or a ``projected_correlations`` call in it (a record is scored by
    ``AppGradState.tcc`` or ``Views.evaluate``); and, in ``appgrad_step_rank1``, a count of
    ``_step`` calls other than one or a raise other than ``ValueError`` (the collapse bound lives
    in ``_step``)."""
    found = {(module, scope, "calls step_flops") for module, scope, _ in
             scoped_calls(package, ("step_flops",)) if (module, scope) != PRICE_HOME}
    found.update((module, scope, "reads RIDGE_SCALE") for module, scope, n in scoped_nodes(package)
                 if (getattr(n, "id", None) or getattr(n, "attr", None)) == "RIDGE_SCALE"
                 and isinstance(n.ctx, ast.Load) and (module, scope) not in RIDGE_READERS)
    for node in ast.parse(package.get("appgrad", "")).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        inner = list(ast.walk(node))
        if node.name == "_drive":
            found.update(("appgrad", "_drive", f"parameter {a.arg}")
                         for a in node.args.args + node.args.kwonlyargs
                         if a.arg in ("evaluate", "tol"))
            if any(isinstance(n, ast.Attribute) and n.attr == "whiteners" for n in inner):
                found.add(("appgrad", "_drive", "reads .whiteners"))
            if any(isinstance(n, ast.Call) and (getattr(n.func, "id", None) or getattr(
                    n.func, "attr", None)) == "projected_correlations" for n in inner):
                found.add(("appgrad", "_drive", "calls projected_correlations"))
        elif node.name == "appgrad_step_rank1":
            steps = sum(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_step"
                        for n in inner)
            if steps != 1:
                found.add(("appgrad", node.name, f"{steps} _step calls"))
            found.update(("appgrad", node.name, f"raises {ast.unparse(n.exc)}") for n in inner
                         if isinstance(n, ast.Raise) and not (
                             isinstance(n.exc, ast.Call) and getattr(n.exc.func, "id", "") ==
                             "ValueError"))
    return sorted(found)


def test_loop_rule_checker_sees_what_it_must():
    package = {"appgrad": "from .metrics import RIDGE_SCALE\n"
                          "class AppGradState:\n    def step_price(self, X, Y):\n"
                          "        return step_flops(1, 2, 3, 4)\n"
                          "    def tcc(self, U, V):\n        return svd(U.T @ V) / RIDGE_SCALE\n"
                          "def _drive(rows, evaluate, state, tol=0.0):\n"
                          "    def cost(X):\n"
                          "        return metrics.step_flops(X, state.whiteners)\n"
                          "    def record():\n"
                          "        return metrics.projected_correlations(*rows)\n"
                          "def appgrad_step_rank1(state):\n    if state.k != 1:\n"
                          "        raise ValueError('rank-1')\n    new = _step(state)\n"
                          "    if new.whiteners[0] > 1e14:\n"
                          "        raise DegenerateIterateError()\n"
                          "    return _step(new)\n",
               "metrics": "RIDGE_SCALE = 1e-10\n"
                          "def projected_correlations(U, V):\n    return RIDGE_SCALE * U\n"
                          "class Views:\n    ridge = 2 * RIDGE_SCALE\n",
               "stochastic": "def run(X):\n"
                             "    return step_flops(X), step_price(X), metrics.RIDGE_SCALE\n"}
    assert loop_rule_copies(package) == [
        ("appgrad", "_drive", "calls projected_correlations"),
        ("appgrad", "_drive", "calls step_flops"), ("appgrad", "_drive", "parameter evaluate"),
        ("appgrad", "_drive", "parameter tol"), ("appgrad", "_drive", "reads .whiteners"),
        ("appgrad", "appgrad_step_rank1", "2 _step calls"),
        ("appgrad", "appgrad_step_rank1", "raises DegenerateIterateError()"),
        ("metrics", "Views", "reads RIDGE_SCALE"),
        ("stochastic", "run", "calls step_flops"), ("stochastic", "run", "reads RIDGE_SCALE")]
    assert loop_rule_copies({"appgrad": "def appgrad_step_rank1(s):\n    return s\n"}) == [
        ("appgrad", "appgrad_step_rank1", "0 _step calls")]


def test_the_loop_keeps_no_copy_of_a_rule():
    assert loop_rule_copies({p.stem: p.read_text() for p in SRC}) == []


def throw_calls(package):
    """Sorted (module, scope) of each call of a ``.throw`` attribute (see ``scoped_calls``) in
    ``package``: a row source is a plain iterator, and the loop alone handles a degenerate step."""
    return sorted({(module, scope) for module, scope, call in scoped_calls(package, ("throw",))
                   if isinstance(call.func, ast.Attribute)})


def test_throw_checker_sees_what_it_must():
    package = {"a": "def f(batches, exc):\n    return batches.throw(exc)\nclass C:\n"
                    "    def m(self):\n        self.gen.throw(ValueError)\n"
                    "def g(throw, gen):\n    return throw(1), gen.throw, next(gen)\n",
               "b": "rows = source.throw(err)\n"}
    assert throw_calls(package) == [("a", "C.m"), ("a", "f"), ("b", "<module>")]


def test_no_row_source_is_thrown_into():
    assert throw_calls({p.stem: p.read_text() for p in SRC}) == []
