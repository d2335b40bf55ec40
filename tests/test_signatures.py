"""Every parameter of a library function is read by its body: a parameter
that nothing reads is a setting that does nothing. Likewise every name a
library module imports is used: an unused import is left over from code
that has gone. And no library check is an assert, which python -O strips."""

import ast
import pathlib

import mrange as mr

SRC = pathlib.Path(mr.__file__).parent


def unread_parameters(source):
    """(function name, parameter) for each parameter of each function or
    lambda in ``source`` that no expression in its body loads; a nested
    function's reads count for the function that encloses it."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        out += [(name, p) for p in params if p not in read]
    return out


def test_detects_an_unread_parameter():
    source = "def f(a, tol=None):\n    return a\n\ng = lambda x, y: x\n"
    assert unread_parameters(source) == [("f", "tol"), ("<lambda>", "y")]


def test_nested_reads_count():
    source = "def f(a):\n    def g():\n        return a\n    return g\n"
    assert unread_parameters(source) == []


def test_every_library_parameter_is_read():
    unread = {path.name: unread_parameters(path.read_text())
              for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in unread.items() if v} == {}


def _own_nodes(scope):
    """The nodes of scope's body, without those of the functions nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(source):
    """Each name that an import binds and that nothing in the import's scope
    (the function holding it, else the module) loads, in source order."""
    tree = ast.parse(source)
    out = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        loaded = {n.id for n in ast.walk(scope)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in _own_nodes(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                # "import a.b" binds a
                out += [(node.lineno, name) for name in
                        (alias.asname or alias.name.split(".")[0] for alias in node.names)
                        if name not in loaded]
    return [name for _, name in sorted(out)]


def test_detects_an_unused_import():
    source = ("import scipy.linalg\nimport numpy as np\nfrom .x import a, b\n\n"
              "def f():\n    from .y import c\n    return np.eye(2), a\n\n"
              "def g():\n    return c\n")
    assert unused_imports(source) == ["scipy", "b", "c"]


def test_every_library_import_is_used():
    unused = {path.name: unused_imports(path.read_text())
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {k: v for k, v in unused.items() if v} == {}


def function_package_imports(source, package="mrange"):
    """(function name, module) for each import inside a function of
    ``source`` that names a module of the package, relatively or by the
    package's name, in source order: no module of the package imports one
    that imports it, so no such import breaks a cycle, and each belongs at
    module level."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in _own_nodes(fn):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                if node.level or module.split(".")[0] == package:
                    out.append((node.lineno, fn.name, module))
            elif isinstance(node, ast.Import):
                out += [(node.lineno, fn.name, alias.name) for alias in node.names
                        if alias.name.split(".")[0] == package]
    return [(name, module) for _, name, module in sorted(out)]


def test_detects_a_package_import_in_a_function():
    source = ("import numpy as np\nfrom . import ando\n\n"
              "def f():\n    from . import cli\n    from .cpmaps import choi\n"
              "    import mrange.linalg\n    import scipy.linalg\n\n"
              "    def g():\n        from mrange import rng\n        return rng\n"
              "    return g\n")
    assert function_package_imports(source) == [
        ("f", "."), ("f", ".cpmaps"), ("f", "mrange.linalg"), ("g", "mrange")]


def test_no_library_function_imports_a_package_module():
    found = {path.name: function_package_imports(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def assert_lines(source):
    """Line numbers of the assert statements in ``source``: python -O strips
    them, so a check made by one does not run there."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


def test_detects_an_assert():
    source = "def f(x):\n    assert x > 0, 'x'\n    return x\n\nassert f(1)\n"
    assert assert_lines(source) == [2, 5]


def test_no_library_check_is_an_assert():
    found = {path.name: assert_lines(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in found.items() if v} == {}


def unset_defaults(sources, exempt=("tol",)):
    """(function name, parameter) for each defaulted parameter of a function
    in ``sources`` that no call in them sets, by position or by keyword: a
    setting that no caller sets is a constant. A call to a class is a call
    to its __new__ or __init__; a call through an attribute (mod.f, self.f)
    matches by the attribute's name, and one that unpacks *args or **kwargs
    sets every parameter."""
    trees = [ast.parse(source) for source in sources]
    calls = {}
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Call):
            f = node.func
            calls.setdefault(getattr(f, "id", getattr(f, "attr", None)), []).append(node)
    # a method's calls go by the class name (__new__, __init__) or its own,
    # and leave out its first parameter (self, cls)
    owner = {f: cls.name if f.name in ("__new__", "__init__") else f.name
             for cls in (n for tree in trees for n in ast.walk(tree))
             if isinstance(cls, ast.ClassDef)
             for f in cls.body if isinstance(f, ast.FunctionDef)}
    out = []
    for fn in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
        a = fn.args
        positional = [p.arg for p in a.posonlyargs + a.args][int(fn in owner):]
        name = owner.get(fn, fn.name)
        defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
        defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]

        def sets(call, p):
            if any(isinstance(x, ast.Starred) for x in call.args) or \
                    any(k.arg in (None, p) for k in call.keywords):
                return True
            return p in positional and positional.index(p) < len(call.args)

        out += [(name, p) for p in defaulted if p not in exempt
                and not any(sets(call, p) for call in calls.get(name, ()))]
    return out


def test_detects_an_unset_default():
    source = ("class R(float):\n    def __new__(cls, v, m=()):\n        return v\n\n"
              "def f(a, b=1, *, c=2, tol=None):\n    return R(a, ())\n\n"
              "def g(x, y=0):\n    return f(x, c=3), x.g(1, 2)\n")
    assert unset_defaults([source]) == [("f", "b")]
    assert unset_defaults([source + "\nf(1, 2)\n"]) == []
    assert unset_defaults([source + "\nf(*x)\n"]) == []
    assert unset_defaults([source.replace("R(a, ())", "R(a)")]) == [("f", "b"), ("R", "m")]
    assert unset_defaults([source.replace("x.g(1, 2)", "x.g(1)")]) == [("f", "b"), ("g", "y")]


def test_every_library_default_is_set_by_a_caller():
    # solve_feasibility's start is set only by a test's starting point, and
    # member_shift_ball's nodes only by the benchmark and the tests: the CLI
    # prints no witness, so it takes the default
    unset = unset_defaults([path.read_text() for path in sorted(SRC.glob("*.py"))],
                           exempt=("tol", "start", "nodes"))
    assert unset == []


def psd_eps_readers(source):
    """Names of the top-level functions and classes in ``source`` whose
    bodies read an attribute ``psd_eps``; the reads of nested functions
    and methods count for the definition that holds them."""
    return sorted(node.name for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and any(isinstance(n, ast.Attribute) and n.attr == "psd_eps"
                          for n in ast.walk(node)))


def test_detects_a_psd_eps_reader():
    source = ("class T:\n    def f(self):\n        return self.psd_eps\n\n"
              "def g(t):\n    def h():\n        return t.psd_eps\n    return h\n\n"
              "def k(t):\n    return T(psd_eps=1), t.feas_eps\n")
    assert psd_eps_readers(source) == ["T", "g"]


# psd_eps is the slack of PSD checks, so only the functions that make one
# read it; threshold verdicts round by linalg.BAND
PSD_EPS_READERS = {
    "ando.py": ["_ando_decompose", "_extremal_X"],
    "cpmaps.py": ["kraus_from_choi", "stinespring"],
    "linalg.py": ["Tolerances", "psd_check", "sqrt_psd"],
    "toeplitz.py": ["AtomicMeasure", "_unitary_measure"],
}


def test_only_psd_checks_read_psd_eps():
    readers = {path.name: psd_eps_readers(path.read_text())
               for path in sorted(SRC.glob("*.py"))}
    assert {k: v for k, v in readers.items() if v} == PSD_EPS_READERS


# numpy wrappers whose Python-level dispatch costs as much as the work on the
# small matrices of these modules: slices, np.concatenate, linalg._blocks and
# linalg._fro_norm give the same bits without it
_DISPATCH_FREE = ("ando.py", "linalg.py", "dilation.py")


def numpy_dispatch_calls(source):
    """(line, call) for each np.split, np.hstack or np.block call in
    ``source``, and each np.linalg.norm call without ord or axis: the
    Frobenius norm of the whole array."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        keywords = {k.arg for k in node.keywords}
        if name in ("np.split", "np.hstack", "np.block") or (
                name == "np.linalg.norm" and len(node.args) == 1
                and not keywords & {"ord", "axis"}):
            out.append((node.lineno, name))
    return sorted(out)


def test_detects_numpy_dispatch():
    source = ("def f(A, B):\n    W, V = np.split(np.hstack([A, B]), 2, axis=1)\n"
              "    M = np.block([[A, B]])\n"
              "    return np.linalg.norm(W), np.linalg.norm(V, 2), np.linalg.norm(M, axis=0)\n")
    assert numpy_dispatch_calls(source) == [(2, "np.hstack"), (2, "np.split"),
                                            (3, "np.block"), (4, "np.linalg.norm")]


def test_small_matrix_paths_avoid_numpy_dispatch():
    found = {name: numpy_dispatch_calls((SRC / name).read_text()) for name in _DISPATCH_FREE}
    assert {k: v for k, v in found.items() if v} == {}


def loop_herm_parts(source, function):
    """(gated, ungated): the lines of the herm_part calls in the loop bodies
    of ``function`` in ``source``, split by whether they lie in the gated
    residual check, a later operand of an ``and`` whose first operand reads
    ``gate``."""
    fn = next(node for node in ast.walk(ast.parse(source))
              if isinstance(node, ast.FunctionDef) and node.name == function)
    gated = {id(call) for node in ast.walk(fn)
             if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And)
             and any(isinstance(n, ast.Name) and n.id == "gate" for n in ast.walk(node.values[0]))
             for operand in node.values[1:] for call in ast.walk(operand)}
    calls = [call for loop in ast.walk(fn) if isinstance(loop, (ast.For, ast.While))
             for stmt in loop.body for call in ast.walk(stmt)
             if isinstance(call, ast.Call) and ast.unparse(call.func) == "herm_part"]
    return (sorted(c.lineno for c in calls if id(c) in gated),
            sorted(c.lineno for c in calls if id(c) not in gated))


def test_detects_an_ungated_herm_part():
    source = ("def g(X):\n    for k in range(3):\n        X = herm_part(X)\n    return X\n\n"
              "def f(X, gate):\n    for k in range(3):\n"
              "        done = k <= gate and check(herm_part(X))\n"
              "        ok = k > 1 and check(herm_part(X))\n"
              "        X = herm_part(X - 1)\n"
              "    else:\n        raise ValueError(herm_part(X))\n"
              "    return herm_part(X)\n")
    assert loop_herm_parts(source, "f") == ([8], [9, 10])
    assert loop_herm_parts(source, "g") == ([], [3])


def test_cyclic_reduction_symmetrizes_only_in_the_residual_check():
    # X is symmetrized where read: the gated residual, the NoConvergence
    # message and the return; the loop body reads it nowhere else
    gated, ungated = loop_herm_parts((SRC / "ando.py").read_text(), "_cyclic_reduction")
    assert len(gated) == 1 and ungated == []
