"""Every parameter of a library function is read by its body: a parameter
that nothing reads is a setting that does nothing."""

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
