"""Every module-level function in ``src/`` has a caller outside the tests.

A function is referenced when its name is read, as a name or as an
attribute, anywhere in ``src/`` or ``demos/`` outside its own body; an
import or an ``__all__`` entry is not a reference, and neither is a read
of a name that the reading function binds itself, as an argument or an
assignment target.  Attributes are matched by name alone.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

# no caller outside the tests yet, each on purpose
ALLOWED = {
    "vertex_connector",  # the public witness that vertex classes agree
    "mu_phi3",           # ROADMAP item 7: the associativity check for verify
    "transport_swap",    # ROADMAP item 7: the graded-commutativity check
    "gap_diagnostic",    # ROADMAP item 7: the boundary-interaction check
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _functions():
    """``{name: module}`` of the module-level functions in ``src/``."""
    return {node.name: path.stem for path, tree in _trees("src")
            for node in tree.body if isinstance(node, ast.FunctionDef)}


def _bound(scope):
    """The arguments and assignment targets of a function, nested functions excluded."""
    names = {a.arg for a in ast.walk(scope.args) if isinstance(a, ast.arg)}
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _reads(node, bound=frozenset()):
    """The names read under ``node``, bar those bound in the function that reads them."""
    if isinstance(node, _SCOPES):
        bound = _bound(node)
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        if node.id not in bound:
            yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, bound)


def _references():
    """The names read in ``src/`` and ``demos/``, each outside a function of that name."""
    refs = set()
    for _, tree in _trees("src", "demos"):
        for top in tree.body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            refs.update(name for name in _reads(top) if name != own)
    return refs


def test_every_function_has_a_caller_outside_the_tests():
    funcs, refs = _functions(), _references()
    orphans = {"%s.%s" % (funcs[f], f) for f in funcs if f not in refs and f not in ALLOWED}
    assert not orphans, "called only by tests: %s" % ", ".join(sorted(orphans))


def test_allowlist_is_exact():
    funcs, refs = _functions(), _references()
    assert ALLOWED <= set(funcs), ALLOWED - set(funcs)
    called = sorted(f for f in ALLOWED if f in refs)
    assert not called, "allowlisted but now called outside the tests: %s" % called


def test_a_local_name_is_not_a_reference():
    tree = ast.parse("def f(eps):\n    eps = eps + 1\n    return g(eps, lambda x: x)\n"
                     "def h():\n    return eps\n")
    assert set(_reads(tree)) == {"g", "eps"}
    assert set(_reads(tree.body[0])) == {"g"}
