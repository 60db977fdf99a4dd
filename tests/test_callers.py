"""Every module-level function in ``src/`` has a caller outside the tests.

A function is referenced when its name is read, as a name or as an
attribute, anywhere in ``src/`` or ``demos/`` outside its own body; an
import or an ``__all__`` entry is not a reference.  Matching is by name,
so a function that shares its name with another one can slip through.
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


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _functions():
    """``{name: module}`` of the module-level functions in ``src/``."""
    return {node.name: path.stem for path, tree in _trees("src")
            for node in tree.body if isinstance(node, ast.FunctionDef)}


def _references():
    """The names read in ``src/`` and ``demos/``, each outside a function of that name."""
    refs = set()
    for _, tree in _trees("src", "demos"):
        for top in tree.body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != own:
                    refs.add(name)
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
