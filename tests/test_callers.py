"""Every module-level function and every method in ``src/`` has a caller outside the tests.

A function is referenced when its name is read, as a name or as an
attribute, anywhere in ``src/`` or ``demos/`` outside its own body; an
import or an ``__all__`` entry is not a reference, and neither is a read
of a name that the reading function binds itself, as an argument or an
assignment target.  Attributes are matched by name alone.

A method ``K.m`` is referenced by an attribute read ``r.m`` outside its own
body, resolved by class where the receiver names one: ``self.m`` and
``cls.m`` inside class ``K`` count for the class that defines ``m`` along
the MRO of ``K`` and of each ``src/`` subclass of ``K``, and ``K.m`` counts
for the definer along the MRO of ``K``.  Any other receiver matches every
method named ``m``, unless ``m`` is also the name of a method of a builtin
type (``dict.get``, say), which such a read is far likelier to mean.
Dunders are out of scope: the interpreter calls them implicitly.

Every name a ``src/`` module imports is read in that module, as a name,
or listed in its ``__all__``.
"""

import ast
import builtins
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
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

_BUILTIN_METHODS = {name for t in vars(builtins).values() if isinstance(t, type)
                    for name in vars(t)}


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path.stem, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _classes(src):
    """``{name: (base names, method names)}`` of the classes in ``src``, dunders left out."""
    return {node.name: ([b.id for b in node.bases if isinstance(b, ast.Name)],
                        {f.name for f in node.body
                         if isinstance(f, _DEFS) and not _is_dunder(f.name)})
            for _, tree in src for node in tree.body if isinstance(node, ast.ClassDef)}


def _defined(src):
    """``{key: label}`` of the functions and methods in ``src``, a list of ``(module, tree)``.

    A function is keyed by its name, a method by ``K.m``.
    """
    out = {node.name: "%s.%s" % (module, node.name) for module, tree in src
           for node in tree.body if isinstance(node, ast.FunctionDef)}
    methods = ["%s.%s" % (k, m) for k, (_, ms) in _classes(src).items() for m in ms]
    out.update(zip(methods, methods))
    return out


def _mro(classes, k):
    """The ``src/`` classes along the MRO of ``k``, depth-first: C3 for single inheritance."""
    out = [k]
    for base in classes[k][0]:
        if base in classes:
            out += [c for c in _mro(classes, base) if c not in out]
    return out


def _definer(classes, k, m):
    """``C.m`` for the first class ``C`` along the MRO of ``k`` that defines ``m``, or None."""
    return next(("%s.%s" % (c, m) for c in _mro(classes, k) if m in classes[c][1]), None)


def _targets(classes, node, cls):
    """The methods that the attribute read ``node``, inside class ``cls`` or None, counts for."""
    m, recv = node.attr, node.value
    name = recv.id if isinstance(recv, ast.Name) else None
    if cls and name in ("self", "cls"):
        owners = [k for k in classes if cls in _mro(classes, k)]
    elif name in classes:
        owners = [name]
    elif m in _BUILTIN_METHODS:
        return set()
    else:
        return {"%s.%s" % (k, m) for k, (_, ms) in classes.items() if m in ms}
    return {d for d in (_definer(classes, k, m) for k in owners) if d}


def _method_reads(node, classes, cls=None, own=None):
    """``(own, targets)`` per attribute read under ``node``.

    ``own`` is the method the read sits in, ``targets`` the methods it counts for.
    """
    if isinstance(node, ast.ClassDef):
        cls, own = node.name, None
    elif isinstance(node, _DEFS) and cls and own is None:
        own = "%s.%s" % (cls, node.name)
    if isinstance(node, ast.Attribute) and not _is_dunder(node.attr):
        yield own, _targets(classes, node, cls)
    for child in ast.iter_child_nodes(node):
        yield from _method_reads(child, classes, cls, own)


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


def _references(src, readers):
    """The keys of :func:`_defined` that ``readers`` read, each outside its own body."""
    classes = _classes(src)
    refs = set()
    for _, tree in readers:
        for top in tree.body:
            own = top.name if isinstance(top, ast.FunctionDef) else None
            refs.update(name for name in _reads(top) if name != own)
            refs.update(m for reader, targets in _method_reads(top, classes)
                        for m in targets if m != reader)
    return refs


def _orphans(src, readers):
    """The labels of the functions and methods of ``src`` that ``readers`` never read."""
    defined, refs = _defined(src), _references(src, readers)
    return {label for key, label in defined.items() if key not in refs and key not in ALLOWED}


def test_every_function_has_a_caller_outside_the_tests():
    src = list(_trees("src"))
    orphans = _orphans(src, src + list(_trees("demos")))
    assert not orphans, "called only by tests: %s" % ", ".join(sorted(orphans))


def test_allowlist_is_exact():
    src = list(_trees("src"))
    defined, refs = _defined(src), _references(src, src + list(_trees("demos")))
    assert ALLOWED <= set(defined), ALLOWED - set(defined)
    called = sorted(f for f in ALLOWED if f in refs)
    assert not called, "allowlisted but now called outside the tests: %s" % called


def test_a_local_name_is_not_a_reference():
    tree = ast.parse("def f(eps):\n    eps = eps + 1\n    return g(eps, lambda x: x)\n"
                     "def h():\n    return eps\n")
    assert set(_reads(tree)) == {"g", "eps"}
    assert set(_reads(tree.body[0])) == {"g"}


def test_a_method_only_a_test_reads_is_reported():
    src = [("k", ast.parse(
        "class K:\n"
        "    def used(self):\n        return self.helper()\n"
        "    def helper(self):\n        return 1\n"
        "    def only_tested(self, n):\n        return n and self.only_tested(n - 1)\n"
        "    def __len__(self):\n        return 0\n"))]
    demo = [("demo", ast.parse("def main(k):\n    return k.used()\n"))]
    test = [("test_k", ast.parse("def test_k():\n    assert K().only_tested(2) == 0\n"))]
    assert _orphans(src, src + demo) == {"K.only_tested"}
    assert _orphans(src, src + demo + test) == set()


def test_a_builtin_method_name_is_matched_by_class_only():
    src = [("linalg", ast.parse(
        "class QMatrix:\n"
        "    def get(self, i, j):\n        return self.rows[i].get(j, 0)\n"))]
    unknown = [("use", ast.parse("def f(d):\n    return d.get(0)\n"))]
    assert _orphans(src, src + unknown) == {"QMatrix.get"}
    for reader in ("class QMatrix:\n    def entry(self):\n        return self.get(0, 0)\n",
                   "def f(m):\n    return QMatrix.get(m, 0, 0)\n"):
        assert _references(src, [("use", ast.parse(reader))]) >= {"QMatrix.get"}


def test_self_counts_along_the_mro_of_each_subclass():
    src = [("m", ast.parse(
        "class Base:\n"
        "    def run(self):\n        return self.step()\n"
        "    def step(self):\n        return 0\n"
        "    def shared(self):\n        return 1\n"
        "class Sub(Base):\n"
        "    def step(self):\n        return 2\n"
        "class Other:\n"
        "    def shared(self):\n        return 3\n"))]
    reader = [("use", ast.parse("def f():\n    return Sub.shared(Sub()), Sub().run()\n"))]
    assert _references(src, src + reader) >= {"Base.step", "Sub.step", "Base.shared"}
    assert _orphans(src, src + reader) == {"Other.shared"}


def _dead_imports(tree):
    """The names that ``tree`` imports but neither reads nor lists in its ``__all__``."""
    imported = {(alias.asname or alias.name).partition(".")[0] for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for name in ast.literal_eval(node.value)}
    return imported - read - exported


def test_every_import_is_read():
    dead = {"%s.%s" % (module, name) for module, tree in _trees("src")
            for name in _dead_imports(tree)}
    assert not dead, "imported but never read: %s" % ", ".join(sorted(dead))


def test_a_dead_import_is_reported():
    tree = ast.parse("import math, os.path\nfrom .ordmaps import OrdMap, face as f\n"
                     "from .rationals import Q\n__all__ = ['Q']\n"
                     "def g(n):\n    return f(n, 0), os.sep\n")
    assert _dead_imports(tree) == {"math", "OrdMap"}
