"""Finite simplicial sets presented by nondegenerate simplices.

A complex stores, per dimension, an ordered list of nondegenerate simplex ids
and, for every such simplex, the tuple of its faces in normal form.  A general
simplex is a :class:`DegSimplex`: a pair (surjection, nondegenerate id), the
Eilenberg-Zilber normal form.  ``apply_map`` pushes a simplex along any
simplex-category map by factoring it and peeling faces, always landing back in
normal form.

Builders cover simplices, their boundaries, combinatorial cubes, spheres
(cube mod boundary), binary products and quotients, plus a JSON loader
and a small expression grammar used by the command line.
"""

import functools
import itertools
import json
import math
import re
from typing import NamedTuple, Tuple

from .ordmaps import OrdMap, compose, identity, face, constant, from_jumps
from .rationals import abbreviate, abbreviate_path


Ref = Tuple[int, str]  # (dimension, id)


class DegSimplex(NamedTuple):
    """Normal form (surjection, nondegenerate simplex reference)."""

    surj: OrdMap
    ref: Ref

    @property
    def dim(self):
        return self.surj.dom

    def is_nondegenerate(self):
        return self.surj.dom == self.surj.cod


def nd(ref):
    """The nondegenerate simplex ``ref`` as a :class:`DegSimplex`."""
    return DegSimplex(identity(ref[0]), ref)


class SSet:
    """A finite simplicial set with ordered nondegenerate cells."""

    def __init__(self, name=""):
        self.name = name
        self.cells = {}      # dim -> list of ids
        self.face_table = {}  # ref -> tuple(DegSimplex), length dim+1
        self.pair_of = None   # products: ref -> (DegSimplex in X, DegSimplex in Y)

    # -- construction -------------------------------------------------------

    def add_cell(self, dim, cid, faces=()):
        if dim < 0:
            raise ValueError("negative dimension")
        ids = self.cells.setdefault(dim, [])
        ref = (dim, cid)
        if ref in self.face_table:
            raise ValueError("duplicate cell %s" % _shown(ref))
        faces = tuple(faces)
        if len(faces) != (dim + 1 if dim > 0 else 0):
            raise ValueError("cell %s needs %s faces"
                             % (_shown(ref), abbreviate(str(dim + 1 if dim else 0))))
        ids.append(cid)
        self.face_table[ref] = faces
        return ref

    # -- basic queries ------------------------------------------------------

    @property
    def top_dim(self):
        return max((d for d, ids in self.cells.items() if ids), default=0)

    def nd_ids(self, dim):
        return tuple(self.cells.get(dim, ()))

    def nd_refs(self, dim):
        return tuple((dim, cid) for cid in self.cells.get(dim, ()))

    def all_nd_refs(self):
        for d in sorted(self.cells):
            for cid in self.cells[d]:
                yield (d, cid)

    def nd_counts(self):
        return tuple(len(self.cells.get(d, ())) for d in range(self.top_dim + 1))

    def has_ref(self, ref):
        return ref in self.face_table

    # -- the simplicial action ----------------------------------------------

    def apply_map(self, f, target):
        """Act by ``f`` in the simplex category: ``target . f`` in normal form.

        ``target`` is a Ref or DegSimplex of dimension ``f.cod``; the result
        is the DegSimplex of dimension ``f.dom``.
        """
        if isinstance(target, DegSimplex):
            f = compose(target.surj, f)
            ref = target.ref
        else:
            ref = target
        if f.cod != ref[0]:
            raise ValueError("map lands in [%d], simplex has dim %d" % (f.cod, ref[0]))
        while not f.is_surjective():
            n = f.cod
            missing = max(set(range(n + 1)) - set(f.values))
            # f = face(n, missing) o h, and target . face = stored face table
            h = OrdMap([v if v < missing else v - 1 for v in f.values], cod=n - 1)
            step = self.face_table[ref][missing]
            f = compose(step.surj, h)
            ref = step.ref
        return DegSimplex(f, ref)

    def face(self, x, i):
        """``d_i`` of a Ref or DegSimplex, in normal form."""
        dim = x.dim if isinstance(x, DegSimplex) else x[0]
        return self.apply_map(face(dim, i), x)

    def degenerate_simplices(self, m):
        """Every m-simplex (degenerate or not) as a DegSimplex, sorted."""
        out = []
        for k in range(m + 1):
            for surj in surjections(m, k):
                for ref in self.nd_refs(k):
                    out.append(DegSimplex(surj, ref))
        return out

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Check structural well-formedness and the simplicial identities."""
        for ref, faces in self.face_table.items():
            dim, cid = ref
            if cid not in self.cells.get(dim, ()):
                raise ValueError("cell %r missing from index" % (ref,))
            for i, ds in enumerate(faces):
                if not isinstance(ds, DegSimplex):
                    raise ValueError("face %d of %r is not a simplex" % (i, ref))
                if ds.surj.dom != dim - 1:
                    raise ValueError("face %d of %s has wrong dimension" % (i, _shown(ref)))
                if not ds.surj.is_surjective():
                    raise ValueError("face %d of %s is not in normal form" % (i, _shown(ref)))
                if ds.ref not in self.face_table:
                    raise ValueError("face %d of %s hits unknown cell %s"
                                     % (i, _shown(ref), _shown(ds.ref)))
                if ds.ref[0] != ds.surj.cod:
                    raise ValueError("face %d of %r: mismatched base dim" % (i, ref))
        for ref in self.all_nd_refs():
            n = ref[0]
            if n < 2:
                continue
            for j in range(n + 1):
                for i in range(j):
                    # d_i d_j = d_{j-1} d_i
                    lhs = self.face(self.face(ref, j), i)
                    rhs = self.face(self.face(ref, i), j - 1)
                    if lhs != rhs:
                        raise ValueError(
                            "simplicial identity fails at %s: d_%d d_%d" % (_shown(ref), i, j)
                        )
        return True

    # -- loading --------------------------------------------------------------

    @classmethod
    def from_jsonable(cls, data, name=""):
        """The complex that the ``file:`` document ``data`` describes.

        The README gives the format field by field: cells by degree, each
        face as its surjection and base id.  Only the degree keys present
        are read, so the work follows the size of the document.  A
        malformed document raises ``ValueError`` naming the field; a
        well-formed one that is not a simplicial set fails :meth:`validate`.
        """
        top = _file_field(data, "dims", int, "an integer")
        simpl = _file_field(data, "simplices", dict, "an object")
        degrees = {}
        for key, entries in simpl.items():
            # compare lengths first: int() of a long key is refused
            if not (_DEGREE_KEY.fullmatch(key) and len(key) <= len(str(top))
                    and int(key) <= top):
                raise _file_error("simplices", "keyed by degrees '0' to '%s' (the value of "
                                  "'dims'), got %r" % (abbreviate(str(top)), abbreviate(key)))
            if type(entries) is not list:
                raise _file_error("simplices", "a map from degree to a list")
            degrees[int(key)] = entries
        highest = max((d for d, entries in degrees.items() if entries), default=0)
        if top != highest:
            raise _file_error("dims", "%d, the highest degree with a cell, got %s"
                              % (highest, abbreviate(str(top))))
        X = cls(name)
        for d in sorted(degrees):
            for entry in degrees[d]:
                cid = _file_field(entry, "id", str, "a string")
                faces = []
                for fd in _file_field(entry, "faces", list, "a list"):
                    vals = _file_field(fd, "surj", list, _SURJ)
                    if (not vals or any(type(v) is not int for v in vals)
                            or vals[0] < 0 or vals != sorted(vals)):
                        raise _file_error("surj", _SURJ)
                    base = _file_field(fd, "base", str, "a string")
                    surj = OrdMap(vals, cod=vals[-1])
                    faces.append(DegSimplex(surj, (surj.cod, base)))
                X.add_cell(d, cid, faces)
        X.validate()
        return X


_DEGREE_KEY = re.compile(r"0|[1-9][0-9]*")
_SURJ = "a nonempty nondecreasing list of nonnegative integers"


def load_json(path, what):
    """Parse JSON from ``path``; on failure the ValueError names the ``what`` file.

    An integer of more than 4300 digits, ``int``'s default limit, is refused
    on its length before any conversion.
    """
    def parse_int(text):
        if len(text) - text.startswith("-") > 4300:
            raise OverflowError
        return int(text)

    shown = abbreviate_path(path)
    try:
        with open(path) as fh:
            return json.load(fh, parse_int=parse_int)
    except OSError as exc:  # its text names the path
        exc.filename = shown
        raise
    except (ValueError, RecursionError) as exc:
        raise ValueError("%s file %r is not JSON: %s" % (what, shown, exc)) from None
    except OverflowError:
        raise ValueError("%s file %r holds an integer of more than 4300 digits"
                         % (what, shown)) from None


def _shown(ref):
    """``ref`` as a refusal echoes it, ``(dim, 'id')``, each part abbreviated."""
    return "(%s, %r)" % (abbreviate(str(ref[0])), abbreviate(ref[1]))


def field_error(prefix, name, what):
    return ValueError("%s field %r must be %s" % (prefix, name, what))


def typed_field(prefix, doc, name, kind, what):
    """``doc[name]`` if it is of type ``kind``; otherwise ValueError naming the field."""
    value = doc.get(name) if type(doc) is dict else None
    if type(value) is not kind:
        raise field_error(prefix, name, what)
    return value


_file_error = functools.partial(field_error, "space file")
_file_field = functools.partial(typed_field, "space file")


@functools.lru_cache(maxsize=None)
def surjections(m, k):
    """All nondecreasing surjections ``[m] -> [k]``, lexicographic, as one cached tuple."""
    if k > m or k < 0:
        return ()
    return tuple(from_jumps(jumps, m) for jumps in itertools.combinations(range(1, m + 1), k))


# ---------------------------------------------------------------------------
# builders


def delta(n):
    """The standard n-simplex; cells are vertex subsets of {0..n}."""
    if n < 0:
        raise ValueError("simplex dimension must be >= 0, got %d" % n)
    X = SSet("delta:%d" % n)
    for k in range(n + 1):
        for verts in itertools.combinations(range(n + 1), k + 1):
            cid = ".".join(str(v) for v in verts)
            faces = []
            for i in range(k + 1) if k else ():
                sub = verts[:i] + verts[i + 1:]
                faces.append(nd((k - 1, ".".join(str(v) for v in sub))))
            X.add_cell(k, cid, faces)
    return X


def boundary_delta(n):
    """The boundary of the standard n-simplex: its cells below dimension n."""
    D = delta(n)
    X = SSet("boundary:%d" % n)
    for d in range(n):
        for cid in D.cells[d]:
            X.add_cell(d, cid, D.face_table[(d, cid)])
    return X


def point():
    X = SSet("point")
    X.add_cell(0, "0")
    return X


# -- combinatorial cubes ------------------------------------------------------
#
# An n-cell of the m-cube is one token per axis: "0", "1", or "jK" for the
# axis that steps from 0 to 1 between vertices K-1 and K; jointly the jumps
# must cover {1..n} exactly for the cell to be nondegenerate.


def _cube_id(tokens):
    return ",".join(tokens)


def _cube_face_tokens(tokens, n, i):
    """Face d_i of a cube cell: per-axis jump bookkeeping, then renormalize."""
    raw = []
    for tok in tokens:
        if tok[0] != "j":
            raw.append(tok)
            continue
        j = int(tok[1:])
        if j > i:
            j -= 1
        if j == 0:
            raw.append("1")
        elif j == n:  # only reachable when i == n and the axis jumped last
            raw.append("0")
        else:
            raw.append("j%d" % j)
    used = sorted({int(t[1:]) for t in raw if t[0] == "j"})
    rank = {j: r + 1 for r, j in enumerate(used)}
    base = tuple(t if t[0] != "j" else "j%d" % rank[int(t[1:])] for t in raw)
    return from_jumps(used, n - 1), base


def cube(m):
    """The m-fold product of intervals as a simplicial set."""
    X = SSet("cube:%d" % m)
    for n in range(m + 1):
        choices = ["0", "1"] + ["j%d" % k for k in range(1, n + 1)]
        for tokens in itertools.product(choices, repeat=m):
            jumps = {int(t[1:]) for t in tokens if t[0] == "j"}
            if jumps != set(range(1, n + 1)):
                continue
            faces = []
            for i in range(n + 1) if n else ():
                surj, base = _cube_face_tokens(tokens, n, i)
                faces.append(DegSimplex(surj, (surj.cod, _cube_id(base))))
            X.add_cell(n, _cube_id(tokens), faces)
    return X


def cube_boundary_ids(X):
    """Cells of the cube ``X`` having some constant axis (the geometric boundary)."""
    out = set()
    for ref in X.all_nd_refs():
        tokens = ref[1].split(",")
        if any(t in ("0", "1") for t in tokens):
            out.add(ref)
    return out


def quotient(X, collapse, name=None):
    """Collapse a nonempty subcomplex of ``X`` to a single basepoint ``*``.

    ``collapse`` is a set of Refs of ``X``; it must be closed under faces.
    """
    collapse = set(collapse)
    if not collapse:
        raise ValueError("cannot collapse an empty subcomplex")
    for ref in collapse:
        if ref not in X.face_table:
            raise ValueError("unknown cell %r" % (ref,))
        for ds in X.face_table[ref]:
            if ds.ref not in collapse:
                raise ValueError("collapse set not closed under faces at %r" % (ref,))
    Qt = SSet(name or "%s/%d-cells" % (X.name, len(collapse)))
    star = (0, "*")
    Qt.add_cell(0, "*")
    for d in sorted(X.cells):
        for cid in X.cells[d]:
            ref = (d, cid)
            if ref in collapse:
                continue
            faces = []
            for ds in X.face_table[ref]:
                if ds.ref in collapse:
                    faces.append(DegSimplex(constant(d - 1, 0, 0), star))
                else:
                    faces.append(ds)
            Qt.add_cell(d, cid, faces)
    return Qt


def sphere(m):
    """The m-sphere: the m-cube with its boundary collapsed to a point."""
    if m < 1:
        raise ValueError("sphere dimension must be >= 1")
    C = cube(m)
    return quotient(C, cube_boundary_ids(C), name="sphere:%d" % m)


# -- products -----------------------------------------------------------------


def _paths(p, q, k):
    """Monotone lattice paths (0,0)->(p,q) with k unit steps x/y/b(oth)."""
    if p < 0 or q < 0 or k < 0 or p + q < k or max(p, q) > k:
        return
    if k == 0:
        yield ""
        return
    for step, dp, dq in (("x", 1, 0), ("y", 0, 1), ("b", 1, 1)):
        if dp <= p and dq <= q:
            for rest in _paths(p - dp, q - dq, k - 1):
                yield step + rest


def _path_to_surjections(path):
    """The path's pair of jointly injective surjections out of [len(path)]."""
    n = len(path)
    xs = [t for t in range(1, n + 1) if path[t - 1] in "xb"]
    ys = [t for t in range(1, n + 1) if path[t - 1] in "yb"]
    return from_jumps(xs, n), from_jumps(ys, n)


def _product_cells(X, Y):
    """The cells of ``product(X, Y)``: a ``p``-cell and a ``q``-cell give the
    Delannoy number ``D(p, q) = sum_k C(p, k) C(q, k) 2^k`` of ``_paths``."""
    return sum(a * b * sum(math.comb(p, k) * math.comb(q, k) * 2 ** k for k in range(p + 1))
               for p, a in enumerate(X.nd_counts()) for q, b in enumerate(Y.nd_counts()))


def product(X, Y, name=None):
    """Binary product; nondegenerate cells are jointly injective pairs.

    Each level computes the faces of a factor simplex once and the simplex
    of a face pair once, in tables dropped when the level is done.  The
    product stores one ``OrdMap`` per surjection and one ``DegSimplex`` per
    (surjection, cell) value, shared by ``face_table`` and ``pair_of``.
    Over ``MAX_CELLS`` cells it is refused before any cell is made.
    """
    name = name or "product:(%s,%s)" % (X.name, Y.name)
    if _product_cells(X, Y) > MAX_CELLS:
        raise ValueError("%r would build more than %d cells" % (abbreviate(name), MAX_CELLS))
    P = SSet(name)
    P.pair_of = {}
    P.ref_of_pair = {}
    maps = {}       # surjection values -> OrdMap
    simplices = {}  # (surjection values, ref) -> DegSimplex

    def share(surj, ref):
        s = simplices.get((surj.values, ref))
        if s is None:
            surj = maps.setdefault(surj.values, surj)
            s = simplices[surj.values, ref] = DegSimplex(surj, ref)
        return s

    def faces_of(S, s):
        got = factor_faces.get((S, s))
        if got is None:
            got = factor_faces[S, s] = [S.apply_map(f, s) for f in faces_k]
        return got

    xrefs, yrefs = list(X.all_nd_refs()), list(Y.all_nd_refs())
    for k in range(X.top_dim + Y.top_dim + 1):
        faces_k = [face(k, i) for i in range(k + 1)] if k else []
        paths = {}         # (p, q) -> [(path, zeta, xi)]
        factor_faces = {}  # (factor, simplex) -> its k+1 faces
        face_cells = {}    # (face in X, face in Y) -> the face in P
        for xref in xrefs:
            for yref in yrefs:
                pq = (xref[0], yref[0])
                if pq not in paths:
                    paths[pq] = [(path,) + _path_to_surjections(path)
                                 for path in _paths(*pq, k)]
                for path, zeta, xi in paths[pq]:
                    a = share(zeta, xref)
                    b = share(xi, yref)
                    faces = []
                    for pair in zip(faces_of(X, a), faces_of(Y, b)):
                        s = face_cells.get(pair)
                        if s is None:
                            s = product_simplex(P, *pair)
                            s = face_cells[pair] = share(s.surj, s.ref)
                        faces.append(s)
                    cid = "[%s]x[%s]@%s" % (xref[1], yref[1], path)
                    ref = P.add_cell(k, cid, faces)
                    P.pair_of[ref] = (a, b)
                    P.ref_of_pair[_pair_key(a, b)] = ref
    return P


def _pair_key(a, b):
    return (a.surj.values, a.ref, b.surj.values, b.ref)


def product_ref(P, a, b):
    """Reverse lookup: the cell for a jointly injective normal-form pair."""
    return P.ref_of_pair[_pair_key(a, b)]


def product_simplex(P, a, b):
    """The simplex of the product ``P`` whose two projections are ``a`` and ``b``.

    ``a`` and ``b`` are normal-form simplices of the factors at one level.
    Their joint normal form splits off the shared degeneracy, the rank map
    of the pointwise value pairs; the jointly injective rest names a cell.
    """
    pairs = list(zip(a.surj.values, b.surj.values))
    keep = [0] + [i for i in range(1, len(pairs)) if pairs[i] != pairs[i - 1]]
    if len(keep) < len(pairs):
        a = DegSimplex(OrdMap([a.surj.values[i] for i in keep], cod=a.surj.cod), a.ref)
        b = DegSimplex(OrdMap([b.surj.values[i] for i in keep], cod=b.surj.cod), b.ref)
    return DegSimplex(from_jumps(keep[1:], len(pairs) - 1), product_ref(P, a, b))


# ---------------------------------------------------------------------------
# build expressions: delta:n | boundary:n | sphere:k | product:(a,b)
#                  | quotient:(a,sub) | file:path


def _split_args(body):
    depth = 0
    for m in re.finditer(r"[(),]", body):  # only the delimiters: one pass to the split
        depth += (m[0] == "(") - (m[0] == ")")
        if depth < 0:
            break
        if m[0] == "," and not depth:
            return body[:m.start()], body[m.end():]
    if depth:
        raise ValueError("the parentheses of a product or quotient do not balance")
    raise ValueError("expected two comma-separated arguments: %r" % abbreviate(body))


_DIMENSION = re.compile(r"(-?)0*([0-9]+)")
MAX_CELLS = 10 ** 6
MAX_NESTING = 500  # parentheses: build recurses once per level, Python stops near 1,000


def _builder_cells(head, n):
    """The cells ``head:n`` builds, at least ``2^n``; ``sphere:n`` builds the n-cube,
    whose j-cells send each axis to 0, to 1 or onto one of j steps."""
    if head == "sphere":
        return sum((-1) ** i * math.comb(j, i) * (j + 2 - i) ** n
                   for j in range(n + 1) for i in range(j + 1))
    return 2 ** (n + 1) - 1 - (head == "boundary")


def build(expr):
    """Construct a complex from a builder expression string."""
    # refused before any recursion; the count of "(" bounds the depth
    if expr.count("(") > MAX_NESTING and max(itertools.accumulate(
            (ch == "(") - (ch == ")") for ch in expr)) > MAX_NESTING:
        raise ValueError("expression nests more than %d levels deep" % MAX_NESTING)
    expr = expr.strip()
    head, sep, rest = expr.partition(":")
    if not sep:
        raise ValueError("bad expression %r" % abbreviate(expr))
    head = head.strip()
    rest = rest.strip()
    if head in ("delta", "boundary", "sphere"):
        number = _DIMENSION.fullmatch(rest)
        if not number:
            raise ValueError("bad dimension in %r: expected an optional '-' "
                             "and ASCII digits" % abbreviate(expr))
        sign, digits = number.groups()
        if len(digits) > 50:  # decided and echoed on a few: int() and str() stop at 4300
            shown = "%s:%s%s" % (head, sign, abbreviate(digits, "digits"))
            raise ValueError("%r: dimension must be >= %d" % (shown, head == "sphere") if sign
                             else "%r would build more than %d cells" % (shown, MAX_CELLS))
        n = int(sign + digits)
        if n >= MAX_CELLS.bit_length() or (n > 0 and _builder_cells(head, n) > MAX_CELLS):
            raise ValueError("%r would build more than %d cells" % (abbreviate(expr), MAX_CELLS))
        return {"delta": delta, "boundary": boundary_delta, "sphere": sphere}[head](n)
    if head == "file":
        return SSet.from_jsonable(load_json(rest, "space"), name=expr)
    if head in ("product", "quotient"):
        if not (rest.startswith("(") and rest.endswith(")")):
            raise ValueError("%s needs parenthesized arguments" % head)
        left, right = _split_args(rest[1:-1])
        A = build(left)
        B = build(right)
        if head == "product":
            return product(A, B, name=expr)
        sub = set()
        for ref in B.all_nd_refs():
            if not A.has_ref(ref):
                raise ValueError("%s is not a cell of %s" % (_shown(ref), abbreviate(A.name)))
            sub.add(ref)
        return quotient(A, sub, name=expr)
    raise ValueError("unknown builder %r" % abbreviate(head))

