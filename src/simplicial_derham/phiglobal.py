"""Dual-form chains on a finite simplicial set, in split normal form.

A :class:`PhiChain` stores rational combinations of pairs (nondegenerate
simplex, dual-form monomial on its standard model).  Every geometric
relation is applied eagerly: data attached to a face or a degenerate
simplex is transferred to a nondegenerate carrier the moment it appears,
so equality of chains is literal dictionary equality.

The boundary of a chain applies the one-simplex boundary to each term and
re-normalizes.  Cochain-side data (:class:`CochainForm`) is a compatible
choice of polynomial form on each nondegenerate simplex; the two sides
meet in an exact rational pairing.

Homology is computed on the finite weight truncations ``G_W``.  They form a
filtration ``G_0 ⊂ G_1 ⊂ ...``, so :func:`homology_report` builds only the
largest one it needs and reduces it once as a filtered complex; every image
``H(G_a) -> H(G_b)`` it reports is a persistent Betti number of that one
reduction.  So is the simplicial homology ``H(N)`` it compares them with:
``phi(N)`` is a subcomplex of the truncation, filtered first, and no
normalized chain complex is built.

The boundary of a label ``(ref, exps, S)`` depends on its simplex only
through the faces of that simplex: it is ``polyforms._monomial_boundary``,
the closed-form boundary of the monomial on the standard ``m``-simplex (of
which ``delta`` is the linear extension), placed on ``ref``.  Its
``delta'`` entry stays on ``ref``; its entry on facet ``p`` goes to the
stored face ``X.face_table[ref][p]``, pushed along the face's collapse when
that face is degenerate.  :func:`phi_boundary` sums that one label boundary
over a chain.  :func:`truncated_complex` assembles the same columns by
simplex blocks: it reads each monomial's entries once per dimension, in
local rows, and places them on every simplex with those faces; the
columns of a monomial with a term above the weight cap are summed again by
the label path, which names the label that left the truncation.  Neither
the local boundary of a key ``(m, exps, S)`` nor its pushforwards depend
on the space, so both are cached for the life of the process: one entry
per local key ever assembled, at most the monomials of one simplex per
dimension of ``G_W`` for the largest dimension and weight requested, and
one per (key, facet, collapse) pushed, a collapse being a surjection of
the facet's vertices onto fewer; neither grows with the number of
simplices.  Their tuples are interned in ``polyforms._SHARED``, kept as
long as the caches and bounded by them.
"""

import functools
import math
from itertools import chain, combinations

from .rationals import QZERO, Combination, exact
from .ordmaps import face
from .polyforms import (FormElt, _compositions, _moment, _monomial_boundary, _shared_terms,
                        _theta_push, _transfer, pair_integral)
from .sset import DegSimplex
from .linalg import ChainComplexQ, FilteredReduction, QMatrix

__all__ = [
    "PhiChain",
    "CochainForm",
    "phi_boundary",
    "phi_of_chain",
    "truncated_complex",
    "validate_cochain",
    "global_pair",
    "omega_wedge",
    "homology_report",
]


def _term_sort_key(item):
    (ref, (e, S)), _ = item
    return (ref[0], ref[1], e, S)


class PhiChain(Combination):
    """Chain of dual-form monomials carried by nondegenerate simplices.

    ``terms`` maps ``(ref, (exps, S))`` to a rational; ``ref`` is a
    nondegenerate simplex of some dimension ``m``, ``exps`` a length-``m``
    exponent tuple and ``S`` a strictly increasing wedge subset of
    ``{1..m}`` with ``len(S)`` equal to the chain degree.
    """

    __slots__ = ("X", "d", "terms")

    def __init__(self, X, d, terms=None):
        self.X = X
        self.d = d
        clean = {}
        if terms:
            for (ref, (e, S)), c in terms.items():
                if not c:
                    continue
                m = ref[0]
                if len(S) != d:
                    raise ValueError("wedge size disagrees with chain degree")
                if len(e) != m:
                    raise ValueError("exponent tuple must match the dimension")
                if not X.has_ref(ref):
                    raise ValueError("unknown simplex %r" % (ref,))
                clean[(ref, (tuple(e), tuple(S)))] = exact(c)
        self.terms = clean

    @classmethod
    def zero(cls, X, d=0):
        return cls(X, d, {})

    def _shape(self):
        return self.X, self.d

    def _like(self, terms):
        # the keys are already checked: skip the validating constructor
        res = PhiChain(self.X, self.d)
        res.terms = {k: exact(c) for k, c in terms.items()}
        return res

    def sorted_terms(self):
        return sorted(self.terms.items(), key=_term_sort_key)

    def __repr__(self):
        if self.is_zero():
            return "PhiChain(%r, 0)" % getattr(self.X, "name", "?")
        bits = []
        for (ref, (e, S)), c in self.sorted_terms():
            bits.append("%s*%r@(%s|%s)" % (c, ref[1], e, S))
        return "PhiChain[%s]" % ", ".join(bits)


def phi_of_chain(X, coeffs, n):
    """Embed a normalized chain: each ``n``-simplex becomes its top wedge.

    ``coeffs`` maps nondegenerate refs of dimension ``n`` to rationals.
    The image of a single simplex is the simplex paired with
    ``w_1 ^ ... ^ w_n`` (the alternating-sign top class and the embedding
    sign cancel).  This is a chain map into the dual-form chains.
    """
    dims = sorted({ref[0] for ref in coeffs})
    if len(dims) > 1:
        raise ValueError("chain mixes dimensions %r" % dims)
    if dims and dims[0] != n:
        raise ValueError("chain has dimension %d, which does not match n = %d"
                         % (dims[0], n))
    top = ((0,) * n, tuple(range(1, n + 1)))
    return PhiChain(X, n, {(ref, top): q for ref, q in coeffs.items()})


MAX_LABELS = 10 ** 6


def _label_count(X, W):
    """``sum(map(len, _bases(X, W)))`` for ``W >= X.top_dim``, in closed form."""
    return sum(len(X.nd_refs(m)) * math.comb(m, d) * math.comb(W - d + m, m)
               for m in range(X.top_dim + 1) for d in range(m + 1))


def _blocks(top, weight_cap):
    """The local monomials ``(e, S)`` of weight at most ``weight_cap``.

    ``blocks[m][d][t]`` lists those with ``|e| = t`` on an ``m``-simplex in
    degree ``d = len(S)``, by wedge subset, then exponents.  A monomial's
    block index is its place in the concatenation of ``blocks[m][d]``.
    """
    blocks = [[[] for d in range(m + 1)] for m in range(top + 1)]
    for m, by_degree in enumerate(blocks):
        for d, runs in enumerate(by_degree):
            for t in range(weight_cap - d + 1):
                runs.append([(e, S) for S in combinations(range(1, m + 1), d)
                             for e in _compositions(t, m)])
    return blocks


def _bases(X, weight_cap, blocks=None):
    """The labels ``(ref, e, S)`` of weight at most ``weight_cap``, per degree.

    A degree lists its labels weight-major: by weight, then simplex
    dimension, then simplex, then wedge subset, then exponents.  So the
    labels of ``G_a`` are a prefix of those of ``G_W`` in every degree, and
    the first ``len(X.nd_refs(k))`` labels of degree ``k`` are the labels of
    ``phi(N)``, the top wedge of each ``k``-simplex in the order of
    ``X.nd_refs(k)``.  ``blocks`` is ``_blocks(X.top_dim, weight_cap)``.
    """
    top = X.top_dim
    if blocks is None:
        blocks = _blocks(top, weight_cap)
    refs, bases = list(map(X.nd_refs, range(top + 1))), []
    for d in range(top + 1):
        bases.append([(ref, e, S) for t in range(weight_cap - d + 1)
                      for m in range(d, top + 1) for ref in refs[m]
                      for e, S in blocks[m][d][t]])
    return bases


def _places(refs, blocks, d):
    """``places[ref][b]``: the index in degree ``d`` of :func:`_bases` of the
    label of block index ``b`` on the simplex ``ref``, for ``refs[m]`` the
    ``m``-simplices."""
    places, i = {}, 0
    for t in range(len(blocks[d][d])):
        for m in range(d, len(blocks)):
            n = len(blocks[m][d][t])
            for ref in refs[m]:
                places.setdefault(ref, []).extend(range(i, i + n))
                i += n
    return places


@functools.lru_cache(maxsize=None)
def _pushed_boundary(m, e, S, p, values):
    """Facet entry ``p`` of ``_monomial_boundary(m, e, S)`` pushed along ``values``.

    ``values`` is the vertex map of the face's collapse; the result is a
    shared tuple of ``(e2, S2, c)`` read off the transfer kernels, with no
    element built, cached for the life of the process.
    """
    terms = dict(_monomial_boundary(m, e, S))[p]
    pushed = _transfer(_theta_push, values, {(e2, S2): c for e2, S2, c in terms}, {})
    return _shared_terms((e2, S2, exact(c)) for (e2, S2), c in pushed.items() if c)


def _facets(X, ref):
    """Where the facet entries of a label on ``ref`` land, per facet ``p``.

    Entry ``p`` lands on the stored face ``ref2`` of ``d_p ref``, pushed
    along ``values``, the vertex map of the face's collapse, or as it is if
    ``values`` is None (a nondegenerate face).  Lists ``(p, values, ref2)``.
    """
    return [(p, None if y.is_nondegenerate() else y.surj.values, y.ref)
            for p, y in enumerate(X.face_table[ref])]


def _label_boundary(X, ref, e, S, q, out):
    """Add ``q`` times the boundary of the label ``(ref, e, S)`` on ``X`` into ``out``.

    ``out`` is keyed ``(ref2, e2, S2)``.  The ``delta'`` entry stays on
    ``ref``; facet entry ``p`` lands as :func:`_facets` says.
    """
    m, faces = ref[0], _facets(X, ref)
    for p, terms in _monomial_boundary(m, e, S):
        ref2 = ref
        if p is not None:
            _, values, ref2 = faces[p]
            if values is not None:
                terms = _pushed_boundary(m, e, S, p, values)
        for e2, S2, c in terms:
            lab = (ref2, e2, S2)
            out[lab] = out.get(lab, 0) + q * c
    return out


def phi_boundary(c):
    """Boundary of a chain: the sum of its labels' boundaries."""
    out = {}
    for (ref, (e, S)), q in c.terms.items():
        _label_boundary(c.X, ref, e, S, q, out)
    return PhiChain(c.X, c.d - 1,
                    {(ref, (e, S)): v for (ref, e, S), v in out.items()})


def _entries(m, e, S, plan):
    """The boundary entries of the monomial ``(e, S)`` of an ``m``-simplex, in local rows.

    ``plan`` lists one key ``(p, values, rows)`` per entry: ``p`` is None for
    the ``delta'`` entry, ``values`` is None on a nondegenerate facet and
    else the vertex map of the facet's collapse, read off
    ``_pushed_boundary``, and ``rows`` maps each monomial ``(e2, S2)`` of the
    simplex the entry lands on, one degree down, to its block index, its
    local row.  Returns the tuple of ``(local row, c)`` pairs of each key,
    and whether a term in no local row, one above the cap, was dropped.
    """
    entries, out, off = dict(_monomial_boundary(m, e, S)), [], False
    for p, values, rows in plan:
        terms = entries.get(p)
        if not terms:
            out.append(())
            continue
        if values is not None:
            terms = _pushed_boundary(m, e, S, p, values)
        try:
            out.append(tuple([(rows[e2, S2], c) for e2, S2, c in terms if c]))
        except KeyError:  # a term leaves the span
            off = True
            out.append(tuple([(rows[e2, S2], c) for e2, S2, c in terms if c and (e2, S2) in rows]))
    return out, off


def _summed(entries, keys):
    """The entries of the key numbers ``keys`` summed per local row, zeros dropped."""
    if len(keys) == 1:
        return entries[keys[0]]
    acc = {}
    for i in keys:
        for row, c in entries[i]:
            acc[row] = acc.get(row, 0) + c
    return tuple([(row, c) for row, c in acc.items() if c])


def truncated_complex(X, weight_cap):
    """Finite subcomplex spanned by terms of bounded weight.

    The weight of a term is its coefficient degree plus the wedge degree.
    The derivative part of the boundary drops weight by two and restriction
    to a nondegenerate face drops it by at least one, but collapsing onto a
    degenerate face integrates over the fibre, which can raise the
    coefficient degree by more than the wedge degree it removes.  So the
    span is not closed under the boundary on every space (ROADMAP item 1).
    The block assembly handles only the span; each column of a monomial
    with a term above the cap is summed by :func:`_label_boundary`, and a
    nonzero total on a label above the cap is refused with "boundary left
    the truncation".  The label named is the first such one, in the order
    of that label boundary (``delta'``, then the facets), of the first such
    column met: by degree, simplex dimension, weight, wedge subset,
    exponents, then simplex.

    The bases are those of :func:`_bases`, weight-major, so the complex of
    a smaller weight is the leading block of this one's in every degree.
    The column of a label is the label boundary that :func:`phi_boundary`
    sums over a chain, assembled by simplex blocks.  Per degree and
    dimension, each monomial's entries are read once off the process-wide
    kernel caches, one per ``delta'`` and per (facet, collapse) that some
    simplex has, in local rows (:func:`_entries`); each simplex then places
    the entries of its stored faces ``X.face_table``, those landing on one
    simplex summed, through that simplex's rows (:func:`_places`).  No
    label is hashed, and no new cache outlives the call.  The column is then
    scaled by a positive integer lambda: 1 in degree 0, else the lcm of the
    denominators of the label's boundary entries, each over its row label's
    lambda.  So every entry is an ``int``, and the diagonal change of basis
    keeps every rank, persistence pair and stage.
    """
    if weight_cap < 0:
        raise ValueError("weight bound must be nonnegative")
    top = X.top_dim
    refs, blocks = list(map(X.nd_refs, range(top + 1))), _blocks(top, weight_cap)
    bases = _bases(X, weight_cap, blocks)
    boundaries, lams, at = [None], [1] * len(bases[0]), _places(refs, blocks, 0)
    for d in range(1, top + 1):
        below, lams, here = lams, [1] * len(bases[d]), _places(refs, blocks, d)
        mat, index = QMatrix(len(bases[d - 1]), len(bases[d])), {}
        rows = mat.rows
        for m in range(d - 1, top + 1):
            index[m] = {es: b for b, es in enumerate(chain.from_iterable(blocks[m][d - 1]))}
        for m in range(d, top + 1):
            keys, groups, simplices = {(None, None): (0, m)}, {}, []
            for ref in refs[m]:
                # key numbers by the simplex they land on, summed so a column writes a row once
                targets = {ref: [0]}
                for p, values, ref2 in _facets(X, ref):
                    targets.setdefault(ref2, []).append(
                        keys.setdefault((p, values), (len(keys), ref2[0]))[0])
                facets = []
                for ref2, g in targets.items():  # no labels below dimension d - 1
                    facets.append((groups.setdefault(tuple(g), len(groups)), at.get(ref2)))
                simplices.append((here.get(ref, ()), ref, facets))
            plan = [(p, values, index.get(m2, {})) for (p, values), (_, m2) in keys.items()]
            for b, (e, S) in enumerate(chain.from_iterable(blocks[m][d])):
                entry, off = _entries(m, e, S, plan)
                entry = [_summed(entry, g) for g in groups]
                for cols, ref, facets in simplices:
                    if off:  # refuse at the first label above the cap with a nonzero total
                        for lab, c in _label_boundary(X, ref, e, S, 1, {}).items():
                            if c and sum(lab[1]) + len(lab[2]) > weight_cap:
                                raise ValueError("boundary left the truncation at weight "
                                                 "%d: %r" % (weight_cap, lab))
                    col, lam = cols[b], 0
                    for slot, place in facets:
                        for row, c in entry[slot]:
                            row = place[row]
                            rows[row][col] = c
                            if type(c) is not int or below[row] > 1:
                                q = c.denominator * below[row]
                                lam = math.lcm(lam or 1, q // math.gcd(c.numerator, q))
                    if lam:  # else final as written
                        lams[col] = lam
                        for slot, place in facets:
                            for row, c in entry[slot]:
                                row = place[row]
                                rows[row][col] = c.numerator * lam // (c.denominator * below[row])
        boundaries.append(mat)
        at = here
    return ChainComplexQ(bases, boundaries)


class CochainForm:
    """Choice of a polynomial form on every nondegenerate simplex.

    Values on degenerate simplices are determined by pullback and never
    stored.  Compatibility under the face maps is a separate check
    (:func:`validate_cochain`), not a construction invariant, so partial
    and wrong data can be built and then diagnosed.
    """

    __slots__ = ("X", "d", "values")

    def __init__(self, X, d, values):
        self.X = X
        self.d = d
        vals = {}
        for ref in X.all_nd_refs():
            m = ref[0]
            v = values.get(ref)
            if v is None:
                v = FormElt.zero(m)
            if v.n != m:
                raise ValueError("value on %r has wrong ambient size" % (ref,))
            vals[ref] = v
        self.values = vals

    def value_on(self, simplex):
        """Value on an arbitrary simplex presented as Ref or DegSimplex."""
        if not isinstance(simplex, DegSimplex):
            return self.values[simplex]
        base = self.values[simplex.ref]
        if simplex.surj.dom == simplex.surj.cod:
            return base
        return base.pullback(simplex.surj.values)


def validate_cochain(omega):
    """Face-compatibility check; returns None or the first violation.

    A violation is reported as ``(ref, face_index)``: pulling the value on
    ``ref`` back along that face map disagrees with the value determined
    by the face's normal form.
    """
    X = omega.X
    for ref in X.all_nd_refs():
        m = ref[0]
        if m == 0:
            continue
        mine = omega.values[ref]
        for i in range(m + 1):
            lhs = mine.pullback(face(m, i).values)
            rhs = omega.value_on(X.face_table[ref][i])
            if lhs != rhs:
                return (ref, i)
    return None


def global_pair(c, omega):
    """Pair a chain against a cochain form: each simplex's terms by ``pair_integral``."""
    if c.X != omega.X:
        raise ValueError("chain and form live on different complexes")
    total = QZERO
    if c.d != omega.d:
        return total
    by_ref = {}
    for (ref, key), q in c.terms.items():
        by_ref.setdefault(ref, {})[key] = q
    for ref, terms in by_ref.items():
        total += pair_integral(ref[0], terms, omega.values[ref], range(ref[0] + 1))
    return total


def omega_wedge(P, omega, upsilon):
    """Wedge of forms on the factors, assembled on the product complex.

    ``P`` must be the product complex built from the two factor complexes;
    each of its nondegenerate simplices records the pair of factor
    simplices it projects to, which is where the factor values are read.
    """
    vals = {}
    left, right = map(functools.lru_cache(maxsize=None), (omega.value_on, upsilon.value_on))
    for ref in P.all_nd_refs():
        a, b = P.pair_of[ref]
        vals[ref] = left(a).wedge(right(b))
    return CochainForm(P, omega.d + upsilon.d, vals)


def _unit_certificates(labels, n):
    """``n!`` times the pairing of the degree-0 ``labels`` with 1, as one certificate.

    Pairing ``(ref, e, ())`` with 1 is ``int t^e = prod(e_i!) / (m+|e|)!``, for
    ``m + |e| <= n``.  By Stokes the result ``z`` (label index to int) is a cocycle.
    """
    ints, den = {}, math.factorial(n)
    for _, e, _ in labels:
        if e not in ints:
            ints[e] = _moment(len(e), e, den)
    return [(0, {i: ints[e] for i, (_, e, _) in enumerate(labels)})]


def homology_report(X, weight_cap, name=None):
    """Homology of the dual-form chains via stabilized truncations.

    Computes the image of ``H(G_D) -> H(G_{D+2})`` at ``D = weight_cap``
    and again one step up; the two image dimension vectors must agree, or
    the computation refuses to answer.  The report also records whether
    the stable dimensions match simplicial homology ``H(N)`` and whether
    the embedded simplicial classes generate the stable image.  A top
    simplex embeds at weight ``top_dim``, so ``weight_cap`` must be at
    least ``top_dim``: below it ``G_D`` cannot hold the top classes.

    One complex is built, ``G_{D+3}``, and every number is a persistent
    Betti number of its one filtered reduction.  A label has its weight as
    stage, except the labels of ``phi(N)``, which get stage -1: they come
    first in each degree of the weight-major layout (:func:`_bases`), so
    every degree is in the stage order ``FilteredReduction`` reads.  They
    span a subcomplex isomorphic to ``N`` (``phi`` is a chain map), so
    ``H(N)`` is read off the same reduction.  Each has weight at most
    ``top_dim <= D``, so for every ``a >= D`` the cells of stage at most
    ``a`` are exactly those of ``G_a``.
    """
    if name is None:
        name = getattr(X, "name", "") or "complex"
    top = X.top_dim
    if weight_cap < top:
        raise ValueError(
            "weight bound D=%d is too small for dimension %d: need D >= %d"
            % (weight_cap, top, top))
    D = weight_cap
    if (size := _label_count(X, D + 3)) > MAX_LABELS:
        raise ValueError("weight bound D=%d needs G_{D+3} of %d labels, over the "
                         "limit of %d" % (D, size, MAX_LABELS))
    G = truncated_complex(X, D + 3)
    stages = []
    for k, labels in enumerate(G.bases):
        n = len(X.nd_refs(k))  # phi(N) comes first in each degree
        stages.append([-1] * n + [sum(e) + k for _, e, _ in labels[n:]])
    F = FilteredReduction(G, stages, _unit_certificates(G.bases[0], top + D + 3))
    dims_GD = [F.betti(k, D, D) for k in range(top + 1)]
    reports = []
    for a in (D, D + 1):
        dims = [F.betti(k, a, a + 2) for k in range(top + 1)]
        # phi(N) lies in G_a, so its classes generate the image
        # exactly when the two image dimensions agree
        generated = all(F.betti(k, -1, a + 2) == dims[k]
                        for k in range(top + 1))
        reports.append((dims, generated))
    (dims0, gen0), (dims1, gen1) = reports
    if dims0 != dims1:
        raise RuntimeError(
            "truncated homology did not stabilize: image dims %r at weight %d "
            "but %r at weight %d" % (dims0, weight_cap, dims1, weight_cap + 1)
        )
    dims_N = [F.betti(k, -1, -1) for k in range(top + 1)]
    return {
        "complex": name,
        "D": weight_cap,
        "dims_GD": dims_GD,
        "stable_image_dims": dims0,
        "matches_N": dims0 == dims_N and gen0 and gen1,
    }
