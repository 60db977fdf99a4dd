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
``H(G_a) -> H(G_b)`` it reports, and the simplicial homology it compares
them with, is a persistent Betti number of that one reduction.

The boundary of a label ``(ref, exps, S)`` depends on its simplex only
through the faces of that simplex: it is the boundary of the monomial on
the standard ``m``-simplex, placed on ``ref`` by pushing each face
component along the face's collapse.  :func:`phi_boundary` and
:func:`truncated_complex` share that one label boundary, and the two
caches behind it: the local boundary of a key ``(m, exps, S)`` and each
of its pushforwards along degenerate faces do not depend on the space at
all, so both are kept for the life of the process.  There is one entry
per local key ever assembled, at most the monomials of one simplex per
dimension of ``G_W`` for the largest dimension and weight requested, and
one per (key, face, collapse) pushed, a collapse being a surjection of the
face's vertices onto fewer; neither grows with the number of simplices.
The table of faces, per (simplex, vertex subset), lives for one call.
"""

import functools
from itertools import combinations

from .rationals import QZERO, Combination, exact
from .ordmaps import subset_incl, face
from .polyforms import FormElt, ThetaElt, _compositions
from .philocal import PhiElt, delta
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


def _monomial_blocks(X, weight_cap):
    """The local monomials ``(e, S)`` of weight at most ``weight_cap``, per ``(m, d)``.

    Every nondegenerate ``m``-simplex carries the block ``(m, d)``, in this
    order, in degree ``d``; only dimensions with a simplex get blocks.
    """
    return {(m, d): [(e, S) for S in combinations(range(1, m + 1), d)
                     for total in range(weight_cap - d + 1)
                     for e in _compositions(total, m)]
            for m in range(X.top_dim + 1) if X.nd_refs(m)
            for d in range(m + 1)}


def _basis_labels(X, d, blocks):
    """The degree-``d`` labels ``(ref, e, S)``: one block per simplex, by dimension."""
    return [(ref, e, S) for m in range(d, X.top_dim + 1)
            for ref in X.nd_refs(m) for e, S in blocks[m, d]]


def _flat(alpha):
    """The terms of a dual form as one tuple of ``(e, S, c)``."""
    return tuple((e, S, c) for (e, S), c in alpha.terms.items())


@functools.lru_cache(maxsize=None)
def _local_boundary(m, e, S):
    """``delta`` of ``t^e w_S`` on the standard ``m``-simplex, as ``(J, terms)`` pairs.

    ``terms`` is the component on the face ``J`` as a tuple of
    ``(e2, S2, c)``; cached for the life of the process.
    """
    local = delta(PhiElt.include(m, range(m + 1), ThetaElt.monomial(m, e, S)))
    return tuple((J, _flat(beta)) for J, beta in local.comps.items())


@functools.lru_cache(maxsize=None)
def _pushed_boundary(m, e, S, J, values, cod):
    """The face-``J`` component of ``_local_boundary(m, e, S)`` pushed along ``values``.

    ``values`` is the vertex map of the face's collapse onto ``[cod]``; the
    result is a tuple of ``(e2, S2, c)``, cached for the life of the process.
    """
    terms = dict(_local_boundary(m, e, S))[J]
    beta = ThetaElt(len(J) - 1, {(e2, S2): c for e2, S2, c in terms})
    return _flat(beta.pushforward(values, cod))


def _label_boundary(X, ref, e, S, local, q, faces, out):
    """Add ``q`` times the boundary of the label ``(ref, e, S)`` on ``X`` into ``out``.

    ``local`` is ``_local_boundary(ref[0], e, S)``, looked up by the caller
    so that one lookup serves every simplex of a key.  ``out`` is keyed
    ``(ref2, e2, S2)``; ``faces`` holds the faces of ``ref``, per vertex
    subset ``J``, for the caller's lifetime.
    """
    m = ref[0]
    for J, terms in local:
        y = faces.get((ref, J))
        if y is None:
            y = faces[ref, J] = X.apply_map(subset_incl(J, m), ref)
        # a nondegenerate face keeps its component as it is
        if not y.is_nondegenerate():
            terms = _pushed_boundary(m, e, S, J, y.surj.values, y.surj.cod)
        for e2, S2, c in terms:
            lab = (y.ref, e2, S2)
            out[lab] = out.get(lab, 0) + q * c
    return out


def phi_boundary(c):
    """Boundary of a chain: the sum of its labels' boundaries."""
    out, faces = {}, {}
    for (ref, (e, S)), q in c.terms.items():
        _label_boundary(c.X, ref, e, S, _local_boundary(ref[0], e, S), q,
                        faces, out)
    return PhiChain(c.X, c.d - 1,
                    {(ref, (e, S)): v for (ref, e, S), v in out.items()})


def truncated_complex(X, weight_cap):
    """Finite subcomplex spanned by terms of bounded weight.

    The weight of a term is its coefficient degree plus the wedge degree.
    The derivative part of the boundary drops weight by two and restriction
    to a nondegenerate face drops it by at least one, but collapsing onto a
    degenerate face integrates over the fibre, which can raise the
    coefficient degree by more than the wedge degree it removes.  So the
    span is not closed under the boundary on every space: each target is
    checked while the matrices are assembled, and a boundary that leaves
    the span is refused with "boundary left the truncation" (ROADMAP item 1).

    The matrices are assembled one local key ``(m, exps, S)`` at a time,
    the column of each nondegenerate ``m``-simplex being the same label
    boundary that :func:`phi_boundary` sums over a chain.  It reads the
    process-wide caches :func:`_local_boundary` and
    :func:`_pushed_boundary`, so a key or a collapse met by an earlier
    call, on any space, is not recomputed.  The faces themselves, per
    (simplex, vertex subset), are kept for this call only.
    """
    if weight_cap < 0:
        raise ValueError("weight bound must be nonnegative")
    top = X.top_dim
    blocks = _monomial_blocks(X, weight_cap)
    bases = [_basis_labels(X, d, blocks) for d in range(top + 1)]
    faces = {}
    boundaries = [None]
    for d in range(1, top + 1):
        idx = {lab: i for i, lab in enumerate(bases[d - 1])}
        mat = QMatrix(len(bases[d - 1]), len(bases[d]))
        col0 = 0
        for m in range(d, top + 1):
            refs = X.nd_refs(m)
            if not refs:
                continue
            monos = blocks[m, d]
            for i, (e, S) in enumerate(monos):
                local = _local_boundary(m, e, S)
                for r, ref in enumerate(refs):
                    acc = _label_boundary(X, ref, e, S, local, 1, faces, {})
                    # the labels of one simplex sit in a block of len(monos)
                    col = col0 + r * len(monos) + i
                    for lab, c in acc.items():
                        if not c:
                            continue
                        row = idx.get(lab)
                        if row is None:
                            raise ValueError(
                                "boundary left the truncation at weight %d: %r"
                                % (weight_cap, lab))
                        mat.rows[row][col] = exact(c)
            col0 += len(refs) * len(monos)
        boundaries.append(mat)
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

    @classmethod
    def constant(cls, X, poly_const):
        """Degree-0 form with the same constant on every simplex."""
        vals = {}
        for ref in X.all_nd_refs():
            vals[ref] = FormElt(ref[0], {((0,) * ref[0], ()): poly_const})
        return cls(X, 0, vals)

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
            fx = X.face_of_nd(ref, i)
            lhs = mine.pullback(face(m, i).values)
            rhs = omega.value_on(fx)
            if lhs != rhs:
                return (ref, i)
    return None


def global_pair(c, omega):
    """Pair a chain against a cochain form: integrate term against value."""
    if c.X != omega.X:
        raise ValueError("chain and form live on different complexes")
    total = QZERO
    if c.d != omega.d:
        return total
    for (ref, (e, S)), q in c.terms.items():
        m = ref[0]
        alpha = ThetaElt.monomial(m, e, S)
        total += alpha.pair(omega.values[ref]).integrate() * q
    return total


def omega_wedge(P, omega, upsilon):
    """Wedge of forms on the factors, assembled on the product complex.

    ``P`` must be the product complex built from the two factor complexes;
    each of its nondegenerate simplices records the pair of factor
    simplices it projects to, which is where the factor values are read.
    """
    vals = {}
    for ref in P.all_nd_refs():
        a, b = P.pair_of[ref]
        va = omega.values[a.ref].pullback(a.surj.values)
        vb = upsilon.values[b.ref].pullback(b.surj.values)
        vals[ref] = va.wedge(vb)
    return CochainForm(P, omega.d + upsilon.d, vals)


def _phi_label(k):
    """The truncation label that phi gives a degree-``k`` simplex ``cid``."""
    return lambda cid: ((k, cid), (0,) * k, tuple(range(1, k + 1)))


def homology_report(X, weight_cap, name=None):
    """Homology of the dual-form chains via stabilized truncations.

    Computes the image of ``H(G_D) -> H(G_{D+2})`` at ``D = weight_cap``
    and again one step up; the two image dimension vectors must agree, or
    the computation refuses to answer.  The report also records whether
    the stable dimensions match ordinary simplicial homology and whether
    the embedded simplicial classes generate the stable image.  A top
    simplex embeds at weight ``top_dim``, and below that bound ``G_D``
    cannot hold the top classes, so the report would come out wrong:
    ``weight_cap`` must be at least ``top_dim``, which is never negative.

    Every number comes from one filtered reduction of ``G_{D+3}``: a label
    has its weight as stage, except the labels of ``phi(N)``, which form a
    subcomplex (``phi`` is a chain map) and get stage -1.  A label of
    ``phi(N)`` has weight at most ``top_dim <= D``, so for every ``a >= D``
    the cells of stage at most ``a`` are exactly those of ``G_a``.  The
    stage -1 subcomplex ``phi(N)`` is isomorphic to ``N``, so ``H(N)`` is
    read off the same reduction.
    """
    if name is None:
        name = getattr(X, "name", "") or "complex"
    top = X.top_dim
    if weight_cap < top:
        raise ValueError(
            "weight bound D=%d is too small for dimension %d: need D >= %d"
            % (weight_cap, top, top))
    D = weight_cap
    N = X.chain_complex()
    G = truncated_complex(X, D + 3)
    phi = {_phi_label(k)(cid) for k in range(top + 1) for cid in N.bases[k]}
    stages = [[-1 if lab in phi else sum(lab[1]) + k for lab in labels]
              for k, labels in enumerate(G.bases)]
    F = FilteredReduction(G, stages)
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
