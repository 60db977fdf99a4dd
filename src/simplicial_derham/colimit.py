"""Chains on smash powers ``S^A /\\ X_+`` and the stable model they present.

A level-``D`` cell here has two ingredients: a *jump profile* recording,
for each label ``a`` in the finite set ``A``, the position in ``{1..D}``
where the ``a``-th suspension coordinate switches from 0 to 1, and a
(possibly degenerate) simplex of ``X``.  The cell survives in the smash
quotient exactly when the jump positions and the degeneracy jumps of the
``X`` part jointly cover ``{1..D}``.

Everything is expressed against the orientation generator
``u_A = a_1 /\\ ... /\\ a_|A|`` with ``A`` sorted, so coefficients are
plain rationals and every identification between label sets is a signed
relabelling.
"""

import itertools
import math

from .rationals import Combination, exact
from .ordmaps import OrdMap, enumerate_shuffles, face
from .sset import DegSimplex, point, product, product_simplex
from .polyforms import ThetaElt, sort_sign
from .phiglobal import PhiChain
from .monoidal import shuffle_sign

_PT = point()


def _covers(jumps, ds):
    """Whether the label jumps and the degeneracy jumps of ``ds`` fill ``{1..D}``."""
    return set(jumps).union(ds.surj.jumps()) == set(range(1, ds.surj.dom + 1))


def _face_jumps(jumps, level, i):
    """The jumps after the face ``d_i`` of a level-``level`` cell.

    ``None`` when ``d_i`` makes some axis constant: it drops the first
    vertex of an axis jumping at 1 or the last of one jumping at ``level``.
    """
    out = []
    for j in jumps:
        if (i == 0 and j == 1) or (i == level and j == level):
            return None
        out.append(j if j <= i else j - 1)
    return tuple(out)


def z_of(A, jumps, d):
    """Orientation class of a level-``d`` suspension cell, against ``u_A``.

    ``jumps`` lists, per element of ``A`` in sorted order, the switch
    position of that axis; a value outside ``{1..d}`` means the axis map
    is constant.  Returns a signed wedge monomial in ``Theta_{[d]}`` (the
    coefficient of ``u_A``), or zero for constant axes and for jump
    collisions.
    """
    A = tuple(sorted(A))
    jumps = tuple(jumps)
    if len(jumps) != len(A):
        raise ValueError("need one jump per label")
    if any(j < 1 or j > d for j in jumps):
        return ThetaElt.zero(d)
    if len(set(jumps)) != len(jumps):
        return ThetaElt.zero(d)
    used = set(jumps)
    rest = tuple(j for j in range(1, d + 1) if j not in used)
    sign = (-1) ** len(A) * sort_sign(jumps + rest)[0]
    return ThetaElt.monomial(d, (0,) * d, rest, sign)


class UElt(Combination):
    """A reduced normalized chain on ``S^A /\\ X_+`` of degree ``d``.

    ``chain`` maps ``(jumps, simplex)`` to a rational; keys live at level
    ``d + |A|`` and must satisfy the covering condition.  The degree is
    the level minus the suspension weight ``|A|``, so the degree-``d``
    part pairs with ``Phi_d``.  Zeros of different degrees are the same
    element: a nonzero chain's keys fix its degree.
    """

    __slots__ = ("A", "X", "d", "terms")

    def __init__(self, A, X, d, chain=None):
        self.A = tuple(sorted(A))
        if len(set(self.A)) != len(self.A):
            raise ValueError("labels must be distinct")
        self.X = X
        self.d = d
        level = d + len(self.A)
        clean = {}
        if chain:
            for (jumps, ds), q in chain.items():
                q = exact(q)
                if not q:
                    continue
                jumps = tuple(jumps)
                if not isinstance(ds, DegSimplex):
                    raise ValueError("simplex part must be a DegSimplex")
                if ds.surj.dom != level:
                    raise ValueError("cell level %d, expected %d" % (ds.surj.dom, level))
                if len(jumps) != len(self.A):
                    raise ValueError("need one jump per label")
                if any(j < 1 or j > level for j in jumps):
                    raise ValueError("jump out of range")
                if ds.ref not in X.face_table:
                    raise ValueError("unknown simplex %r" % (ds.ref,))
                if not _covers(jumps, ds):
                    raise ValueError("degenerate cell %r" % ((jumps, ds),))
                clean[(jumps, ds)] = q
        self.terms = clean

    @classmethod
    def zero(cls, A, X, d):
        return cls(A, X, d, {})

    chain = property(lambda self: self.terms)

    def _shape(self):
        return self.A, self.d

    def _like(self, chain):
        return UElt(self.A, self.X, self.d, chain)

    def level(self):
        return self.d + len(self.A)

    def __repr__(self):
        return "UElt(A=%r, d=%d, %d cells)" % (self.A, self.d, len(self.terms))

    def boundary(self):
        """Differential: the simplicial boundary twisted by ``(-1)^|A|``.

        The twist makes ``phi_sharp`` strictly commute with the
        differential on chains of dual forms.
        """
        level = self.level()
        out = {}
        if level == 0:
            return UElt.zero(self.A, self.X, self.d - 1)
        tw = (-1) ** len(self.A)
        for (jumps, ds), q in self.terms.items():
            for i in range(level + 1):
                njumps = _face_jumps(jumps, level, i)
                if njumps is None:
                    continue
                nds = self.X.apply_map(face(level, i), ds)
                if not _covers(njumps, nds):
                    continue
                key = (njumps, nds)
                out[key] = out.get(key, 0) + tw * (-1) ** i * q
        return UElt(self.A, self.X, self.d - 1, out)


def phi_sharp(u):
    """Collapse a suspension chain to a chain of dual forms.

    Termwise: read off the orientation class of the jump profile and
    attach the wedge to the carrying simplex, pushed along its collapse
    when the simplex is degenerate.  The class lives on the full vertex
    set, so no face is involved.  Cells with colliding jumps die here; the
    quotient by exactly those cells is what the stable comparison map sees.
    """
    level = u.level()
    out = {}
    for (jumps, ds), q in u.chain.items():
        w = z_of(u.A, jumps, level)
        if w.is_zero():
            continue
        if not ds.is_nondegenerate():
            w = w.pushforward(ds.surj.values, ds.surj.cod)
        for key, c in w.terms.items():
            key = (ds.ref, key)
            out[key] = out.get(key, 0) + q * c
    return PhiChain(u.X, u.d, out)


def eta(A):
    """The orientation cycle in degree 0 over the one-point complex.

    Supported on the top cells of the suspension, one per bijection
    ``A -> {1..|A|}``, weighted by the sign of the bijection; the overall
    ``(-1)^|A|`` normalizes ``phi_sharp(eta(A))`` to the point's unit.
    """
    m = len(A)
    ds = DegSimplex(OrdMap((0,) * (m + 1), cod=0), (0, _PT.nd_ids(0)[0]))
    sgn = (-1) ** m
    return UElt(A, _PT, 0, {(p, ds): sgn * sort_sign(p)[0]
                            for p in itertools.permutations(range(1, m + 1))})


def nu(u, v, P=None):
    """External product into the product complex, labels concatenated.

    The chain is the shuffle product followed by the interchange of the
    middle smash factors; the prefactor is the sign merging the two label
    wedges into ``u_{A|_|B}`` times the Koszul sign for moving ``u`` past
    the orientation wedge of ``B``.
    """
    if set(u.A) & set(v.A):
        raise ValueError("label sets must be disjoint")
    if P is None:
        P = product(u.X, v.X)
    return _shuffle_product(u, v, P, lambda zeta, xi, a, b: product_simplex(
        P, u.X.apply_map(zeta, a), v.X.apply_map(xi, b)))


def _push_subset(u, Z):
    """Image of ``u`` under the inclusion ``A -> A |_| Z``.

    This is ``nu(u, eta(Z))`` with the factor ``X x pt`` already
    simplified away: the point side contributes only jump positions.
    """
    Z = tuple(sorted(Z))
    if not Z:
        return u
    if set(u.A) & set(Z):
        raise ValueError("complement overlaps the label set")
    return _shuffle_product(u, eta(Z), u.X,
                            lambda zeta, xi, a, b: u.X.apply_map(zeta, a))


def _shuffle_product(u, v, X, place):
    """The signed shuffle product of two suspension chains, on ``X``.

    Labels are concatenated and each label jump moves along the minimal
    section of its shuffle component.  ``place(zeta, xi, a, b)`` is the
    simplex of ``X`` carrying the shuffled pair of simplices ``a``, ``b``.
    """
    C = tuple(sorted(u.A + v.A))
    in_u = set(u.A)
    pos_u = {a: i for i, a in enumerate(u.A)}
    pos_v = {b: i for i, b in enumerate(v.A)}
    base = sort_sign(u.A + v.A)[0] * (-1) ** (u.d * len(v.A))
    shuffles = [(zeta, xi, zeta.dagger(), xi.dagger(), base * shuffle_sign(zeta, xi))
                for zeta, xi in enumerate_shuffles((u.level(), v.level()))]
    out = {}
    for (ja, dsa), qa in u.chain.items():
        for (jb, dsb), qb in v.chain.items():
            for zeta, xi, zdag, xdag, sign in shuffles:
                jumps = tuple(
                    zdag(ja[pos_u[c]]) if c in in_u else xdag(jb[pos_v[c]]) for c in C
                )
                ds = place(zeta, xi, dsa, dsb)
                if not _covers(jumps, ds):
                    continue
                key = (jumps, ds)
                out[key] = out.get(key, 0) + sign * qa * qb
    return UElt(C, X, u.d + v.d, out)


def lambda_star(lam, u, B=None):
    """Push forward along an injection of label sets.

    ``lam`` maps the labels of ``u`` injectively; ``B`` (default: the
    image) is the target set, and the complement of the image is filled
    with an orientation cycle.  Bijections are pure signed relabellings.
    """
    image = [lam[a] for a in u.A]
    if len(set(image)) != len(image):
        raise ValueError("not injective")
    if B is None:
        B = image
    B = tuple(sorted(B))
    if not set(image) <= set(B):
        raise ValueError("image must land in the target set")
    Ap = tuple(sorted(image))
    sign = sort_sign(image)[0]
    order = sorted(range(len(image)), key=lambda i: image[i])
    chain = {}
    for (jumps, ds), q in u.chain.items():
        chain[(tuple(jumps[i] for i in order), ds)] = sign * q
    relab = UElt(Ap, u.X, u.d, chain)
    return _push_subset(relab, tuple(b for b in B if b not in set(Ap)))


def zeta(X, x, nu_vec, J):
    """Stable class with prescribed image ``x (x) t^[nu] w_J``.

    ``x`` is a nondegenerate ``n``-simplex reference, ``nu_vec`` a length
    ``n+1`` multi-index over ``[n]`` (position 0 included), ``J`` a subset
    of ``{1..n}``.  The representative is a single cell: the degeneracy
    with fibre sizes ``nu_i + 1`` carrying ``x``, with jumps at every
    level position not consumed by ``J``.
    """
    n = x[0]
    if not X.has_ref(x):
        raise ValueError("unknown simplex %r" % (x,))
    nu_vec = tuple(nu_vec)
    if len(nu_vec) != n + 1 or any(c < 0 for c in nu_vec):
        raise ValueError("multi-index must have %d nonnegative entries" % (n + 1))
    J = tuple(sorted(J))
    if any(j < 1 or j > n for j in J):
        raise ValueError("wedge subset out of range")
    d = n + sum(nu_vec)
    vals = []
    for i in range(n + 1):
        vals.extend([i] * (nu_vec[i] + 1))
    sigma = OrdMap(vals, cod=n)
    sdag = sigma.dagger()
    Jd = tuple(sorted(sdag(j) for j in J))
    A = tuple(i for i in range(1, d + 1) if i not in set(Jd))
    eps = (-1) ** len(A) * sort_sign(A + Jd)[0]
    rep = UElt(A, X, len(J), {(A, DegSimplex(sigma, x)): eps})
    return StabClass(rep)


def zeta_prime(c):
    """Section of the collapse: termwise stable classes, summed.

    A basis term carries a plain monomial ``t^e``; dividing into the
    divided-power normal form costs ``e!``, which appears as the scalar
    on each single-cell class.
    """
    reps = []
    for (ref, (e, S)), q in c.terms.items():
        fact = 1
        for ei in e:
            fact *= math.factorial(ei)
        reps.append(zeta(c.X, ref, (0,) + tuple(e), S).rep.scale(q * fact))
    return StabClass(_union_sum(reps, c.X, c.d))


def _union_sum(reps, X, d):
    """The sum of degree-``d`` chains, each stabilized into the union of their label sets."""
    C = tuple(sorted({a for u in reps for a in u.A}))
    out = {}
    for u in reps:
        for key, q in lambda_star({a: a for a in u.A}, u, B=C).chain.items():
            out[key] = out.get(key, 0) + q
    return UElt(C, X, d, out)


def psi(s):
    """Value of the stable comparison map on a class."""
    return phi_sharp(s.rep)


class StabClass:
    """A class in the stable colimit over all label sets.

    Holds one representative; sums stabilize both sides into the union
    label set first.  Equality is decided through the canonical form
    (collapse, then re-section), which amounts to comparing collapse
    values since the section is a right inverse.
    """

    __slots__ = ("rep",)

    def __init__(self, rep):
        self.rep = rep

    def scale(self, c):
        return StabClass(self.rep.scale(c))

    def __add__(self, other):
        a, b = self.rep, other.rep
        if a.d != b.d:
            raise ValueError("mismatched degree")
        if a.is_zero() and not a.A:
            return other
        if b.is_zero() and not b.A:
            return self
        return StabClass(_union_sum((a, b), a.X, a.d))

    def __eq__(self, other):
        if not isinstance(other, StabClass):
            return NotImplemented
        if self.rep.d != other.rep.d:
            return False
        return psi(self) == psi(other)

    def __repr__(self):
        return "StabClass(%r)" % (self.rep,)
