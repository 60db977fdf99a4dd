"""Face-indexed dual forms on a standard simplex.

A :class:`PhiElt` attaches to nonempty vertex subsets ``J`` of ``{0..n}``
polynomial dual forms living on the face spanned by ``J``, each written in
the standard coordinates of a simplex of size ``len(J)``.  The boundary
operator combines a within-face derivative part with a part that restricts
data to smaller faces; it pairs against ambient differential forms face
by face, each face one exact sum (``polyforms.pair_integral``).

Like the paper's functor, the boundary is fixed by its values on standard
simplices: :func:`_monomial_boundary` writes ``delta`` of one monomial
``t^e w_S`` over ``[m]`` in closed form, as plain tuples naming each face
it lands on by the deleted vertex, and caches each monomial for the life
of the process.  Its wedge side depends on ``(m, S)`` alone and is read
off ``polyforms._boundary_wedges``, the one table of interior products
and face signs that the face contraction reads too; its coefficient side
is written straight from the exponents.  Its exponent tuples, terms and
entries are interned in ``polyforms._SHARED`` on a miss, so a tuple equal
across kernels is kept once, for as long as the cache.
:func:`delta`, :func:`delta_prime` and :func:`delta_dblprime` are passes
of its linear extension, and ``phiglobal`` reads it against the stored
faces of a simplex.

Everything is exact: coefficients are rationals throughout.
"""

import functools

from .rationals import QZERO, Combination
from .polyforms import (_SHARED, FormElt, Poly, ThetaElt, _boundary_wedges, _reduce_raw,
                        _theta_push, _transfer, _vertex_map, pair_integral, theta_top)

__all__ = [
    "PhiElt",
    "delta",
    "delta_prime",
    "delta_dblprime",
    "push_phi",
    "big_pair",
    "xi_witness",
    "vertex_connector",
    "theta_top",
]


def _subset_key(J):
    J = tuple(sorted(J))
    if not J:
        raise ValueError("components live on nonempty vertex subsets")
    if len(set(J)) != len(J):
        raise ValueError("subset has repeated vertices")
    return J


class PhiElt(Combination):
    """Sparse family of dual forms indexed by nonempty vertex subsets.

    ``comps[J]`` is a :class:`ThetaElt` over ``[len(J)-1]``, the standard
    model of the face spanned by ``J``.  All stored components share the
    exterior degree ``m``; zero components are never stored.  Zeros of
    different formal degrees are the same element.
    """

    __slots__ = ("n", "m", "terms")

    def __init__(self, n, m, comps=None):
        self.n = n
        self.m = m
        clean = {}
        if comps:
            for J, alpha in comps.items():
                J = _subset_key(J)
                if J[0] < 0 or J[-1] > n:
                    raise ValueError("subset outside the ambient vertex set")
                if alpha.is_zero():
                    continue
                if alpha.n != len(J) - 1:
                    raise ValueError("component size mismatch on %r" % (J,))
                if alpha.degree() != m:
                    raise ValueError("component degree mismatch on %r" % (J,))
                clean[J] = alpha
        self.terms = clean

    @classmethod
    def zero(cls, n, m=0):
        return cls(n, m, {})

    @classmethod
    def include(cls, n, J, alpha):
        """View a dual form on the face spanned by ``J`` inside ``{0..n}``."""
        return cls(n, alpha.degree(), {tuple(sorted(J)): alpha})

    @classmethod
    def top_class(cls, n):
        """The fundamental element on the full vertex set."""
        return cls.include(n, range(n + 1), theta_top(n))

    comps = property(lambda self: self.terms)

    def _shape(self):
        return self.n, self.m

    def _like(self, comps):
        return PhiElt(self.n, self.m, comps)

    def components(self):
        """Components in lexicographic subset order."""
        for J in sorted(self.terms):
            yield J, self.terms[J]

    def scale(self, c):
        # the values are dual forms, scaled themselves
        return self._like({J: a.scale(c) for J, a in self.terms.items()} if c else {})

    def __repr__(self):
        if self.is_zero():
            return "PhiElt(%d, 0)" % self.n
        parts = ", ".join("%r: %r" % (J, a) for J, a in self.components())
        return "PhiElt(%d, {%s})" % (self.n, parts)


@functools.lru_cache(maxsize=None)
def _monomial_boundary(m, e, S):
    """``delta`` of ``t^e w_S`` on the standard ``m``-simplex, in closed form.

    The one local boundary, as ``(p, ((e2, S2, c), ...))`` pairs: first the
    ``delta'`` component ``-sum_j e_j t^(e - 1_j) i(dt_j) w_S`` on the whole
    simplex, with ``p = None``, then ``-contract_face(p)`` on each facet
    ``d_p`` that the contraction does not kill.  The wedge side is read off
    ``polyforms._boundary_wedges``, so its signs are those of
    ``ThetaElt.contract_face``.  The coefficient side is written
    from ``e``: ``d/dt_j`` takes ``e_j`` down by one with the factor
    ``e_j``, restriction to facet ``p >= 1`` drops coordinate ``p`` where
    ``e_p = 0`` and kills the term otherwise, and facet 0 re-eliminates
    by ``polyforms._reduce_raw``.  No element is built, every coefficient
    is an ``int``, each key is kept for the life of the process, and every
    tuple in it is shared.
    """
    share = _SHARED.setdefault
    prime, facets = _boundary_wedges(m, S)
    out, terms = [], []
    for j, wedges in prime:
        k = e[j - 1]
        if k:
            e2 = e[:j - 1] + (k - 1,) + e[j:]
            e2 = share(e2, e2)
            for S2, a in wedges:
                t = (e2, S2, -k * a)
                terms.append(share(t, t))
    if terms:
        terms = tuple(terms)
        out.append((None, share(terms, terms)))
    for p, a, S2 in facets:
        if not p:
            res = _reduce_raw(m - 1, {e: 1}).items()
        elif e[p - 1]:
            continue
        else:
            res = ((e[:p - 1] + e[p:], 1),)
        terms = []
        for e2, c in res:
            t = (share(e2, e2), S2, -a * c)
            terms.append(share(t, t))
        terms = tuple(terms)
        out.append((p, share(terms, terms)))
    return tuple(out)


def _extend(a, passes):
    """The linear extension of :func:`_monomial_boundary` to ``a``, of degree ``m - 1``.

    Each pass runs over all of ``a`` and keeps the ``delta'`` entries
    (``True``) or the facet entries (``False``); on a component over ``J``,
    facet ``p`` is ``J`` without ``J[p]``.  A face is listed from the first
    pass that reaches it, and each face gets one ``ThetaElt``.
    """
    faces = {}
    for prime in passes:
        for J, alpha in a.comps.items():
            for (e, S), c in alpha.terms.items():
                for p, terms in _monomial_boundary(alpha.n, e, S):
                    if (p is None) != prime:
                        continue
                    acc = faces.setdefault(J if prime else J[:p] + J[p + 1:], {})
                    for e2, S2, b in terms:
                        acc[e2, S2] = acc.get((e2, S2), 0) + c * b
    return PhiElt(a.n, a.m - 1, {J: ThetaElt(len(J) - 1, t) for J, t in faces.items()})


def delta_prime(a):
    """Within-face boundary: coefficient derivatives contracted into wedges.

    On a component over ``[k]`` this is ``-sum_j i(dt_j) d/dt_j``, with the
    interior products of ``polyforms._boundary_wedges``, whose face signs
    the face part uses; the linear extension of the monomial kernel's
    ``delta'`` part.
    """
    return _extend(a, (True,))


def delta_dblprime(a):
    """Face-restriction boundary: ``-contract_face(p)`` onto the facet without ``J[p]``.

    The linear extension of the monomial kernel's ``delta''`` part.
    """
    return _extend(a, (False,))


def delta(a):
    """Total boundary; squares to zero.

    The linear extension of :func:`_monomial_boundary`: both parts sum
    into one element, ``delta'`` first, so its components are listed as in
    ``delta_prime(a) + delta_dblprime(a)``.
    """
    return _extend(a, (True, False))


def push_phi(a, values, cod):
    """Transfer along an arbitrary vertex map ``{0..n} -> {0..cod}``.

    Each subset surjects onto its image; the component is pushed forward
    along that surjection (fibrewise integration on coefficients, dual
    transfer on wedges), or added as it is along the identity.  ``values``
    may be any integer sequence, monotone or not.
    """
    values = tuple(values)
    if len(values) != a.n + 1:
        raise ValueError("vertex map must list an image for every vertex")
    values = _vertex_map(values, cod)
    faces = {}
    for J, alpha in a.comps.items():
        image = tuple(sorted({values[j] for j in J}))
        local = tuple(image.index(values[j]) for j in J)
        acc = faces.get(image, {})
        if local == tuple(range(len(J))):
            for t, c in alpha.terms.items():
                acc[t] = acc.get(t, 0) + c
        else:
            _transfer(_theta_push, local, alpha.terms, acc)
        # a face is listed from the first component that gives it terms
        if acc:
            faces[image] = acc
    return PhiElt(cod, a.m, {J: ThetaElt(len(J) - 1, t) for J, t in faces.items()})


def big_pair(a, omega):
    """Pair against an ambient form: each component against ``omega`` on its
    face, integrated in one sum by ``pair_integral``, with no restricted form
    built.  Mismatched degrees pair to zero.
    """
    if omega.n != a.n:
        raise ValueError("ambient size mismatch")
    total = QZERO
    for J, alpha in a.comps.items():
        total += pair_integral(alpha.n, alpha.terms, omega, J)
    return total


def xi_witness(a):
    """An ambient form whose pairing against ``a`` is provably nonzero.

    Construction: take a largest face ``J`` carrying a nonzero component
    (lexicographically first among ties), read off a wedge direction ``S``
    it actually uses, and let ``f0`` be the paired coefficient polynomial.
    The witness is ``f * g * ds_T`` where ``f`` re-expresses ``f0`` in
    ambient coordinates, ``g`` is the product of the coordinates of ``J``,
    and ``T`` places ``S`` at the ambient positions of ``J``.  Components
    on faces not containing ``J`` kill ``g`` under restriction, larger
    faces carry nothing, so the pairing equals the integral of ``f0^2``
    against a positive weight: a strictly positive rational.
    """
    if a.is_zero():
        raise ValueError("witness requires a nonzero element")
    size = max(len(J) for J in a.comps)
    J = min(J2 for J2 in a.comps if len(J2) == size)
    alpha = a.comps[J]
    k = alpha.n
    S = min(S2 for (_, S2) in alpha.terms)
    f0 = alpha.pair(FormElt.monomial(k, (0,) * k, S))
    amb = {}
    for e, c in f0.terms.items():
        ee = [0] * a.n
        for pos in range(1, k + 1):
            ee[J[pos] - 1] = e[pos - 1]
        amb[tuple(ee)] = c
    f = Poly(a.n, amb)
    raw = tuple(1 if i in set(J) else 0 for i in range(a.n + 1))
    g = Poly.from_raw(a.n, {raw: 1})
    fg = f * g
    T = tuple(J[s] for s in S)
    return FormElt(a.n, {(e, T): c for e, c in fg.terms.items()})


def vertex_connector(n, a, b):
    """Element whose boundary connects two vertex classes.

    ``delta(vertex_connector(n, a, b)) == include({b}, 1) - include({a}, 1)``.
    """
    if not (0 <= a < b <= n):
        raise ValueError("need 0 <= a < b <= ambient size")
    return PhiElt.include(n, (a, b), ThetaElt.w(1, 1))
