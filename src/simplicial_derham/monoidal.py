"""Shuffle products: on dual forms, on normalized chains, and chainwise.

A shuffle of sizes ``(n, m)`` is a jointly injective pair of surjections
out of ``[n+m]``; it identifies the big simplex with one nondegenerate
cell of a product of two smaller ones.  The same combinatorics multiplies
dual forms (transfer both factors, then wedge), normalized chains (the
classical signed sum over shuffles), and simplex-carried dual forms (pair
the shuffled cell with the multiplied form, no extra sign).

All signs here are computed, never tabulated: the sign of a shuffle is
the wedge sort sign of its two jump blocks laid end to end.
"""

import functools

from .rationals import accumulate
from .ordmaps import OrdMap, enumerate_shuffles, shuffle_to_partition
from .polyforms import ThetaElt, sort_sign
from .phiglobal import PhiChain
from .sset import DegSimplex, product_ref, product_simplex

__all__ = [
    "mu_theta",
    "shuffle_sign",
    "shuffle_product_N",
    "mu_phi",
    "mu_phi3",
    "transport_swap",
    "gap_diagnostic",
]


def mu_theta(zeta, xi, a, b):
    """Multiply dual forms along a shuffle: transfer each factor, wedge.

    ``a`` lives over ``[zeta.cod]``, ``b`` over ``[xi.cod]``; the result
    lives over the common domain ``[zeta.dom]``.
    """
    if zeta.dom != xi.dom:
        raise ValueError("shuffle components have different domains")
    if a.n != zeta.cod or b.n != xi.cod:
        raise ValueError("factor sizes do not match the shuffle")
    return a.bullet(zeta).wedge(b.bullet(xi))


def shuffle_sign(zeta, xi):
    """Sign of the shuffle permutation: sort the first jump block before the second.

    It is also the sign comparing the shuffled product of the two top
    classes with the top class of the big simplex.
    """
    A, B = shuffle_to_partition((zeta, xi))
    return sort_sign(A + B)[0]


def shuffle_product_N(P, cx, cy):
    """Shuffle product of normalized chains, valued on the product complex.

    ``cx`` and ``cy`` map nondegenerate refs of the factors to rationals;
    the result maps nondegenerate refs of ``P`` to rationals.  Shuffled
    cells of nondegenerate factors are nondegenerate, so no normalization
    is needed.
    """
    out = {}
    for xref, qx in cx.items():
        if not qx:
            continue
        for yref, qy in cy.items():
            if not qy:
                continue
            q = qx * qy
            for zeta, xi in enumerate_shuffles((xref[0], yref[0])):
                ref = product_ref(P, DegSimplex(zeta, xref), DegSimplex(xi, yref))
                accumulate(out, ref, q * shuffle_sign(zeta, xi))
    return out


def mu_phi(P, a, b):
    """Product of simplex-carried dual forms on the product complex.

    Every term pairs one shuffled product cell with the shuffled product
    of the two dual forms; the sum runs over all shuffles of the two
    dimensions.  No sign appears here beyond those inside the form
    product itself.  A factor monomial is transferred once per component.
    """
    out = {}
    lift = functools.lru_cache(maxsize=None)(
        lambda m, key, surj: ThetaElt.monomial(m, *key).bullet(surj))
    for (xref, k1), q1 in a.terms.items():
        for (yref, k2), q2 in b.terms.items():
            q = q1 * q2
            for zeta, xi in enumerate_shuffles((xref[0], yref[0])):
                gamma = lift(xref[0], k1, zeta).wedge(lift(yref[0], k2, xi))
                if gamma.is_zero():
                    continue
                ref = product_ref(P, DegSimplex(zeta, xref), DegSimplex(xi, yref))
                for key, c in gamma.terms.items():
                    out[ref, key] = out.get((ref, key), 0) + c * q
    return PhiChain(P, a.d + b.d, out)


def mu_phi3(P_outer, P_inner, a, b, c, nest="left"):
    """Triple product in one pass over triple shuffles.

    ``nest='left'`` targets ``(X x Y) x Z`` (``P_inner`` the inner pair,
    ``P_outer`` the whole); ``nest='right'`` targets ``X x (Y x Z)``.
    Binary products of products agree with this by the operadic splitting
    of triple shuffles, which is the associativity check.
    """
    out = {}
    for (xr, (e1, S1)), q1 in a.terms.items():
        th1 = ThetaElt.monomial(xr[0], e1, S1)
        for (yr, (e2, S2)), q2 in b.terms.items():
            th2 = ThetaElt.monomial(yr[0], e2, S2)
            for (zr, (e3, S3)), q3 in c.terms.items():
                th3 = ThetaElt.monomial(zr[0], e3, S3)
                q = q1 * q2 * q3
                for z1, z2, z3 in enumerate_shuffles((xr[0], yr[0], zr[0])):
                    gamma = th1.bullet(z1).wedge(th2.bullet(z2)).wedge(th3.bullet(z3))
                    if gamma.is_zero():
                        continue
                    if nest == "left":
                        inner = product_simplex(P_inner, DegSimplex(z1, xr),
                                                DegSimplex(z2, yr))
                        ref = product_ref(P_outer, inner, DegSimplex(z3, zr))
                    else:
                        inner = product_simplex(P_inner, DegSimplex(z2, yr),
                                                DegSimplex(z3, zr))
                        ref = product_ref(P_outer, DegSimplex(z1, xr), inner)
                    for key, v in gamma.terms.items():
                        out[ref, key] = out.get((ref, key), 0) + v * q
    return PhiChain(P_outer, a.d + b.d + c.d, out)


def transport_swap(P, P_swapped, chain):
    """Carry a chain across the factor-swap identification of products.

    ``chain`` lives on ``P`` built as ``X x Y``; the result lives on
    ``P_swapped`` built as ``Y x X``.  Cells correspond by swapping their
    factor pair; the form data is untouched.
    """
    terms = {}
    for (ref, key), q in chain.terms.items():
        a, b = P.pair_of[ref]
        terms[(product_ref(P_swapped, b, a), key)] = q
    return PhiChain(P_swapped, chain.d, terms)


def _restriction_groups(n, m):
    """Group shuffles by deleting one position from their value table.

    Keys are (k, restricted value pairs); each group holds every shuffle
    extending that restricted injection.  Groups of size two are the
    cancelling pattern; singletons reproduce a one-factor boundary term.
    """
    groups = {}
    for zeta, xi in enumerate_shuffles((n, m)):
        for k in range(n + m + 1):
            rest = tuple(
                (zeta.values[t], xi.values[t]) for t in range(n + m + 1) if t != k
            )
            groups.setdefault((k, rest), []).append((zeta, xi))
    return groups


def gap_diagnostic(n, m):
    """Exhaustively verify the three boundary-interaction patterns.

    For each shuffle and deleted position, the restricted pair either is
    shared with exactly one other shuffle (the two contractions cancel) or
    determines a unique gap in one factor (the contraction equals the
    shuffled image of that factor's own contraction, with the usual parity
    when the gap sits in the second factor).  Checks all wedge pairs in
    all exterior degrees, not only one-forms in the second factor; the
    pattern holds in this generality.  Returns counts per pattern.
    """
    from itertools import combinations

    counts = {"cancelling": 0, "first": 0, "second": 0}
    basis_n = [ThetaElt.monomial(n, (0,) * n, S) for d in range(n + 1)
               for S in combinations(range(1, n + 1), d)]
    basis_m = [ThetaElt.monomial(m, (0,) * m, S) for d in range(m + 1)
               for S in combinations(range(1, m + 1), d)]
    for (k, rest), members in _restriction_groups(n, m).items():
        if len(members) == 2:
            counts["cancelling"] += 1
            (z1, x1), (z2, x2) = members
            for al in basis_n:
                for be in basis_m:
                    s = mu_theta(z1, x1, al, be) + mu_theta(z2, x2, al, be)
                    if not s.contract_face(k).is_zero():
                        raise AssertionError(
                            "paired contractions failed to cancel at %r" % ((k, rest),)
                        )
            continue
        if len(members) != 1:
            raise AssertionError("impossible extension count %d" % len(members))
        zeta, xi = members[0]
        in_first = _gap_in_first(zeta, xi, k)
        small_z, small_x, i = _restricted_shuffle(zeta, xi, k, in_first)
        counts["first" if in_first else "second"] += 1
        for al in basis_n:
            for be in basis_m:
                lhs = mu_theta(zeta, xi, al, be).contract_face(k)
                if in_first:
                    rhs = mu_theta(small_z, small_x, al.contract_face(i), be)
                else:
                    rhs = mu_theta(small_z, small_x, al, be.contract_face(i))
                    rhs = rhs.scale((-1) ** al.degree())
                if lhs != rhs:
                    raise AssertionError(
                        "gap identity failed at %r" % ((k, rest, in_first),)
                    )
    return counts


def _gap_in_first(zeta, xi, k):
    top = zeta.dom
    if k == 0:
        return zeta.values[1] == 1
    if k == top:
        return zeta.values[top - 1] == zeta.cod - 1
    return zeta.values[k + 1] - zeta.values[k - 1] == 2


def _restricted_shuffle(zeta, xi, k, in_first):
    """Delete position ``k``; renumber the factor whose gap it fills."""
    gap, keep = (zeta, xi) if in_first else (xi, zeta)
    i = gap.values[k]
    gvals = tuple(
        v if v < i else v - 1
        for t, v in enumerate(gap.values)
        if t != k
    )
    kvals = tuple(v for t, v in enumerate(keep.values) if t != k)
    g = OrdMap(gvals, cod=gap.cod - 1)
    kp = OrdMap(kvals, cod=keep.cod)
    return (g, kp, i) if in_first else (kp, g, i)
