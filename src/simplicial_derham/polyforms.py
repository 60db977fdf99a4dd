"""Rational polynomial functions, differential forms, and dual forms on a simplex.

Everything lives over the affine simplex with vertex set ``[n]``: the function
ring is ``P = Q[t_0, ..., t_n] / (1 - sum t_i)``.  Canonical representatives
eliminate ``t_0``, so a :class:`Poly` over ``[n]`` is a genuine polynomial in
``t_1, ..., t_n``.

Coordinates and bases
---------------------

* ``s_i = t_0 + ... + t_{i-1}`` for ``i = 1..n``; then ``P = Q[s_1..s_n]`` and
  ``t_i = s_{i+1} - s_i`` (with ``s_0 = 0``, ``s_{n+1} = 1``).
* One-forms ``W`` have basis ``ds_1, ..., ds_n``; a :class:`FormElt` stores
  wedge monomials ``t^nu ds_S`` keyed by ``(nu, S)``.
* Dual forms ``W*`` have basis ``w_1, ..., w_n`` with ``w_i = e_{i-1} - e_i``
  and ``<w_i, ds_j> = delta_ij``; a :class:`ThetaElt` stores ``t^nu w_S``.
* The degree-``m`` pairing is ``<w_S, ds_T> = (-1)^(m(m-1)/2) [S == T]``.

The boundary of a dual form contracts by ``dt_j`` in two places: within a
face and onto the face ``t_j = 0``.  Both are written once per monomial
``t^e w_S`` by :func:`_monomial_boundary`, the local boundary that
``philocal.delta`` extends and ``ThetaElt.contract_face`` reads facet by
facet.  Its wedge side is one table per ``(n, S)``, :func:`_boundary_wedges`,
cached for the process: the interior products, and each face's sign
derived from them by the pushforward's wedge side (:func:`_push_wedge`)
along a degeneracy.  Restricting a function to a face is the pullback
along the face map (:meth:`Poly.res_at`).
A wedge tuple ``S`` on ``[n]`` that passed the constructors' check is kept in
``_GradedTerms._wedges``, at most ``sum_{n <= top} 2^n`` keys; others are checked anew.

Every map on forms and dual forms here (``d``, pullback, pushforward and
the face contraction) is fixed by its value on one monomial ``(e, S)``: a
rule, the tensor (:func:`_tensor`) of a coefficient rule on ``t^e`` with a
wedge rule on ``S``, except the face contraction, whose rule reads
:func:`_monomial_boundary`.  ``bullet`` is the pullback rule read in the
``w`` basis: along a surjection ``ds_i`` pulls back to ``ds_{dagger(i)}``,
so ``w_j`` goes to ``w_{dagger(j)}``.  Each element method is the
linear extension (:func:`_transfer`) of its rule, read from
:func:`_kernel`, which keeps the rule's value for the process per (rule,
key, monomial); the key is the vertex map of a transfer, ``n`` for ``d``
and ``(n, j)`` for the face contraction.  That is at most ``(n+1)^(k+1)
2^n C(n+w, n)`` keys for maps ``[k] -> [n]`` and weights ``<= w``, the
largest transferred; a map with a value outside ``[0, n]`` is refused
first.  :func:`_monomial_boundary` is the same for ``delta``.  Every
tuple these kernels keep (a target, or an exponent tuple, wedge tuple,
term or entry of a boundary) is stored once in ``_SHARED``, on a miss
only: reachable from a cached kernel, it lives as long as the caches and
is bounded by the keys ever computed.  A pushforward along the identity
returns its input: nothing mutates ``terms`` after a constructor.

Basic integral (:func:`_moment`): ``int t^nu = (prod nu_i!) / (n + |nu|)!``, e.g.

>>> Poly(1, {(2,): 1}).integrate()         # int_{[1]} t_1^2
Fraction(1, 3)
>>> s_monomial(2, (1, 1)).integrate()       # int_{[2]} s_1 s_2 = 1/8
Fraction(1, 8)
"""

import functools
import math

from .ordmaps import degeneracy, face, shuffle_count
from .rationals import Q, Combination, exact


def sort_sign(idx):
    """Sort a tuple of wedge indices; return ``(sign, sorted)`` (sign 0 on repeats)."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return 0, ()
    return sign, tuple(idx)


def pairing_sign(m):
    return -1 if (m * (m - 1) // 2) % 2 else 1


@functools.lru_cache(maxsize=None)
def _compositions(total, k):
    """Length-``k`` tuples of naturals summing to ``total``, in lexicographic
    order, as one cached tuple shared by every caller."""
    if k == 0:
        return ((),) if total == 0 else ()
    return tuple((first,) + rest for first in range(total + 1)
                 for rest in _compositions(total - first, k - 1))


@functools.lru_cache(maxsize=None)
def _multinomials(total, k):
    """``(shuffle_count(comp), comp)`` for each of ``_compositions(total, k)``,
    as one cached tuple: the coefficients of ``(x_1 + ... + x_k)^total``."""
    return tuple((shuffle_count(comp), comp) for comp in _compositions(total, k))


def _reduce_raw(n, raw):
    """``raw``, over ``t_0..t_n``, as terms over ``t_1..t_n``.

    ``t_0 = 1 - t_1 - ... - t_n`` is eliminated.  Coefficients must be
    exact already; zero sums are left in the result for the caller's
    constructor to drop.
    """
    out = {}
    for exps, c in raw.items():
        if not c:
            continue
        k = exps[0]
        tail = exps[1:]
        if not k:
            out[tail] = out.get(tail, 0) + c
            continue
        # (1 - t_1 - ... - t_n)^k: the sign is (-1)^(k - comp[0])
        for mult, comp in _multinomials(k, n + 1):
            e = tuple(a + b for a, b in zip(tail, comp[1:]))
            cm = c * mult
            out[e] = out.get(e, 0) + (-cm if (k - comp[0]) % 2 else cm)
    return out


def _tensor(poly, wedges):
    """``poly (x) wedges``: ``{(e, T): a c}`` over canonical ``{e: c}`` and ``{T: a}``."""
    return {(e, T): a * c for T, a in wedges.items() for e, c in poly.items()}


def _transfer(rule, values, terms, out):
    """Add ``sum c rule(values, t)`` over the terms ``t: c``, read from :func:`_kernel`, to ``out``."""
    for t, c in terms.items():
        image = iter(_kernel(rule, values, t))
        for t2, b in zip(image, image):
            out[t2] = out.get(t2, 0) + c * b
    return out


_SHARED = {}  # every tuple a process-wide kernel keeps, stored once


def _share(x):
    """The one stored tuple equal to ``x``, which becomes it if none is."""
    return _SHARED.setdefault(x, x)


def _shared_terms(terms):
    """``((e, S, c), ...)`` of ``(e, S, c)`` triples, each tuple in it shared."""
    return _share(tuple(_share((_share(e), _share(S), c)) for e, S, c in terms))


@functools.lru_cache(maxsize=None)
def _kernel(rule, values, t):
    """The nonzero terms of ``rule(values, t)`` as one flat tuple ``(t1, c1, ...)``."""
    return tuple(x for t2, c in rule(values, t).items() if c
                 for x in (_share(t2), c))


def _vertex_map(values, n):
    """``values`` as a tuple, checked to be a vertex map from some ``[k]`` into ``[n]``."""
    values = tuple(values)
    if not values or min(values) < 0 or max(values) > n:
        raise ValueError("vertex map value out of range")
    return values


def _moment(n, a, den):
    """``den * prod(a_i!) / (n + |a|)!``, an ``int`` when ``(n + |a|)!`` divides ``den``:
    ``den`` times the integral of ``t^a`` over ``[n]``, ``a`` with or without ``t_0``."""
    return den // math.factorial(n + sum(a)) * math.prod(map(math.factorial, a))


def _integral(n, terms):
    """``sum c prod(a_i!) / (n + |a|)!`` over ``{a: c}``, ``a`` with or without ``t_0``."""
    den = math.factorial(n + max(map(sum, terms), default=0))
    return Q(sum(c * _moment(n, e, den) for e, c in terms.items()), den)


def pair_integral(k, terms, omega, J):
    """``int <alpha, omega restricted to J>`` for ``alpha`` with ``terms`` over ``[k]``.

    ``J`` lists the face's vertices inside the ``[n]`` of ``omega``.  Under
    it ``ds_i`` goes to ``ds_s`` for ``J[s-1] < i <= J[s]``, or to 0, and
    ``t_j`` to ``t_s`` for ``J[s] = j``, or to 0; ``t_0`` is kept, so nothing
    is eliminated.  Matching wedges pair to ``pairing_sign(m)``.
    """
    down = {i: s for s in range(1, k + 1) for i in range(J[s - 1] + 1, J[s] + 1)}
    by_wedge = {}
    for (e, T), c in omega.terms.items():
        S = tuple(down.get(i, 0) for i in T)
        a = [e[j - 1] if j else 0 for j in J]
        if 0 not in S and len(set(S)) == len(S) and sum(a) == sum(e):
            by_wedge.setdefault(S, []).append((a, c))
    raw = {}
    for (e, S), c in terms.items():
        for a, c2 in by_wedge.get(S, ()):
            key = (a[0],) + tuple(x + y for x, y in zip(a[1:], e))
            raw[key] = raw.get(key, 0) + pairing_sign(len(S)) * c * c2
    return _integral(k, raw)


def _deriv(j, terms):
    """``d/dt_j`` of canonical ``{exps: c}`` terms, ``j >= 1``."""
    out = {}
    for e, c in terms.items():
        p = e[j - 1]
        if p:
            out[e[: j - 1] + (p - 1,) + e[j:]] = c * p
    return out


def _pullback(values, e):
    """The pullback of ``t^e`` along ``i -> values[i]``, canonical.

    ``t_j`` becomes the sum of ``t_i`` over the fibre of ``j``, and a
    monomial on a coordinate with an empty fibre dies; the result is over
    ``[len(values) - 1]``.
    """
    k = len(values) - 1
    fibres = {}
    for i, v in enumerate(values):
        fibres.setdefault(v, []).append(i)
    acc = {(0,) * (k + 1): 1}
    for j, pw in enumerate(e, 1):
        if not pw:
            continue
        fib = fibres.get(j)
        if not fib:
            return {}
        nxt = {}
        for mult, comp in _multinomials(pw, len(fib)):
            for e1, c1 in acc.items():
                ee = list(e1)
                for pos, a in zip(fib, comp):
                    ee[pos] += a
                ee = tuple(ee)
                nxt[ee] = nxt.get(ee, 0) + c1 * mult
        acc = nxt
    return _reduce_raw(k, acc)


def _surjection(values, n, m):
    """``values`` as a tuple, checked to be a surjection ``[n] -> [m]``."""
    values = tuple(values)
    if len(values) != n + 1:
        raise ValueError("vertex map must list an image for every vertex")
    if set(values) != set(range(m + 1)):
        raise ValueError("pushforward needs a surjection onto [%d]" % m)
    return values


def _push(values, e):
    """The fibrewise integral of ``t^e`` along the surjection ``values`` onto ``[m]``, canonical.

    ``t^nu = nu! t^[nu]`` goes to ``nu! t^[mu] = (nu! / mu!) t^mu`` (see
    :meth:`Poly.pushforward`).
    """
    m = max(values)
    mu = [-1] * (m + 1)
    mu[values[0]] += 1
    num = 1
    for v, x in zip(values[1:], e):
        mu[v] += x + 1
        num *= math.factorial(x)
    den = 1
    for x in mu:
        den *= math.factorial(x)
    # a Fraction only when it must be
    return _reduce_raw(m, {tuple(mu): Q(num, den) if den > 1 else num})


def _pullback_ds(values, i, k):
    """The pullback of ``ds_i`` along ``values``, a vertex map from ``[k]``.

    It is ``sum_{a : values[a] < i} dt_a`` with ``dt_a = ds_{a+1} - ds_a``,
    returned as ``{s: coeff}`` over ``ds_1..ds_k``.
    """
    row = {}
    for s in range(1, k + 1):
        c = (values[s - 1] < i) - (values[s] < i)
        if c:
            row[s] = c
    return row


def _wedge_rows(rows):
    """The wedge, in order, of one-forms given as ``{index: coeff}``: ``{T: coeff}``."""
    acc = {(): 1}
    for row in rows:
        nxt = {}
        for T, c in acc.items():
            for i, a in row.items():
                sgn, T2 = sort_sign(T + (i,))
                if sgn:
                    nxt[T2] = nxt.get(T2, 0) + sgn * c * a
        acc = nxt
    return {T: c for T, c in acc.items() if c}


def _push_wedge(values, S):
    """``w_S`` pushed along the surjection ``values``, as ``{T: coeff}``.

    ``w_s`` goes to ``sum_t R[t][s] w_t``, where row ``t`` of ``R`` is the
    pullback of ``ds_t``: the linear dual of the pullback on ``ds``.
    """
    rows = [_pullback_ds(values, t, len(values) - 1) for t in range(1, max(values) + 1)]
    return _wedge_rows([{t: row[s] for t, row in enumerate(rows, 1) if s in row} for s in S])


def _theta_push(values, t):
    e, S = t
    return _tensor(_push(values, e), _push_wedge(values, S))


def _form_pullback(values, t):
    e, S = t
    k = len(values) - 1
    return _tensor(_pullback(values, e), _wedge_rows([_pullback_ds(values, i, k) for i in S]))


def _dt_row(n, j):
    """``dt_j = ds_{j+1} - ds_j`` on ``[n]`` as ``{s: coeff}``, out-of-range ``ds`` dropped."""
    return {s: a for s, a in ((j + 1, 1), (j, -1)) if 1 <= s <= n}


def _d(n, t):
    """``d(t^e ds_S) = sum_j d(t^e)/dt_j dt_j ^ ds_S`` on ``[n]``, ``t = (e, S)``."""
    e, S = t
    out = {}
    for j in range(1, n + 1):
        if e[j - 1]:  # the terms of each j have their own exponents
            wedge = _wedge_rows([_dt_row(n, j)] + [{s: 1} for s in S])
            out.update(_tensor(_deriv(j, {e: 1}), wedge))
    return out


@functools.lru_cache(maxsize=None)
def _boundary_wedges(n, S):
    """The wedge side of the boundary of ``w_S`` on ``[n]``: ``(prime, facets)``.

    ``prime`` pairs each ``j`` in ``1..n`` with the nonzero interior product
    ``i(dt_j) w_S`` as ``((S', a), ...)``: ``i(ds_s)`` removes ``w_s`` from
    its place ``r`` (from 0) in ``w_S`` with sign ``(-1)^(r+1)``.
    ``facets`` lists ``(p, a, S')`` for each face ``t_p = 0`` that
    ``i(dt_p) w_S`` does not kill, written ``a w_{S'}`` in the face's ``w``
    basis: the contraction is tangent to the face, so the dual transfer
    along the degeneracy ``s_k``, ``k = min(p, n-1)``, with ``s_k o delta_p
    = id``, writes it there; for inner ``p`` it sends ``w_{p+1}`` to 0.
    Every wedge tuple in it is shared.  Kept per ``(n, S)``: at most
    ``sum_{n <= top} 2^n`` keys for the largest simplex dimension met.
    """
    prime, facets = [], []
    for j in range(n + 1):
        terms = []
        for s, a in _dt_row(n, j).items():
            if s in S:
                r = S.index(s)
                terms.append((_share(S[:r] + S[r + 1:]), a if r % 2 else -a))
        if not terms:  # always so on [0], which has no degeneracy
            continue
        if j:
            prime.append((j, tuple(terms)))
        sigma = degeneracy(n - 1, min(j, n - 1)).values
        # tangent to the face: one term survives the transfer, or none
        pushed = next(((a * c, T) for S2, a in terms
                       for T, c in _push_wedge(sigma, S2).items()), None)
        if pushed:
            facets.append((j, pushed[0], _share(pushed[1])))
    return tuple(prime), tuple(facets)


@functools.lru_cache(maxsize=None)
def _monomial_boundary(m, e, S):
    """``delta`` of ``t^e w_S`` on the standard ``m``-simplex, in closed form.

    The one local boundary, as ``(p, ((e2, S2, c), ...))`` pairs: first the
    ``delta'`` component ``-sum_j e_j t^(e - 1_j) i(dt_j) w_S`` on the whole
    simplex, with ``p = None``, then ``-contract_face(p)`` on each facet
    ``d_p`` that the contraction does not kill; ``ThetaElt.contract_face``
    reads its facet entries.  The wedge side is read off
    :func:`_boundary_wedges`.  The coefficient side is written
    from ``e``: ``d/dt_j`` takes ``e_j`` down by one with the factor
    ``e_j``, restriction to facet ``p >= 1`` drops coordinate ``p`` where
    ``e_p = 0`` and kills the term otherwise, and facet 0 re-eliminates
    by :func:`_reduce_raw`.  No element is built, every coefficient
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


def _face(key, t):
    """``t^e w_S`` restricted to ``t_j = 0`` and contracted with ``dt_j``, ``key = (n, j)``:
    minus the facet-``j`` entry of :func:`_monomial_boundary`."""
    (n, j), (e, S) = key, t
    return {(e2, S2): -c for e2, S2, c in dict(_monomial_boundary(n, e, S)).get(j, ())}


class Poly(Combination):
    """Polynomial on the ``[n]`` simplex, canonical form without ``t_0``.

    ``terms`` maps exponent tuples over ``(t_1, ..., t_n)`` to nonzero
    rationals.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != n:
                    raise ValueError("exponent arity mismatch")
                c = exact(c)
                if c:
                    self.terms[tuple(exps)] = c

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def const(cls, n, c):
        return cls(n, {(0,) * n: c})

    @classmethod
    def from_raw(cls, n, raw):
        """Reduce a polynomial in all of ``t_0..t_n`` by ``t_0 = 1 - sum t_i``."""
        checked = {}
        for exps, c in raw.items():
            if len(exps) != n + 1:
                raise ValueError("raw exponent arity mismatch")
            checked[tuple(exps)] = exact(c)
        return cls(n, _reduce_raw(n, checked))

    def raw_terms(self):
        """The canonical representative viewed with a ``t_0`` slot (exponent 0)."""
        return {(0,) + e: c for e, c in self.terms.items()}

    def _shape(self):
        return self.n, None

    def _like(self, terms):
        return Poly(self.n, terms)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Poly(self.n, out)

    def deriv(self, i):
        """d/dt_i of the canonical representative, ``1 <= i <= n``."""
        return Poly(self.n, _deriv(i, self.terms))

    def grad(self, xs):
        """Directional derivative ``sum_i x_i d/dt_i``; needs ``sum(xs) == 0``.

        ``xs`` has one entry per vertex of ``[n]``; the constraint makes the
        operator well defined on the quotient ring.
        """
        if len(xs) != self.n + 1:
            raise ValueError("need one coefficient per vertex")
        if sum(xs) != 0:
            raise ValueError("direction must have coefficient sum zero")
        out = Poly.zero(self.n)
        for i in range(1, self.n + 1):
            if xs[i]:
                out = out + self.deriv(i).scale(xs[i])
        return out

    def res_at(self, k):
        """Restrict to the face ``t_k = 0``, relabelled to the standard ``[n-1]``."""
        if not 0 <= k <= self.n:
            raise ValueError("face index out of range")
        if self.n == 0:
            raise ValueError("cannot restrict a point")
        return self.pullback(face(self.n, k).values)

    def pullback(self, values):
        """Pull back along the vertex map ``i -> values[i]`` into ``[len(values)-1]``.

        Works for arbitrary (not necessarily monotone) maps: ``t_j`` pulls
        back to the sum of ``t_i`` over the fibre of ``j``.  An empty map or
        a value outside ``[0, n]`` is refused.
        """
        values = _vertex_map(values, self.n)
        return Poly(len(values) - 1, _transfer(_pullback, values, self.terms, {}))

    def pushforward(self, values, m):
        """Fibrewise integration along a surjective vertex map onto ``[m]``.

        On divided powers ``t^[nu] = t^nu / nu!`` the map is ``t^[nu] ->
        t^[mu]`` with ``mu_j = sum_{values[i]=j} (nu_i + 1) - 1``; it is
        additive, not multiplicative.
        """
        return Poly(m, _transfer(_push, _surjection(values, self.n, m), self.terms, {}))

    def integrate(self):
        """Exact integral ``int t^nu = prod(nu!) / (n+|nu|)!``, summed over ``(n+max|nu|)!``."""
        return _integral(self.n, self.terms)

    def __repr__(self):
        if not self.terms:
            return "Poly(%d, 0)" % self.n
        bits = [_term_repr(self.terms[e], e) for e in sorted(self.terms)]
        return "Poly(%d, %s)" % (self.n, " + ".join(bits))


def _term_repr(c, e, wedge=""):
    """One term as the reprs print it: ``c*t1^2*t3`` and then ``wedge``."""
    mono = "*".join("t%d^%d" % (i + 1, p) if p > 1 else "t%d" % (i + 1)
                    for i, p in enumerate(e) if p)
    return "*".join(x for x in (str(c), mono, wedge) if x)


def s_monomial(n, kappa):
    """``prod s_i^kappa_i`` as a canonical :class:`Poly` (``kappa`` over ``s_1..s_n``)."""
    out = Poly.const(n, 1)
    for i, pw in enumerate(kappa, start=1):
        # s_i = t_0 + ... + t_{i-1}
        s_i = Poly.from_raw(n, {tuple(int(j == a) for j in range(n + 1)): 1 for a in range(i)})
        for _ in range(pw):
            out = out * s_i
    return out


class _GradedTerms(Combination):
    """Shared storage for wedge-coefficient elements (internal)."""

    __slots__ = ("n", "terms")
    _wedges = set()  # the (n, S) whose wedge tuple S passed the check

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for (exps, S), c in terms.items():
                c = exact(c)
                if not c:
                    continue
                if len(exps) != n:
                    raise ValueError("exponent arity mismatch")
                if (n, S) not in self._wedges:
                    if any(not 1 <= i <= n for i in S) or list(S) != sorted(set(S)):
                        raise ValueError("bad wedge index tuple %r" % (S,))
                    self._wedges.add((n, S))
                self.terms[(tuple(exps), tuple(S))] = c

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def monomial(cls, n, exps, S, c=1):
        return cls(n, {(tuple(exps), tuple(S)): c})

    def _shape(self):
        return self.n, None

    def _like(self, terms):
        return type(self)(self.n, terms)

    def degree(self):
        degs = {len(S) for (_, S) in self.terms}
        if len(degs) > 1:
            raise ValueError("mixed degrees")
        return degs.pop() if degs else 0

    def wedge(self, other):
        out = {}
        for (e1, S1), c1 in self.terms.items():
            for (e2, S2), c2 in other.terms.items():
                sgn, S = sort_sign(S1 + S2)
                if not sgn:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                out[(e, S)] = out.get((e, S), 0) + sgn * c1 * c2
        return type(self)(self.n, out)

    def __repr__(self):
        letter = "ds" if isinstance(self, FormElt) else "w"
        if not self.terms:
            return "%s(%d, 0)" % (type(self).__name__, self.n)
        bits = [_term_repr(self.terms[e, S], e,
                           "^".join("%s%d" % (letter, i) for i in S))
                for (e, S) in sorted(self.terms)]
        return "%s(%d, %s)" % (type(self).__name__, self.n, " + ".join(bits))


class FormElt(_GradedTerms):
    """Differential form on the ``[n]`` simplex in the ``ds`` wedge basis."""

    def de_rham_d(self):
        """Exterior derivative; ``d(t^nu ds_S) = sum_k d(t^nu)/dt_k dt_k ^ ds_S``."""
        return FormElt(self.n, _transfer(_d, self.n, self.terms, {}))

    def pullback(self, values):
        """Pull back along the vertex map ``i -> values[i]``; any map into ``[n]``.

        ``ds_i`` pulls back to ``sum_{a : values[a] < i} dt_a``, which for
        monotone maps telescopes to a single ``ds``.  An empty map or a value
        outside ``[0, n]`` is refused.
        """
        values = _vertex_map(values, self.n)
        return FormElt(len(values) - 1, _transfer(_form_pullback, values, self.terms, {}))


class ThetaElt(_GradedTerms):
    """Polynomial-coefficient dual form: element of ``P (x) Lambda(W*)``.

    Stored in the ``w`` basis, ``w_i = e_{i-1} - e_i``, with the duality
    ``<w_i, ds_j> = delta_ij``.
    """

    @classmethod
    def w(cls, n, i):
        return cls(n, {((0,) * n, (i,)): 1})

    def pair(self, omega):
        """Pairing with a form of the same degree; lands in the function ring.

        ``<w_S, ds_T> = (-1)^(m(m-1)/2) [S == T]``; mismatched degrees pair to 0.
        """
        out = {}
        by_wedge = {}
        for (e, T), c in omega.terms.items():
            by_wedge.setdefault(T, {})[e] = c
        for (e, S), c in self.terms.items():
            match = by_wedge.get(S)
            if not match:
                continue
            c *= pairing_sign(len(S))
            for e2, c2 in match.items():
                ee = tuple(a + b for a, b in zip(e, e2))
                out[ee] = out.get(ee, 0) + c * c2
        return Poly(self.n, out)

    def contract_face(self, j):
        """``res`` at ``t_j = 0`` on coefficients, ``dt_j`` contraction on wedges.

        This is the building block of the second differential: the result is
        a :class:`ThetaElt` over the standard ``[n-1]``.
        """
        if not 0 <= j <= self.n:
            raise ValueError("face index out of range")
        if self.n == 0:
            raise ValueError("cannot restrict a point")
        return ThetaElt(self.n - 1, _transfer(_face, (self.n, j), self.terms, {}))

    def bullet(self, sigma):
        """Transfer along a monotone surjection ``sigma`` (an :class:`OrdMap`).

        Sends ``w_j`` to ``w_{dagger(j)}``, ``dagger`` the minimal section:
        the pullback rule read in the ``w`` basis, since along a surjection
        ``ds_i`` pulls back to ``ds_{dagger(i)}``.  This is the degeneracy
        transfer making ``<bullet(a), pullback(omega)> = pullback(<a, omega>)``.
        """
        if sigma.cod != self.n:
            raise ValueError("codomain mismatch")
        if not sigma.is_surjective():
            raise ValueError("bullet needs a surjection")
        return ThetaElt(sigma.dom, _transfer(_form_pullback, sigma.values, self.terms, {}))

    def pushforward(self, values, m):
        """Pushforward along a surjective vertex map (any finite surjection).

        Tensor of fibrewise integration on coefficients with the linear dual
        of the pullback on constant wedges: ``w_s`` goes to ``sum_t R[t][s]
        w_t``, where row ``t`` of ``R`` is the pullback of ``ds_t``.  Along
        the identity this returns ``self``, unchecked.
        """
        if m == self.n and tuple(values) == tuple(range(m + 1)):
            return self
        return ThetaElt(m, _transfer(_theta_push, _surjection(values, self.n, m),
                                     self.terms, {}))


def theta_top(n):
    """The fundamental dual form: ``(-1)^n w_1 ^ ... ^ w_n``.

    Equals the wedge of successive vertex differences ``(e_i - e_{i-1})``.
    """
    return ThetaElt.monomial(n, (0,) * n, tuple(range(1, n + 1)), (-1) ** n)
