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

Basic integral: ``int t^nu = (prod nu_i!) / (n + |nu|)!``, e.g.

>>> Poly.monomial(1, (2,)).integrate()      # int_{[1]} t_1^2
Fraction(1, 3)
>>> s_monomial(2, (1, 1)).integrate()       # int_{[2]} s_1 s_2 = 1/8
Fraction(1, 8)
"""

import math
from itertools import combinations

from .rationals import Q, QZERO, exact


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


def _compositions(total, k):
    """All length-``k`` tuples of nonnegative ints summing to ``total``."""
    if k == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def _multinomial(total, parts):
    c = math.factorial(total)
    for p in parts:
        c //= math.factorial(p)
    return c


class Poly:
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
    def monomial(cls, n, exps, c=1):
        return cls(n, {tuple(exps): c})

    @classmethod
    def t(cls, n, i):
        """The coordinate ``t_i`` as a canonical Poly (``t_0`` is eliminated)."""
        if not 0 <= i <= n:
            raise ValueError("coordinate index out of range")
        if i > 0:
            e = [0] * n
            e[i - 1] = 1
            return cls(n, {tuple(e): 1})
        terms = {(0,) * n: 1}
        for j in range(n):
            e = [0] * n
            e[j] = 1
            terms[tuple(e)] = -1
        return cls(n, terms)

    @classmethod
    def from_raw(cls, n, raw):
        """Reduce a polynomial in all of ``t_0..t_n`` by ``t_0 = 1 - sum t_i``."""
        out = {}
        for exps, c in raw.items():
            if len(exps) != n + 1:
                raise ValueError("raw exponent arity mismatch")
            c = exact(c)
            if not c:
                continue
            k = exps[0]
            tail = tuple(exps[1:])
            if k == 0:
                out[tail] = out.get(tail, 0) + c
                continue
            # expand (1 - t_1 - ... - t_n)^k
            for comp in _compositions(k, n + 1):
                coeff = c * _multinomial(k, comp)
                if sum(comp[1:]) % 2:
                    coeff = -coeff
                e = tuple(a + b for a, b in zip(tail, comp[1:]))
                out[e] = out.get(e, 0) + coeff
        return cls(n, out)

    def raw_terms(self):
        """The canonical representative viewed with a ``t_0`` slot (exponent 0)."""
        return {(0,) + e: c for e, c in self.terms.items()}

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return Poly(self.n, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return Poly(self.n, out)

    def scale(self, c):
        c = exact(c)
        return Poly(self.n, {e: cc * c for e, cc in self.terms.items()})

    def deriv(self, i):
        """d/dt_i of the canonical representative, ``1 <= i <= n``."""
        out = {}
        for e, c in self.terms.items():
            k = e[i - 1]
            if k:
                e2 = e[: i - 1] + (k - 1,) + e[i:]
                out[e2] = out.get(e2, 0) + c * k
        return Poly(self.n, out)

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
        if k > 0:
            out = {}
            for e, c in self.terms.items():
                if e[k - 1] == 0:
                    out[e[: k - 1] + e[k:]] = c
            return Poly(self.n - 1, out)
        # dropping vertex 0 shifts every variable down, then re-eliminates
        raw = {e: c for e, c in self.terms.items()}
        return Poly.from_raw(self.n - 1, raw)

    def pullback(self, values):
        """Pull back along the vertex map ``i -> values[i]`` into ``[len(values)-1]``.

        Works for arbitrary (not necessarily monotone) maps: ``t_j`` pulls
        back to the sum of ``t_i`` over the fibre of ``j``.
        """
        k = len(values) - 1
        fibres = {}
        for i, v in enumerate(values):
            fibres.setdefault(v, []).append(i)
        out_raw = {}
        for e, c in self.raw_terms().items():
            partials = [{(0,) * (k + 1): c}]
            dead = False
            for j, pw in enumerate(e):
                if pw == 0:
                    continue
                fib = fibres.get(j)
                if not fib:
                    dead = True
                    break
                factor = {}
                for comp in _compositions(pw, len(fib)):
                    mono = [0] * (k + 1)
                    for pos, a in zip(fib, comp):
                        mono[pos] = a
                    factor[tuple(mono)] = _multinomial(pw, comp)
                partials.append(factor)
            if dead:
                continue
            acc = partials[0]
            for factor in partials[1:]:
                nxt = {}
                for e1, c1 in acc.items():
                    for e2, c2 in factor.items():
                        ee = tuple(a + b for a, b in zip(e1, e2))
                        nxt[ee] = nxt.get(ee, 0) + c1 * c2
                acc = nxt
            for ee, cc in acc.items():
                out_raw[ee] = out_raw.get(ee, 0) + cc
        return Poly.from_raw(k, out_raw)

    def pushforward(self, values, m):
        """Fibrewise integration along a surjective vertex map onto ``[m]``.

        On divided powers ``t^[nu] = t^nu / nu!`` the map is ``t^[nu] ->
        t^[mu]`` with ``mu_j = sum_{values[i]=j} (nu_i + 1) - 1``; it is
        additive, not multiplicative.
        """
        if set(values) != set(range(m + 1)):
            raise ValueError("pushforward needs a surjection onto [%d]" % m)
        out_raw = {}
        for e, c in self.raw_terms().items():
            mu = [0] * (m + 1)
            for i, v in enumerate(values):
                mu[v] += e[i] + 1
            mu = tuple(x - 1 for x in mu)
            # c * prod(e!) / prod(mu!), a Fraction only when it must be
            num = c
            for x in e:
                num *= math.factorial(x)
            den = 1
            for x in mu:
                den *= math.factorial(x)
            if den > 1:
                num = Q(num, den)
            out_raw[mu] = out_raw.get(mu, 0) + num
        return Poly.from_raw(m, out_raw)

    def integrate(self):
        """Exact integral over the simplex: ``int t^nu = prod(nu!) / (n+|nu|)!``."""
        total = QZERO
        for e, c in self.terms.items():
            num = 1
            for x in e:
                num *= math.factorial(x)
            total += c * Q(num, math.factorial(self.n + sum(e)))
        return total

    def __repr__(self):
        if not self.terms:
            return "Poly(%d, 0)" % self.n
        bits = []
        for e in sorted(self.terms):
            mono = "*".join(
                "t%d^%d" % (i + 1, p) if p > 1 else "t%d" % (i + 1)
                for i, p in enumerate(e)
                if p
            )
            bits.append("%s%s" % (self.terms[e], "*" + mono if mono else ""))
        return "Poly(%d, %s)" % (self.n, " + ".join(bits))


def s_monomial(n, kappa):
    """``prod s_i^kappa_i`` as a canonical :class:`Poly` (``kappa`` over ``s_1..s_n``)."""
    raw = {(0,) * (n + 1): 1}
    for i, pw in enumerate(kappa, start=1):
        # s_i = t_0 + ... + t_{i-1}
        for _ in range(pw):
            nxt = {}
            for e, c in raw.items():
                for j in range(i):
                    ee = list(e)
                    ee[j] += 1
                    ee = tuple(ee)
                    nxt[ee] = nxt.get(ee, 0) + c
            raw = nxt
    return Poly.from_raw(n, raw)


class _GradedTerms:
    """Shared storage/addition for wedge-coefficient elements (internal)."""

    __slots__ = ("n", "terms")

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
                if any(not 1 <= i <= n for i in S) or list(S) != sorted(set(S)):
                    raise ValueError("bad wedge index tuple %r" % (S,))
                self.terms[(tuple(exps), tuple(S))] = c

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k, 0) + c
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return type(self)(self.n, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = exact(c)
        return type(self)(self.n, {k: cc * c for k, cc in self.terms.items()})

    def degree(self):
        degs = {len(S) for (_, S) in self.terms}
        if len(degs) > 1:
            raise ValueError("mixed degrees")
        return degs.pop() if degs else 0

    def weight(self):
        """Max over terms of polynomial degree plus exterior degree."""
        return max((sum(e) + len(S) for (e, S) in self.terms), default=0)

    def wedge(self, other):
        out = {}
        for (e1, S1), c1 in self.terms.items():
            for (e2, S2), c2 in other.terms.items():
                sgn, S = sort_sign(S1 + S2)
                if not sgn:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get((e, S), 0) + sgn * c1 * c2
                if v:
                    out[(e, S)] = v
                else:
                    out.pop((e, S), None)
        return type(self)(self.n, out)

    def wedges(self):
        return sorted({S for (_, S) in self.terms})

    def mul_poly(self, p):
        out = {}
        for (e, S), c in self.terms.items():
            for e2, c2 in p.terms.items():
                k = (tuple(a + b for a, b in zip(e, e2)), S)
                v = out.get(k, 0) + c * c2
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
        return type(self)(self.n, out)

    def __repr__(self):
        letter = "ds" if isinstance(self, FormElt) else "w"
        if not self.terms:
            return "%s(%d, 0)" % (type(self).__name__, self.n)
        bits = []
        for (e, S) in sorted(self.terms):
            mono = "*".join(
                "t%d^%d" % (i + 1, p) if p > 1 else "t%d" % (i + 1)
                for i, p in enumerate(e)
                if p
            )
            wed = "^".join("%s%d" % (letter, i) for i in S)
            piece = str(self.terms[(e, S)])
            if mono:
                piece += "*" + mono
            if wed:
                piece += "*" + wed
            bits.append(piece)
        return "%s(%d, %s)" % (type(self).__name__, self.n, " + ".join(bits))


class FormElt(_GradedTerms):
    """Differential form on the ``[n]`` simplex in the ``ds`` wedge basis."""

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def from_poly(cls, p):
        return cls(p.n, {(e, ()): c for e, c in p.terms.items()})

    @classmethod
    def ds(cls, n, i):
        return cls(n, {((0,) * n, (i,)): 1})

    @classmethod
    def dt(cls, n, j):
        """``dt_j = ds_{j+1} - ds_j`` with out-of-range ``ds`` dropped."""
        terms = {}
        if j + 1 <= n:
            terms[((0,) * n, (j + 1,))] = 1
        if 1 <= j:
            terms[((0,) * n, (j,))] = terms.get(((0,) * n, (j,)), 0) - 1
        return cls(n, terms)

    @classmethod
    def monomial(cls, n, exps, S, c=1):
        return cls(n, {(tuple(exps), tuple(S)): c})

    def de_rham_d(self):
        """Exterior derivative; ``d(t^nu ds_S) = sum_k d(t^nu)/dt_k dt_k ^ ds_S``."""
        out = FormElt.zero(self.n)
        for (e, S), c in self.terms.items():
            p = Poly(self.n, {e: c})
            for k in range(1, self.n + 1):
                dpk = p.deriv(k)
                if dpk.is_zero():
                    continue
                front = FormElt.dt(self.n, k).wedge(
                    FormElt(self.n, {((0,) * self.n, S): 1})
                )
                out = out + front.mul_poly(dpk)
        return out

    def pullback(self, values):
        """Pull back along the vertex map ``i -> values[i]``; any finite map.

        ``ds_i`` pulls back to ``sum_{a : values[a] < i} dt_a``, which for
        monotone maps telescopes to a single ``ds``.
        """
        k = len(values) - 1
        out = FormElt.zero(k)
        for (e, S), c in self.terms.items():
            pb_poly = Poly(self.n, {e: c}).pullback(values)
            if pb_poly.is_zero():
                continue
            factor = FormElt.from_poly(pb_poly)
            dead = False
            for i in S:
                expr = FormElt.zero(k)
                for a in range(k + 1):
                    if values[a] < i:
                        expr = expr + FormElt.dt(k, a)
                if expr.is_zero():
                    dead = True
                    break
                factor = factor.wedge(expr)
                if factor.is_zero():
                    dead = True
                    break
            if not dead:
                out = out + factor
        return out

    def res_to(self, J):
        """Restrict to the sub-simplex on vertex subset ``J`` (standard coords)."""
        return self.pullback(tuple(sorted(J)))


class ThetaElt(_GradedTerms):
    """Polynomial-coefficient dual form: element of ``P (x) Lambda(W*)``.

    Stored in the ``w`` basis, ``w_i = e_{i-1} - e_i``, with the duality
    ``<w_i, ds_j> = delta_ij``.
    """

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def one(cls, n):
        return cls(n, {((0,) * n, ()): 1})

    @classmethod
    def w(cls, n, i):
        return cls(n, {((0,) * n, (i,)): 1})

    @classmethod
    def monomial(cls, n, exps, S, c=1):
        return cls(n, {(tuple(exps), tuple(S)): c})

    def pair(self, omega):
        """Pairing with a form of the same degree; lands in the function ring.

        ``<w_S, ds_T> = (-1)^(m(m-1)/2) [S == T]``; mismatched degrees pair to 0.
        """
        out = Poly.zero(self.n)
        by_wedge = {}
        for (e, T), c in omega.terms.items():
            by_wedge.setdefault(T, {})[e] = c
        for (e, S), c in self.terms.items():
            match = by_wedge.get(S)
            if not match:
                continue
            sgn = pairing_sign(len(S))
            p = Poly(self.n, {e: c * sgn})
            out = out + p * Poly(self.n, match)
        return out

    def interior_ds(self, i):
        """Contraction by ``ds_i`` within the ambient simplex (degree -1)."""
        out = {}
        for (e, S), c in self.terms.items():
            if i not in S:
                continue
            r = S.index(i) + 1
            S2 = tuple(x for x in S if x != i)
            sgn = -1 if r % 2 else 1  # (-1)^r
            v = out.get((e, S2), 0) + sgn * c
            if v:
                out[(e, S2)] = v
            else:
                out.pop((e, S2), None)
        return ThetaElt(self.n, out)

    def interior(self, u):
        """Contraction by a degree-1 form ``u`` (P-bilinear, ambient)."""
        if u.degree() != 1:
            raise ValueError("interior product needs a degree-1 form")
        out = ThetaElt.zero(self.n)
        for (e, (i,)), c in u.terms.items():
            piece = self.interior_ds(i).mul_poly(Poly(self.n, {e: c}))
            out = out + piece
        return out

    @staticmethod
    def contract_wedge_dt(n, S, j):
        """``dt_j`` contraction of ``w_S``, relabelled to the face ``[n] - {j}``.

        Returns ``(sign, S')`` with ``S'`` over ``{1..n-1}``, or ``(0, ())``.
        The result lands in the span of the face's ``w`` basis (for inner
        ``j`` that basis replaces ``w_j, w_{j+1}`` by ``w_j + w_{j+1}``).
        """
        S = tuple(S)
        if j == 0:
            if 1 not in S:
                return 0, ()
            r = S.index(1) + 1
            S2 = tuple(x - 1 for x in S if x != 1)
            return (-1 if r % 2 else 1), S2
        if j == n:
            if n not in S:
                return 0, ()
            r = S.index(n) + 1
            S2 = tuple(x for x in S if x != n)
            return (1 if r % 2 else -1), S2  # extra -1 from dt_n = -ds_n
        relabel = lambda x: x if x <= j else x - 1
        if j in S and j + 1 in S:
            r = S.index(j) + 1
            S2 = tuple(relabel(x) for x in S if x != j + 1)
            return (1 if r % 2 else -1), S2  # (-1)^(r+1)
        if j in S:
            r = S.index(j) + 1
            S2 = tuple(relabel(x) for x in S if x != j)
            return (1 if r % 2 else -1), S2  # (-1)^(r+1)
        if j + 1 in S:
            r = S.index(j + 1) + 1
            S2 = tuple(relabel(x) for x in S if x != j + 1)
            return (-1 if r % 2 else 1), S2  # (-1)^r
        return 0, ()

    def contract_face(self, j):
        """``res`` at ``t_j = 0`` on coefficients, ``dt_j`` contraction on wedges.

        This is the building block of the second differential: the result is
        a :class:`ThetaElt` over the standard ``[n-1]``.
        """
        n = self.n
        out = ThetaElt.zero(n - 1)
        for (e, S), c in self.terms.items():
            sgn, S2 = self.contract_wedge_dt(n, S, j)
            if not sgn:
                continue
            p = Poly(n, {e: c * sgn}).res_at(j)
            if p.is_zero():
                continue
            out = out + ThetaElt(n - 1, {(ee, S2): cc for ee, cc in p.terms.items()})
        return out

    def bullet(self, sigma):
        """Transfer along a monotone surjection ``sigma`` (an :class:`OrdMap`).

        Pulls back coefficients and sends ``w_j`` to ``w_{dagger(j)}`` where
        ``dagger`` is the minimal section; this is the degeneracy transfer
        making ``<bullet(a), pullback(omega)> = pullback(<a, omega>)``.
        """
        if sigma.cod != self.n:
            raise ValueError("codomain mismatch")
        if not sigma.is_surjective():
            raise ValueError("bullet needs a surjection")
        dag = sigma.dagger()
        k = sigma.dom
        out = ThetaElt.zero(k)
        for (e, S), c in self.terms.items():
            S2 = tuple(dag(j) for j in S)  # dagger is monotone: stays sorted
            pb = Poly(self.n, {e: c}).pullback(sigma.values)
            out = out + ThetaElt(k, {(ee, S2): cc for ee, cc in pb.terms.items()})
        return out

    def pushforward(self, values, m):
        """Pushforward along a surjective vertex map (any finite surjection).

        Tensor of fibrewise integration on coefficients with the linear dual
        of the pullback on constant wedges.
        """
        values = tuple(values)
        if set(values) != set(range(m + 1)):
            raise ValueError("pushforward needs a surjection onto [%d]" % m)
        monotone = all(a <= b for a, b in zip(values, values[1:]))
        n = len(values) - 1
        # rows of the pullback matrix: target ds_i as {domain index: int}
        pb_rows = None
        if not monotone:
            pb_rows = []
            for i in range(1, m + 2):
                row = {}
                for a in range(n + 1):
                    if values[a] < i:
                        if a + 1 <= n:
                            row[a + 1] = row.get(a + 1, 0) + 1
                        if a >= 1:
                            row[a] = row.get(a, 0) - 1
                pb_rows.append({k: v for k, v in row.items() if v})
        out = ThetaElt.zero(m)
        first_of = {}
        for idx, v in enumerate(values):
            if v not in first_of:
                first_of[v] = idx
        for (e, S), c in self.terms.items():
            pushed = Poly(self.n, {e: c}).pushforward(values, m)
            if pushed.is_zero():
                continue
            wedge_targets = []
            if monotone:
                img = tuple(values[s] for s in S)
                if len(set(img)) == len(img) and all(
                    first_of[values[s]] == s for s in S
                ):
                    wedge_targets.append((1, img))
            else:
                d = len(S)
                for T in combinations(range(1, m + 1), d):
                    mat = [
                        [pb_rows[t - 1].get(s, 0) for s in S] for t in T
                    ]
                    det = _int_det(mat)
                    if det:
                        wedge_targets.append((det, T))
            for sgn, T in wedge_targets:
                out = out + ThetaElt(
                    m, {(ee, T): cc * sgn for ee, cc in pushed.terms.items()}
                )
        return out


def _int_det(mat):
    """Exact determinant of a small integer matrix by cofactor expansion."""
    k = len(mat)
    if k == 0:
        return 1
    if k == 1:
        return mat[0][0]
    total = 0
    for j in range(k):
        if not mat[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += (-1 if j % 2 else 1) * mat[0][j] * _int_det(minor)
    return total


def theta_top(n):
    """The fundamental dual form: ``(-1)^n w_1 ^ ... ^ w_n``.

    Equals the wedge of successive vertex differences ``(e_i - e_{i-1})``.
    """
    return ThetaElt.monomial(n, (0,) * n, tuple(range(1, n + 1)), (-1) ** n)
