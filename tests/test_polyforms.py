"""Polynomials, forms and dual classes on a single simplex."""

import doctest
import math
import random
import re
from itertools import combinations, product as iproduct

import pytest

from simplicial_derham.rationals import Q
from simplicial_derham.ordmaps import OrdMap, enumerate_shuffles
from simplicial_derham.polyforms import (
    Poly, FormElt, ThetaElt, theta_top, s_monomial, sort_sign, pairing_sign,
    _boundary_wedges, _compositions, _GradedTerms,
)
from simplicial_derham.verify import rand_poly, rand_form

from exactness import is_canonical
from homology_oracle import (bullet_oracle, bullet_uncached, contract_face_oracle,
                             contract_wedge_dt, coordinate, de_rham_d_oracle, ds, dt,
                             form_pullback_uncached, from_poly, integrate_oracle,
                             interior_ds, poly_pullback_uncached,
                             poly_pushforward_uncached, pullback_oracle,
                             pushforward_oracle, rand_theta,
                             theta_pushforward_uncached)

# frozen from tests/oracle_reference.py (sympy iterated integration);
# keys are (n, raw exponent vector over t_0..t_n)
MONOMIAL_INTEGRALS = {
    (1, (0, 0)): Q(1, 1),
    (1, (1, 0)): Q(1, 2),
    (1, (0, 1)): Q(1, 2),
    (1, (1, 1)): Q(1, 6),
    (1, (2, 0)): Q(1, 3),
    (1, (2, 3)): Q(1, 60),
    (2, (0, 0, 0)): Q(1, 2),
    (2, (1, 0, 0)): Q(1, 6),
    (2, (0, 1, 0)): Q(1, 6),
    (2, (1, 1, 1)): Q(1, 120),
    (2, (2, 0, 1)): Q(1, 60),
    (2, (0, 0, 3)): Q(1, 20),
    (3, (0, 0, 0, 0)): Q(1, 6),
    (3, (1, 1, 0, 0)): Q(1, 120),
    (3, (2, 1, 1, 0)): Q(1, 2520),
    (3, (0, 1, 0, 2)): Q(1, 360),
}

# frozen from tests/oracle_reference.py; keys are (n, kappa)
S_MONOMIAL_INTEGRALS = {
    (2, (1, 0)): Q(1, 6),
    (2, (0, 1)): Q(1, 3),
    (2, (1, 1)): Q(1, 8),
    (2, (2, 1)): Q(1, 15),
    (3, (1, 0, 0)): Q(1, 24),
    (3, (0, 2, 0)): Q(1, 20),
    (3, (1, 1, 1)): Q(1, 48),
}


def test_integrate_matches_per_term_oracle():
    # every monomial with n <= 4 and |e| <= 6, with an int and a Fraction
    # coefficient; random Fraction polynomials; the zero polynomial
    for n in range(5):
        for e in iproduct(range(7), repeat=n):
            if sum(e) > 6:
                continue
            for c in (1, -3, Q(5, 7)):
                got = Poly(n, {e: c}).integrate()
                assert got == integrate_oracle(Poly(n, {e: c})), (n, e, c)
                assert type(got) is Q
        zero = Poly.zero(n).integrate()
        assert zero == integrate_oracle(Poly.zero(n)) == 0 and type(zero) is Q
    rng = random.Random(59)
    for _ in range(300):
        n = rng.randint(0, 4)
        f = Poly(n, {tuple(rng.randint(0, 3) for _ in range(n)):
                     Q(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(4)})
        got = f.integrate()
        assert got == integrate_oracle(f) and type(got) is Q, f


@pytest.mark.parametrize("cls", [FormElt, ThetaElt])
@pytest.mark.parametrize("n,S", [(2, (2, 1)), (2, (1, 1)), (2, (0, 1)),
                                 (2, (1, 3)), (1, (1, 2)), (0, (1,))])
def test_bad_wedge_tuple_raises_every_time(cls, n, S):
    # the remembered verdicts are per (n, S): (1, 2) is fine on [2] only
    cls(2, {((0, 0), (1, 2)): 1})
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^bad wedge index tuple %s$"
                           % re.escape(repr(S))):
            cls(n, {((0,) * n, S): 1})
    # only tuples that passed are kept: at most 2^n of them per [n]
    assert all(list(S2) == sorted(set(S2)) and all(1 <= i <= n2 for i in S2)
               for n2, S2 in _GradedTerms._wedges)


def test_monomial_integrals_frozen():
    for (n, nu), want in MONOMIAL_INTEGRALS.items():
        p = Poly.from_raw(n, {nu: Q(1)})
        assert p.integrate() == want


def test_integral_closed_form():
    # prod(nu_i!) / (n + |nu|)! against the frozen table
    for (n, nu), want in MONOMIAL_INTEGRALS.items():
        num = 1
        for e in nu:
            num *= math.factorial(e)
        assert want == Q(num, math.factorial(n + sum(nu)))


def test_s_monomial_integrals_frozen():
    for (n, kappa), want in S_MONOMIAL_INTEGRALS.items():
        assert s_monomial(n, kappa).integrate() == want


def test_vertex_coordinates_sum_to_one():
    for n in range(1, 5):
        total = Poly.zero(n)
        for i in range(n + 1):
            total = total + coordinate(n, i)
        assert total == Poly.const(n, 1)


def test_relation_ideal_integrates_to_zero():
    # (1 - sum t_i) * f always integrates to zero
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 3)
        f = rand_poly(rng, n)
        assert (coordinate(n, 0) * f).integrate() == f.integrate() - (
            sum((coordinate(n, i) * f for i in range(1, n + 1)),
                Poly.zero(n)).integrate())
        raw = {}
        for e, c in f.terms.items():
            raw[(1,) + e] = c
        killed = Poly.from_raw(n, raw) - coordinate(n, 0) * f
        assert killed.integrate() == 0


def test_product_integral_via_shuffles():
    # int(f) * int(g) = sum over shuffles of int(pullback product)
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 2)
        m = rng.randint(1, 2)
        f = rand_poly(rng, n, deg=2, terms=2)
        g = rand_poly(rng, m, deg=2, terms=2)
        total = Q(0)
        for zeta, xi in enumerate_shuffles((n, m)):
            zv = tuple(zeta(i) for i in range(n + m + 1))
            xv = tuple(xi(i) for i in range(n + m + 1))
            total += (f.pullback(zv) * g.pullback(xv)).integrate()
        assert total == f.integrate() * g.integrate()


def test_pullback_functorial():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        m = rng.randint(1, 3)
        f = rand_poly(rng, n, deg=2, terms=3)
        g_vals = tuple(sorted(rng.randint(0, n) for _ in range(k + 1)))
        h_vals = tuple(sorted(rng.randint(0, k) for _ in range(m + 1)))
        via = f.pullback(g_vals).pullback(h_vals)
        direct = f.pullback(tuple(g_vals[v] for v in h_vals))
        assert via == direct


def test_res_at_kills_coordinate():
    for n in range(1, 4):
        for k in range(n + 1):
            r = coordinate(n, k).res_at(k)
            assert r.terms == {} or all(c == 0 for c in r.terms.values())


def test_grad_stokes_identity():
    # Euler-type identity: directional derivative along a zero-sum vector
    # integrates to minus the boundary residues
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 3)
        f = rand_poly(rng, n, deg=3, terms=3)
        xs = [Q(rng.randint(-3, 3)) for _ in range(n + 1)]
        xs[0] -= sum(xs)
        total = f.grad(tuple(xs)).integrate()
        for i in range(n + 1):
            total += xs[i] * f.res_at(i).integrate()
        assert total == 0


# ---------------------------------------------------------------------------
# differential forms

def test_dt_is_ds_difference():
    n = 3
    for j in range(n + 1):
        want = FormElt.zero(n)
        if j + 1 <= n:
            want = want + ds(n, j + 1)
        if 1 <= j <= n:
            want = want - ds(n, j)
        assert dt(n, j) == want


def test_de_rham_d_squared_zero():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 3)
        d = rng.randint(0, n - 1)
        om = rand_form(rng, n, d)
        assert om.de_rham_d().de_rham_d().is_zero()


def test_de_rham_leibniz():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(1, 3)
        da = rng.randint(0, n)
        db = rng.randint(0, n - da)
        a = rand_form(rng, n, da)
        b = rand_form(rng, n, db)
        lhs = a.wedge(b).de_rham_d()
        rhs = a.de_rham_d().wedge(b) + a.wedge(b.de_rham_d()).scale(
            Q(-1) ** da)
        assert lhs == rhs


def test_form_pullback_commutes_with_d():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        d = rng.randint(0, min(n, m) - 0)
        d = min(d, n, m)
        om = rand_form(rng, n, d)
        vals = tuple(sorted(rng.randint(0, n) for _ in range(m + 1)))
        assert om.pullback(vals).de_rham_d() == om.de_rham_d().pullback(vals)


def test_interval_coordinate_differential():
    # t_1 = 1 - s_1 on the interval, so d(t_1) = -ds_1
    om = from_poly(coordinate(1, 1))
    assert om.de_rham_d() == ds(1, 1).scale(-1)
    # and d(t_0) = +ds_1
    assert from_poly(coordinate(1, 0)).de_rham_d() == ds(1, 1)


# ---------------------------------------------------------------------------
# dual classes

def test_pairing_table():
    for m in range(1, 4):
        n = 4
        for S in combinations(range(1, n + 1), m):
            a = ThetaElt.monomial(n, (0,) * n, S)
            for T in combinations(range(1, n + 1), m):
                om = FormElt.monomial(n, (0,) * n, T)
                got = a.pair(om)
                if S == T:
                    assert got == Poly.const(n, pairing_sign(m))
                else:
                    assert got.terms == {}


def test_theta_top_closed_form():
    for n in range(1, 5):
        assert theta_top(n) == ThetaElt.monomial(
            n, (0,) * n, tuple(range(1, n + 1)), Q(-1) ** n)


def test_interior_is_pairing_adjoint():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(2, 3)
        m = rng.randint(1, n)
        S = tuple(sorted(rng.sample(range(1, n + 1), m)))
        a = ThetaElt.monomial(n, (0,) * n, S)
        i = rng.randint(1, n)
        T = tuple(sorted(rng.sample(range(1, n + 1), m - 1))) if m > 1 else ()
        om = FormElt.monomial(n, (0,) * n, T)
        lhs = interior_ds(a, i).pair(om)
        rhs = a.pair(om.wedge(ds(n, i))).scale(-1)
        assert lhs == rhs


def test_sort_sign():
    assert sort_sign((1, 2, 3)) == (1, (1, 2, 3))
    assert sort_sign((2, 1)) == (-1, (1, 2))
    assert sort_sign((3, 1, 2)) == (1, (1, 2, 3))
    assert sort_sign((1, 1)) == (0, ())


def test_pairing_sign_values():
    assert [pairing_sign(m) for m in range(5)] == [1, 1, -1, -1, 1]


def test_module_doctests():
    from simplicial_derham import polyforms

    result = doctest.testmod(polyforms)
    assert result.attempted >= 2 and result.failed == 0


def test_pushforward_coefficients_are_canonical():
    # t_1^2 on [1] pushed to a point is its integral 1/3: it must stay a Fraction
    third = Poly(1, {(2,): 1}).pushforward((0, 0), 0)
    assert third.terms == {(): Q(1, 3)}
    assert type(third.terms[()]) is Q
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(0, n)
        values = tuple(sorted(rng.sample(range(m + 1), m + 1)
                              + [rng.randint(0, m) for _ in range(n - m)]))
        f = rand_poly(rng, n, deg=3, terms=3)
        pushed = f.pushforward(values, m)
        assert all(is_canonical(c) for c in pushed.terms.values())
        if m == 0:
            assert pushed.terms.get((), 0) == f.integrate()
        S = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
        a = ThetaElt(n, {(e, S): c for e, c in f.terms.items()})
        for alpha in (a.pushforward(values, m), a.pushforward(values[::-1], m)):
            assert all(is_canonical(c) for c in alpha.terms.values())
    assert isinstance(Poly(2, {(1, 0): 1}).integrate(), Q)


def test_contract_face_matches_object_oracle():
    # every face j of [n], 0 and n included, int and Fraction coefficients
    rng = random.Random(53)
    for case in range(200):
        n = rng.randint(1, 4)
        alpha = rand_theta(rng, n, rng.randint(1, 6), fractions=case % 2)
        for j in range(n + 1):
            got = alpha.contract_face(j)
            assert got == contract_face_oracle(alpha, j), (alpha, j)
            assert all(is_canonical(c) for c in got.terms.values())
    with pytest.raises(ValueError, match="face index out of range"):
        ThetaElt.w(2, 1).contract_face(3)
    # a point has no face, as for Poly.res_at
    for point in (ThetaElt(0, {((), ()): 1}), ThetaElt.zero(0)):
        with pytest.raises(ValueError, match="cannot restrict a point"):
            point.contract_face(0)


def _wedge_cases(top):
    """Every ``(n, S, j)`` with ``n <= top``: a wedge subset and a face of ``[n]``."""
    return [(n, S, j) for n in range(top + 1) for d in range(n + 1)
            for S in combinations(range(1, n + 1), d) for j in range(n + 1)]


def test_contract_wedge_dt_matches_the_case_table():
    # the facets of the wedge table, the interior product transferred to
    # the face, against the old five-case sign table; a face missing from
    # the table is one the contraction kills; n = 0 has the one case (0, (), 0)
    cases = _wedge_cases(8)
    assert len(cases) == 4097
    for n, S, j in cases:
        facets = {p: (a, S2) for p, a, S2 in _boundary_wedges(n, S)[1]}
        assert facets.get(j, (0, ())) == contract_wedge_dt(n, S, j), (n, S, j)


def test_contract_dt_is_the_interior_product_of_dt():
    # the within-face part of the wedge table; j = 0 is covered by the facets
    for n, S, j in _wedge_cases(6):
        if not j:
            continue
        w = ThetaElt.monomial(n, (0,) * n, S)
        want = ThetaElt.zero(n)
        for (_, T), c in dt(n, j).terms.items():
            want = want + interior_ds(w, T[0]).scale(c)
        wedges = dict(_boundary_wedges(n, S)[0]).get(j, ())
        got = ThetaElt(n, {((0,) * n, S2): a for S2, a in wedges})
        assert got == want, (n, S, j)


def _rand_surjection(rng, n, m, monotone):
    values = list(range(m + 1)) + [rng.randint(0, m) for _ in range(n - m)]
    if monotone:
        values.sort()
    else:
        rng.shuffle(values)
    return tuple(values)


def test_pushforward_matches_object_oracle():
    rng = random.Random(59)
    kinds = set()
    for case in range(240):
        n = rng.randint(0, 4)
        m = rng.randint(0, n)
        values = _rand_surjection(rng, n, m, monotone=case % 2)
        alpha = rand_theta(rng, n, rng.randint(1, 6), fractions=case % 4 >= 2)
        got = alpha.pushforward(values, m)
        assert got == pushforward_oracle(alpha, values, m), (alpha, values)
        assert all(is_canonical(c) for c in got.terms.values())
        if values == tuple(range(m + 1)):
            kinds.add("identity")
            assert got is alpha
        elif values == tuple(sorted(values)):
            kinds.add("monotone")
        else:
            kinds.add("not monotone")
        # mu_0 > 0: the target's t_0 is raised, so t_0 must be eliminated
        if any(sum(e[i - 1] + 1 for i in range(1, n + 1) if values[i] == 0)
               + (values[0] == 0) > 1 for e, _ in alpha.terms):
            kinds.add("mu_0 > 0")
    assert kinds == {"identity", "monotone", "not monotone", "mu_0 > 0"}
    with pytest.raises(ValueError, match="image for every vertex"):
        ThetaElt.w(2, 1).pushforward((0, 1), 1)


def test_form_kernels_match_object_oracles():
    # de_rham_d, FormElt.pullback along any vertex map and bullet along a
    # monotone surjection; n <= 4, every degree, int and Fraction coefficients
    rng = random.Random(67)
    for case in range(240):
        n = rng.randint(0, 4)
        alpha = rand_theta(rng, n, rng.randint(1, 6), fractions=case % 2)
        omega = FormElt(n, alpha.terms)
        k = rng.randint(0, 4)
        values = tuple(rng.randint(0, n) for _ in range(k + 1))
        sigma = OrdMap(_rand_surjection(rng, rng.randint(n, 4), n, monotone=True), n)
        for got, want in ((omega.de_rham_d(), de_rham_d_oracle(omega)),
                          (omega.pullback(values), pullback_oracle(omega, values)),
                          (alpha.bullet(sigma), bullet_oracle(alpha, sigma))):
            assert got == want, (alpha, values, sigma)
            assert all(is_canonical(c) for c in got.terms.values())


def test_cached_transfers_match_uncached_oracles():
    # every transfer, d and face contraction twice, so each kernel is
    # checked as it is computed and as it is read back; maps monotone or
    # not, given as tuples or lists, int and Fraction coefficients, and
    # several exponents under one wedge
    from simplicial_derham.polyforms import _kernel

    _kernel.cache_clear()
    rng = random.Random(71)
    kinds = set()
    for case in range(240):
        n = rng.randint(0, 4)
        alpha = rand_theta(rng, n, rng.randint(1, 6), fractions=case % 2)
        alpha = alpha + ThetaElt(n, {(tuple(x + 1 for x in e), S): 1 for e, S in alpha.terms})
        if len({S for _, S in alpha.terms}) < len(alpha.terms):
            kinds.add("shared wedge")
        omega = FormElt(n, alpha.terms)
        f = Poly(n, {e: c for (e, _), c in alpha.terms.items()})
        values = [rng.randint(0, n) for _ in range(rng.randint(1, 5))]
        m = rng.randint(0, n)
        surj = _rand_surjection(rng, n, m, monotone=case % 3 == 0)
        sigma = OrdMap(_rand_surjection(rng, rng.randint(n, 4), n, monotone=True), n)
        if case % 4 == 3:
            values, surj = tuple(values), list(surj)
        kinds.add("monotone" if list(surj) == sorted(surj) else "not monotone")
        kinds.update(type(c).__name__ for c in alpha.terms.values())
        j = rng.randint(0, n)
        for _ in range(2):
            checks = [
                (f.pullback(values), poly_pullback_uncached(f, values)),
                (f.pushforward(surj, m), poly_pushforward_uncached(f, surj, m)),
                (omega.pullback(values), form_pullback_uncached(omega, values)),
                (alpha.bullet(sigma), bullet_uncached(alpha, sigma)),
                (alpha.pushforward(surj, m), theta_pushforward_uncached(alpha, surj, m)),
                (omega.de_rham_d(), de_rham_d_oracle(omega))]
            if n:  # a point has no face
                checks.append((alpha.contract_face(j), contract_face_oracle(alpha, j)))
            for got, want in checks:
                assert got == want, (alpha, values, surj, sigma, j)
                assert all(is_canonical(c) for c in got.terms.values())
    assert kinds == {"monotone", "not monotone", "int", "Fraction", "shared wedge"}


def test_each_transfer_kernel_is_computed_once():
    # keyed by the map's values, not the map object: a second map with the
    # same values, and a second element with the same monomial, both hit
    from simplicial_derham.polyforms import _kernel

    f = Poly(2, {(1, 2): 3})
    alpha = ThetaElt(2, {((1, 2), (1,)): 3})
    omega = FormElt(2, alpha.terms)
    for run in (lambda: f.pullback([2, 0, 1, 1]),
                lambda: f.pushforward((1, 0, 1), 1),
                lambda: omega.pullback((2, 0, 1, 1)),
                lambda: alpha.bullet(OrdMap((0, 1, 1, 2), 2)),
                lambda: alpha.pushforward([1, 0, 1], 1),
                lambda: omega.de_rham_d(),
                lambda: alpha.contract_face(1)):
        _kernel.cache_clear()
        first = run()
        assert run() == first and run().scale(2) == first.scale(2)
        assert _kernel.cache_info()[:2] == (2, 1)  # hits, misses
    # bullet is the pullback rule: along one surjection both read one entry
    sigma = OrdMap((0, 1, 1, 2), 2)
    _kernel.cache_clear()
    omega.pullback(sigma.values)
    alpha.bullet(sigma)
    assert _kernel.cache_info()[:2] == (1, 1)


def test_pullbacks_refuse_a_vertex_map_out_of_range():
    # before any kernel is keyed on the map
    from simplicial_derham.polyforms import _kernel

    f = Poly(1, {(1,): 1, (0,): 2})
    omega = FormElt(1, {((1,), (1,)): 1, ((0,), (1,)): 2})
    size = _kernel.cache_info().currsize
    for values in ((7, 9), (), [], (-1, 0), (0, 2), (1, -1, 0)):
        for elt in (f, omega):
            with pytest.raises(ValueError, match="vertex map value out of range"):
                elt.pullback(values)
    assert _kernel.cache_info().currsize == size
    assert f.pullback([1, 0, 1]) == poly_pullback_uncached(f, (1, 0, 1))
    assert omega.pullback((1, 0, 1)) == form_pullback_uncached(omega, (1, 0, 1))


def test_compositions_match_product_filter():
    for total in range(9):
        for k in range(6):
            want = [e for e in iproduct(range(total + 1), repeat=k)
                    if sum(e) == total]
            got = _compositions(total, k)
            # a tuple, so no caller can corrupt the shared value
            assert type(got) is tuple and list(got) == want, (total, k)
            assert _compositions(total, k) is got
