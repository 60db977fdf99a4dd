"""Dual-form families on one simplex: differential, pairing, homology."""

import random
from itertools import combinations

import pytest

from simplicial_derham.rationals import Q
from simplicial_derham.ordmaps import OrdMap
from simplicial_derham.polyforms import FormElt, Poly, ThetaElt, _compositions, theta_top
from simplicial_derham.philocal import (
    PhiElt, _monomial_boundary, delta, delta_prime, delta_dblprime, push_phi,
    big_pair, xi_witness, vertex_connector,
)
from simplicial_derham.phiglobal import truncated_complex
from simplicial_derham.sset import build
from simplicial_derham.verify import rand_phielt, rand_form

from exactness import is_canonical, theta_coeffs
from homology_oracle import (big_pair_oracle, carry, class_rank, columns, cycles, ds,
                             delta_dblprime_oracle, delta_prime_oracle,
                             monomial_boundary_oracle, push_phi_oracle, rand_theta)


def test_differential_squares_to_zero():
    rng = random.Random(211)
    for _ in range(100):
        n = rng.randint(1, 3)
        m = rng.randint(1, n)
        a = rand_phielt(rng, n, m)
        assert all(is_canonical(c) for c in theta_coeffs(delta(a)))
        assert delta(delta(a)).is_zero()
        assert delta_prime(delta_prime(a)).is_zero()
        assert delta_dblprime(delta_dblprime(a)).is_zero()
        mixed = delta_prime(delta_dblprime(a)) + delta_dblprime(delta_prime(a))
        assert mixed.is_zero()


def test_top_class_boundary():
    # the fundamental class flows to the signed sum of facet classes
    for n in range(1, 4):
        got = delta(PhiElt.top_class(n))
        want = PhiElt.zero(n, n - 1)
        for j in range(n + 1):
            J = tuple(i for i in range(n + 1) if i != j)
            want = want + PhiElt.include(n, J, theta_top(n - 1)).scale(
                -(Q(-1) ** j))
        assert got == want


def test_pair_adjoint_to_d():
    rng = random.Random(223)
    for _ in range(100):
        n = rng.randint(1, 3)
        m = rng.randint(1, n)
        a = rand_phielt(rng, n, m)
        om = rand_form(rng, n, m - 1)
        lhs = big_pair(delta(a), om)
        rhs = Q(-1) ** m * big_pair(a, om.de_rham_d())
        assert lhs == rhs


def test_pushforward_adjunction():
    rng = random.Random(229)
    for _ in range(100):
        n = rng.randint(1, 3)
        n2 = rng.randint(1, 3)
        m = rng.randint(1, min(n, n2))
        a = rand_phielt(rng, n, m)
        om = rand_form(rng, n2, m)
        values = tuple(sorted(rng.randint(0, n2) for _ in range(n + 1)))
        pushed = push_phi(a, values, n2)
        assert all(is_canonical(c) for c in theta_coeffs(pushed))
        lhs = big_pair(pushed, om)
        rhs = big_pair(a, om.pullback(values))
        assert lhs == rhs


def test_pushforward_functorial():
    rng = random.Random(233)
    for _ in range(60):
        n = rng.randint(1, 3)
        k = rng.randint(1, 3)
        m2 = rng.randint(1, 3)
        a = rand_phielt(rng, n, 1)
        f = tuple(sorted(rng.randint(0, k) for _ in range(n + 1)))
        g = tuple(sorted(rng.randint(0, m2) for _ in range(k + 1)))
        via = push_phi(push_phi(a, f, k), g, m2)
        direct = push_phi(a, tuple(g[v] for v in f), m2)
        assert via == direct


def test_pushforward_is_chain_map():
    rng = random.Random(239)
    for _ in range(80):
        n = rng.randint(1, 3)
        n2 = rng.randint(1, 3)
        m = rng.randint(1, n)
        a = rand_phielt(rng, n, m)
        values = tuple(sorted(rng.randint(0, n2) for _ in range(n + 1)))
        assert push_phi(delta(a), values, n2) == delta(push_phi(a, values, n2))


def test_big_pair_frozen_value():
    # top class on the triangle against t_1 ds_1^ds_2:
    # <w_12, ds_12> = -1 and the integral of t_1 is 1/6
    om = FormElt(2, {((1, 0), (1, 2)): Q(1)})
    assert big_pair(PhiElt.top_class(2), om) == Q(-1, 6)


def test_big_pair_matches_the_restrict_pair_integrate_oracle():
    # faces with and without vertex 0, forms of one degree or mixed ones,
    # int and Fraction coefficients on either side
    rng = random.Random(73)
    kinds = set()
    for case in range(240):
        n = rng.randint(0, 4)
        m = rng.randint(0, n)
        comps = {}
        for _ in range(rng.randint(1, 3)):
            J = tuple(sorted(rng.sample(range(n + 1), rng.randint(m + 1, n + 1))))
            comps[J] = rand_theta(rng, len(J) - 1, rng.randint(1, 4), degree=m,
                                  fractions=case % 2)
            kinds.add("misses 0" if J[0] else "has 0")
        a = PhiElt(n, m, comps)
        omega = FormElt(n, rand_theta(rng, n, rng.randint(1, 6),
                                      degree=None if case % 3 == 0 else m,
                                      fractions=case % 4 >= 2).terms)
        got = big_pair(a, omega)
        assert got == big_pair_oracle(a, omega) and type(got) is Q, (a, omega)
        kinds.add("nonzero" if got else "zero")
    assert kinds == {"misses 0", "has 0", "nonzero", "zero"}


def test_big_pair_degree_mismatch_is_zero():
    a = PhiElt.top_class(2)
    om = ds(2, 1)
    assert big_pair(a, om) == 0


def test_witness_pairs_nonzero():
    rng = random.Random(241)
    for _ in range(100):
        n = rng.randint(1, 3)
        m = rng.randint(1, n)
        a = rand_phielt(rng, n, m)
        if a.is_zero():
            continue
        assert big_pair(a, xi_witness(a)) != 0


def test_witness_pairing_positive():
    # the construction guarantees strict positivity, not just nonzero
    rng = random.Random(251)
    for _ in range(50):
        n = rng.randint(1, 3)
        m = rng.randint(1, n)
        a = rand_phielt(rng, n, m)
        if a.is_zero():
            continue
        assert big_pair(a, xi_witness(a)) > 0


def test_witness_rejects_zero():
    with pytest.raises(ValueError):
        xi_witness(PhiElt.zero(2, 1))


def test_vertex_connector_boundary():
    for n in range(1, 4):
        for a in range(n + 1):
            for b in range(a + 1, n + 1):
                got = delta(vertex_connector(n, a, b))
                want = (PhiElt.include(n, (b,), ThetaElt.monomial(0, (), ()))
                        - PhiElt.include(n, (a,), ThetaElt.monomial(0, (), ())))
                assert got == want


def _stable_image_dims(n, cap):
    X = build("delta:%d" % n)
    C = truncated_complex(X, cap)
    Cp = truncated_complex(X, cap + 2)
    # the truncation is a subcomplex: carrying commutes with the boundary
    for k in range(1, C.top + 1):
        cols = columns(Cp.d[k])
        assert carry(Cp, k - 1, columns(C.d[k]), C) == [
            cols[Cp.bases[k].index(lab)] for lab in C.bases[k]]
    return tuple(class_rank(Cp, k, carry(Cp, k, cycles(C, k), C))
                 for k in range(n + 1))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_local_homology_stabilizes_to_point(n):
    first = _stable_image_dims(n, n + 1)
    second = _stable_image_dims(n, n + 2)
    assert first == second == (1,) + (0,) * n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vertex_class_generates(n):
    # [i_{0}(1)] survives to the stable degree-0 homology
    cap = n + 1
    Cp = truncated_complex(build("delta:%d" % n), cap + 2)
    label = ((0, "0"), (), ())
    vec = {Cp.bases[0].index(label): Q(1)}
    assert class_rank(Cp, 0, [vec]) == 1


def _rand_phi(rng, n, m, fractions):
    """A PhiElt of degree ``m`` on up to 3 random faces of ``{0..n}``."""
    comps = {}
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(m + 1, n + 1)
        J = tuple(sorted(rng.sample(range(n + 1), size)))
        comps[J] = rand_theta(rng, size - 1, rng.randint(1, 6), degree=m,
                              fractions=fractions)
    return PhiElt(n, m, comps)


def test_delta_prime_matches_object_oracle():
    rng = random.Random(61)
    for case in range(200):
        n = rng.randint(0, 4)
        a = _rand_phi(rng, n, rng.randint(0, n), case % 2)
        got = delta_prime(a)
        assert got == delta_prime_oracle(a), a
        assert all(is_canonical(c) for c in theta_coeffs(got))
        assert delta(a) == delta_prime_oracle(a) + delta_dblprime_oracle(a), a


def test_delta_dblprime_and_push_phi_match_object_oracles():
    # n <= 4, every degree, int and Fraction coefficients; push_phi along
    # any vertex map, so local maps are identities, monotone or neither
    rng = random.Random(71)
    kinds = set()
    for case in range(240):
        n = rng.randint(0, 4)
        a = _rand_phi(rng, n, rng.randint(0, n), case % 2)
        cod = rng.randint(0, 4)
        values = tuple(rng.randint(0, cod) for _ in range(n + 1))
        for got, want in ((delta_dblprime(a), delta_dblprime_oracle(a)),
                          (push_phi(a, values, cod), push_phi_oracle(a, values, cod))):
            assert got == want, (a, values)
            assert all(is_canonical(c) for c in theta_coeffs(got))
        for J in a.comps:
            local = [values[j] for j in J]
            kinds.add("identity" if len(set(local)) == len(J) and local == sorted(local)
                      else "monotone" if local == sorted(local) else "neither")
    assert kinds == {"identity", "monotone", "neither"}


def test_monomial_kernel_matches_object_oracles():
    # every t^e w_S over [m], m <= 4, weight |e| + |S| <= 5, every S
    keys = 0
    for m in range(5):
        for d in range(m + 1):
            for S in combinations(range(1, m + 1), d):
                for e in (e for total in range(6 - d) for e in _compositions(total, m)):
                    a = PhiElt.include(m, range(m + 1), ThetaElt.monomial(m, e, S))
                    want = delta_prime_oracle(a) + delta_dblprime_oracle(a)
                    local = _monomial_boundary(m, e, S)
                    # entry p is on the facet without vertex p, None on [m]
                    faces = [tuple(q for q in range(m + 1) if q != p)
                             for p, _ in local]
                    got = PhiElt(m, d - 1, {J: ThetaElt(len(J) - 1, {
                        (e2, S2): c for e2, S2, c in terms})
                        for J, (_, terms) in zip(faces, local)})
                    assert got == want, (m, e, S)
                    # one entry per face and per term, no zeros, delta' first
                    assert faces == list(want.comps), (m, e, S)
                    assert all(p is not None for p, _ in local[1:]), (m, e, S)
                    for _, terms in local:
                        assert len({(e2, S2) for e2, S2, _ in terms}) == len(terms)
                        assert all(c and is_canonical(c) for *_, c in terms)
                    keys += 1
    assert keys == 985


def test_monomial_kernel_matches_the_generic_rules_on_every_block_key():
    # every local key of G_8 up to 5-simplices, every degree and wedge: the
    # kernel read off per-wedge plans gives the generic rules' entries in
    # their order, with int coefficients, and every tuple in it shared.
    # The uncached body runs, so the process cache is left as it was.
    from simplicial_derham import polyforms
    from simplicial_derham.phiglobal import _blocks

    keys = 0
    for m, by_degree in enumerate(_blocks(5, 8)):
        for runs in by_degree:
            for run in runs:
                for e, S in run:
                    got = _monomial_boundary.__wrapped__(m, e, S)
                    assert got == monomial_boundary_oracle(m, e, S), (m, e, S)
                    for _, terms in got:
                        assert polyforms._SHARED[terms] is terms
                        for t in terms:
                            assert polyforms._SHARED[t] is t
                            assert all(polyforms._SHARED[x] is x for x in t[:2])
                            assert type(t[2]) is int, (m, e, S)
                    keys += 1
    assert keys == 17718


def test_identity_pushforwards_skip_the_surjection_check(monkeypatch):
    from simplicial_derham import polyforms

    calls = []
    check = polyforms._surjection
    monkeypatch.setattr(polyforms, "_surjection",
                        lambda *args: calls.append(args) or check(*args))
    alpha = ThetaElt(2, {((1, 0), (1,)): 2, ((0, 2), (2,)): Q(1, 3)})
    beta = ThetaElt(1, {((1,), (1,)): -1})
    assert alpha.pushforward((0, 1, 2), 2) is alpha
    assert alpha.pushforward([0, 1, 2], 2) is alpha
    a = PhiElt(3, 1, {(0, 1, 2): alpha, (1, 3): beta})
    # both faces embed: each local map is the identity
    want = PhiElt(5, 1, {(0, 2, 3): alpha, (2, 5): beta})
    assert push_phi(a, (0, 2, 3, 5), 5) == want
    assert calls == []
    # an identity-like map of the wrong length is still checked
    with pytest.raises(ValueError, match="image for every vertex"):
        alpha.pushforward((0, 1), 1)
    assert len(calls) == 1
    alpha.pushforward((0, 1, 1), 1)
    assert len(calls) == 2


def test_delta_builds_one_element(monkeypatch):
    # delta' and delta'' sum in one dict: one validated PhiElt per call,
    # equal to their sum with the same component order
    rng = random.Random(12)
    elts = [rand_phielt(rng, 3, rng.randint(0, 2), comps=4) for _ in range(30)]
    # a face of one component carrying another: both parts land on (0, 1, 2)
    elts.append(PhiElt(3, 1, {(0, 1, 2): ThetaElt(2, {((1, 0), (1,)): 2}),
                              (0, 1, 2, 3): ThetaElt(3, {((0, 0, 0), (2,)): 1})}))
    wants = [delta_prime(a) + delta_dblprime(a) for a in elts]
    init = PhiElt.__init__
    built = []

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(PhiElt, "__init__", counted)
    for a, want in zip(elts, wants):
        del built[:]
        got = delta(a)
        assert len(built) == 1
        assert got == want and list(got.comps) == list(want.comps)


def test_kernels_build_a_fixed_number_of_elements(monkeypatch):
    # one validated element per result, or per nonzero face of a
    # face-indexed result, however many terms the input has
    from simplicial_derham import polyforms

    init = polyforms._GradedTerms.__init__
    built = []

    def counted(self, *args):
        built.append(type(self))
        init(self, *args)

    counts = []
    for k in (1, 4, 16):
        alpha = ThetaElt(3, {((i, 0, 1), ((1,), (2,), (3,))[i % 3]): i + 1
                             for i in range(k)})
        omega = FormElt(3, alpha.terms)
        a = PhiElt.include(3, range(4), alpha)
        runs = (lambda: delta(a),
                lambda: delta_prime(a),
                lambda: delta_dblprime(a),
                lambda: push_phi(a, (0, 1, 1, 2), 2),
                lambda: alpha.pushforward((0, 1, 1, 2), 2),
                lambda: alpha.pushforward((1, 0, 2, 1), 2),
                lambda: alpha.contract_face(0),
                lambda: alpha.contract_face(2),
                lambda: alpha.bullet(OrdMap((0, 1, 1, 2, 3), 3)),
                lambda: omega.de_rham_d(),
                lambda: omega.pullback((0, 1, 1, 2, 3)))
        row = []
        with monkeypatch.context() as mp:
            mp.setattr(polyforms._GradedTerms, "__init__", counted)
            for run in runs:
                del built[:]
                got = run()
                row.append(len(built))
                assert len(built) == (len(got.comps) if isinstance(got, PhiElt) else 1)
        counts.append(row)
    # delta: one element for delta' on the simplex and one per nonzero
    # facet; every term has t_3, so the facet t_3 = 0 gets none
    assert counts[1] == counts[2] == [4, 1, 3, 1, 1, 1, 1, 1, 1, 1, 1]
    # one term has no delta' and one more zero facet
    assert counts[0] == [2, 0, 2, 1, 1, 1, 1, 1, 1, 1, 1]
