"""The shuffle product on dual-form chains."""

import math
import random

import pytest

from simplicial_derham.rationals import Q
from simplicial_derham.ordmaps import enumerate_shuffles
from simplicial_derham.polyforms import ThetaElt, theta_top
from simplicial_derham.sset import build, product, sphere, delta as delta_space
from simplicial_derham.phiglobal import (
    PhiChain, CochainForm, phi_boundary, phi_of_chain, global_pair,
    omega_wedge,
)
from simplicial_derham.monoidal import (
    mu_theta, shuffle_sign, shuffle_product_N, mu_phi, mu_phi3,
    transport_swap, gap_diagnostic,
)
from simplicial_derham.verify import rand_phichain, rand_form


def test_shuffle_sign_unit():
    for n in range(1, 3):
        for m in range(1, 3):
            for zeta, xi in enumerate_shuffles((n, m)):
                assert shuffle_sign(zeta, xi) in (1, -1)


def test_shuffle_sign_concatenation():
    # the order-preserving shuffle has sign +1
    from simplicial_derham.ordmaps import OrdMap
    zeta = OrdMap((0, 1, 2, 2, 2), 2)
    xi = OrdMap((0, 0, 0, 1, 2), 2)
    assert shuffle_sign(zeta, xi) == 1


def test_mu_theta_top_classes():
    # shuffled top classes recombine to the total top class with the
    # closed-form sign, exhaustive n+m<=6
    for n in range(0, 7):
        for m in range(0, 7 - n):
            for zeta, xi in enumerate_shuffles((n, m)):
                prod = mu_theta(zeta, xi, theta_top(n), theta_top(m))
                want = theta_top(n + m).scale(shuffle_sign(zeta, xi))
                assert prod == want


def test_gap_diagnostic_counts():
    for n, m in [(1, 1), (2, 1), (2, 2)]:
        counts = gap_diagnostic(n, m)
        total = sum(counts.values())
        assert total == math.comb(n + m, n) * (n + m + 1) - counts["cancelling"]
        assert counts["first"] > 0 and counts["second"] > 0


def _product_setup(exprA="delta:1", exprB="delta:1"):
    A = build(exprA)
    B = build(exprB)
    return A, B, product(A, B)


def test_mu_phi_leibniz():
    rng = random.Random(401)
    A, B, P = _product_setup()
    for _ in range(30):
        da = rng.randint(0, A.top_dim)
        db = rng.randint(0, B.top_dim)
        a = rand_phichain(rng, A, da, weight=2, terms=2)
        b = rand_phichain(rng, B, db, weight=2, terms=2)
        lhs = phi_boundary(mu_phi(P, a, b))
        rhs = mu_phi(P, phi_boundary(a), b) + mu_phi(P, a, phi_boundary(b)).scale(
            Q(-1) ** da)
        assert lhs == rhs


def test_mu_phi_embedding_compatibility():
    # embedding then multiplying equals the simplicial shuffle product
    rng = random.Random(409)
    A, B, P = _product_setup()
    for da in range(A.top_dim + 1):
        for db in range(B.top_dim + 1):
            ca = {ref: Q(rng.randint(-2, 2)) for ref in A.nd_refs(da)}
            cb = {ref: Q(rng.randint(-2, 2)) for ref in B.nd_refs(db)}
            ca = {r: q for r, q in ca.items() if q}
            cb = {r: q for r, q in cb.items() if q}
            if not ca or not cb:
                continue
            lhs = mu_phi(P, phi_of_chain(A, ca, da), phi_of_chain(B, cb, db))
            rhs = phi_of_chain(
                P, shuffle_product_N(P, ca, cb), da + db)
            assert lhs == rhs


def test_mu_phi_pairing_adjoint():
    rng = random.Random(419)
    A, B, P = _product_setup()
    for _ in range(25):
        da = rng.randint(0, 1)
        db = rng.randint(0, 1)
        a = rand_phichain(rng, A, da, weight=2, terms=2)
        b = rand_phichain(rng, B, db, weight=2, terms=2)
        om = CochainForm(A, da, {ref: rand_form(rng, ref[0], da, deg=1, terms=1)
                                 for ref in A.nd_refs(A.top_dim)})
        up = CochainForm(B, db, {ref: rand_form(rng, ref[0], db, deg=1, terms=1)
                                 for ref in B.nd_refs(B.top_dim)})
        lhs = global_pair(mu_phi(P, a, b), omega_wedge(P, om, up))
        rhs = Q(-1) ** (db * da) * global_pair(a, om) * global_pair(b, up)
        assert lhs == rhs


def test_mu_phi_spec_product_of_edges():
    # two edge classes multiply to the two signed prisms of the square
    A, B, P = _product_setup()
    edge = (1, "0.1")
    a = phi_of_chain(A, {edge: Q(1)}, 1)
    b = phi_of_chain(B, {edge: Q(1)}, 1)
    got = mu_phi(P, a, b)
    key = ((0, 0), (1, 2))
    want = PhiChain(P, 2, {
        ((2, "[0.1]x[0.1]@xy"), key): Q(1),
        ((2, "[0.1]x[0.1]@yx"), key): Q(-1),
    })
    assert got == want


def test_mu_phi3_binary_agreement():
    # the one-pass triple product equals either binary nesting; together
    # with the operadic shuffle bijection this is associativity
    rng = random.Random(431)
    X = delta_space(1)
    Y = delta_space(1)
    Z = delta_space(1)
    XY = product(X, Y)
    YZ = product(Y, Z)
    left_outer = product(XY, Z)
    right_outer = product(X, YZ)
    for _ in range(10):
        da = rng.randint(0, 1)
        db = rng.randint(0, 1)
        dc = rng.randint(0, 1)
        a = rand_phichain(rng, X, da, weight=1, terms=1)
        b = rand_phichain(rng, Y, db, weight=1, terms=1)
        c = rand_phichain(rng, Z, dc, weight=1, terms=1)
        left_once = mu_phi3(left_outer, XY, a, b, c, nest="left")
        left_twice = mu_phi(left_outer, mu_phi(XY, a, b), c)
        assert left_once == left_twice
        right_once = mu_phi3(right_outer, YZ, a, b, c, nest="right")
        right_twice = mu_phi(right_outer, a, mu_phi(YZ, b, c))
        assert right_once == right_twice


def test_transport_swap_koszul():
    # gamma(a x b) = (-1)^{da db} (b x a) across the swap identification
    rng = random.Random(433)
    A, B, P = _product_setup()
    P_sw = product(B, A)
    for _ in range(20):
        da = rng.randint(0, 1)
        db = rng.randint(0, 1)
        a = rand_phichain(rng, A, da, weight=2, terms=2)
        b = rand_phichain(rng, B, db, weight=2, terms=2)
        lhs = transport_swap(P, P_sw, mu_phi(P, a, b))
        rhs = mu_phi(P_sw, b, a).scale(Q(-1) ** (da * db))
        assert lhs == rhs
