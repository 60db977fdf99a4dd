"""Stabilized suspension model and its comparison with dual-form chains."""

import itertools
import math
import random

import pytest

from simplicial_derham.rationals import Q
from simplicial_derham.ordmaps import OrdMap
from simplicial_derham.polyforms import Poly, ThetaElt
from simplicial_derham.philocal import PhiElt
from simplicial_derham.sset import build, product, DegSimplex, nd
from simplicial_derham.phiglobal import PhiChain, phi_boundary, phi_of_chain
from simplicial_derham.monoidal import mu_phi
from simplicial_derham.colimit import (
    UElt, StabClass, z_of, phi_sharp, eta, nu, lambda_star, zeta,
    zeta_prime, psi,
)
from simplicial_derham.verify import rand_uelt, rand_phichain

from exactness import is_canonical
from homology_oracle import canonical_terms, contract_wedge_dt


def test_z_of_pinned_values():
    # constant axis
    assert z_of((7,), (0,), 2).is_zero()
    # jump collision
    assert z_of((1, 2), (1, 1), 2).is_zero()
    # single axis at level 1: the top class of [1] is -w_1
    assert z_of((4,), (1,), 1) == ThetaElt.monomial(1, (0,), (), Q(-1))
    # two axes filling level 2
    assert z_of((1, 2), (1, 2), 2) == ThetaElt.monomial(2, (0, 0), (), Q(1))
    assert z_of((1, 2), (2, 1), 2) == ThetaElt.monomial(2, (0, 0), (), Q(-1))


def test_z_of_face_contraction():
    # deleting a level from the jump profile tracks wedge contraction
    for d in range(1, 3):
        for m in range(0, 3):
            A = tuple(range(1, m + 1))
            for jumps in itertools.product(range(1, d + 1), repeat=m):
                za = z_of(A, jumps, d)
                for i in range(d + 1):
                    nj = []
                    dead = False
                    for j in jumps:
                        if (i == 0 and j == 1) or (i == d and j == d):
                            dead = True
                            break
                        nj.append(j if j <= i else j - 1)
                    lhs = (ThetaElt.zero(d - 1) if dead
                           else z_of(A, tuple(nj), d - 1).scale(Q(-1) ** i))
                    rhs = ThetaElt.zero(d - 1)
                    for (e, S), c in za.terms.items():
                        sg, S2 = contract_wedge_dt(d, S, i)
                        if sg:
                            rhs = rhs + ThetaElt.monomial(
                                d - 1, (0,) * (d - 1), S2,
                                c * sg * Q(-1) ** (m + 1))
                    assert lhs.terms == rhs.terms, (d, A, jumps, i)


def test_boundary_squares_to_zero():
    rng = random.Random(503)
    spaces = [build("delta:1"), build("delta:2"), build("sphere:1")]
    done = 0
    while done < 25:
        X = rng.choice(spaces)
        A = tuple(sorted(rng.sample(range(1, 6), rng.randint(0, 2))))
        u = rand_uelt(rng, X, A, rng.randint(1, 2))
        if u is None:
            continue
        done += 1
        assert u.boundary().boundary().is_zero()


def test_phi_sharp_chain_map():
    rng = random.Random(509)
    spaces = [build("delta:1"), build("delta:2"), build("boundary:2"),
              build("sphere:1")]
    done = 0
    while done < 25:
        X = rng.choice(spaces)
        A = tuple(sorted(rng.sample(range(1, 6), rng.randint(0, 2))))
        u = rand_uelt(rng, X, A, rng.randint(1, 2))
        if u is None:
            continue
        done += 1
        assert phi_sharp(u.boundary()) == phi_boundary(phi_sharp(u))


def test_phi_sharp_matches_canonical_terms():
    # each cell's orientation class, put in normal form the per-term way
    rng = random.Random(521)
    spaces = [build("delta:2"), build("sphere:2"),
              build("quotient:(delta:2,boundary:2)")]
    done = 0
    while done < 30:
        X = rng.choice(spaces)
        A = tuple(sorted(rng.sample(range(1, 6), rng.randint(0, 2))))
        u = rand_uelt(rng, X, A, rng.randint(0, 2), terms=3)
        if u is None:
            continue
        done += 1
        level = u.level()
        want = PhiChain.zero(X, u.d)
        for (jumps, ds), q in u.chain.items():
            elt = PhiElt.include(level, range(level + 1), z_of(A, jumps, level))
            want = want + canonical_terms(X, ds, elt).scale(q)
        assert phi_sharp(u) == want


def test_phi_sharp_on_a_nondegenerate_cell_pushes_nothing(monkeypatch):
    calls = []
    push = ThetaElt.pushforward
    monkeypatch.setattr(ThetaElt, "pushforward",
                        lambda self, *args: calls.append(args) or push(self, *args))
    X = build("delta:2")
    u = UElt((1,), X, 1, {((1,), nd((2, "0.1.2"))): 1})
    assert not phi_sharp(u).is_zero()
    assert calls == []


def test_phi_sharp_empty_stage_is_embedding():
    # with no suspension axes the comparison is the plain chain embedding
    X = build("delta:2")
    for k in range(3):
        coeffs = {ref: Q(i + 1) for i, ref in enumerate(X.nd_refs(k))}
        chain = {((), nd(ref)): q for ref, q in coeffs.items()}
        u = UElt((), X, k, chain)
        assert phi_sharp(u) == phi_of_chain(X, coeffs, k)


def test_phi_sharp_kills_jump_collisions():
    # the edge of the interval at level 2 with both axes on the same jump
    X = build("delta:1")
    sq = DegSimplex(OrdMap((0, 0, 1), 1), (1, "0.1"))
    u = UElt((1, 2), X, 0, {((1, 1), sq): Q(1)})
    assert not u.is_zero()
    assert phi_sharp(u).is_zero()


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_eta_cycle_and_unit(m):
    A = tuple(range(1, m + 1))
    e = eta(A)
    assert e.boundary().is_zero()
    out = phi_sharp(e)
    pt = e.X.nd_refs(0)[0]
    want = PhiChain(e.X, 0, {(pt, ((), ())): Q(1)})
    assert out == want
    if m == 0:
        ((jumps, ds), q), = list(e.chain.items())
        assert jumps == () and q == Q(1)


def test_nu_needs_disjoint_labels():
    X = build("delta:1")
    u = eta((1,))
    v = eta((1,))
    with pytest.raises(ValueError):
        nu(u, v)
    del X


def test_nu_phi_square():
    rng = random.Random(521)
    spaces = [build("delta:1"), build("sphere:1")]
    done = 0
    while done < 15:
        X = rng.choice(spaces)
        Y = rng.choice(spaces)
        A = tuple(sorted(rng.sample([1, 3], rng.randint(0, 1))))
        B = tuple(sorted(rng.sample([2, 4], rng.randint(0, 1))))
        u = rand_uelt(rng, X, A, rng.randint(0, 2))
        v = rand_uelt(rng, Y, B, rng.randint(0, 2))
        if u is None or v is None:
            continue
        done += 1
        P = product(X, Y)
        lhs = phi_sharp(nu(u, v, P))
        rhs = mu_phi(P, phi_sharp(u), phi_sharp(v))
        assert lhs == rhs


def test_lambda_star_bijection_is_signed_relabel():
    X = build("delta:1")
    rng = random.Random(523)
    u = None
    while u is None:
        u = rand_uelt(rng, X, (1, 2), 1)
    out = lambda_star({1: 4, 2: 3}, u)
    assert out.A == (3, 4)
    # image order (4, 3) is one transposition from sorted
    want = {}
    for (jumps, ds), q in u.chain.items():
        want[((jumps[1], jumps[0]), ds)] = -q
    assert out.chain == want


def test_lambda_star_functorial_and_chain_map():
    rng = random.Random(541)
    X = build("delta:2")
    done = 0
    while done < 20:
        u = rand_uelt(rng, X, (1, 2), rng.randint(1, 2))
        if u is None:
            continue
        done += 1
        f = {1: 3, 2: 5}
        g = {3: 4, 5: 6, 7: 1}
        via = lambda_star(g, lambda_star(f, u))
        direct = lambda_star({a: g[f[a]] for a in u.A}, u)
        assert via == direct
        assert lambda_star(f, u.boundary()) == lambda_star(f, u).boundary()


def test_lambda_star_preserves_comparison():
    rng = random.Random(547)
    X = build("sphere:1")
    done = 0
    while done < 20:
        m = rng.randint(0, 2)
        A = tuple(sorted(rng.sample(range(1, 5), m)))
        u = rand_uelt(rng, X, A, rng.randint(0, 2))
        if u is None:
            continue
        done += 1
        lam = {a: a + 3 for a in A}
        B = tuple(sorted(set(lam.values()) | {9}))
        assert phi_sharp(lambda_star(lam, u, B=B)) == phi_sharp(u)


def test_lambda_star_from_empty():
    # pushing a bare scalar into a one-label stage gives the eta pattern
    X = build("delta:1")
    vtx = X.nd_refs(0)[0]
    u = UElt((), X, 0, {((), nd(vtx)): Q(2)})
    out = lambda_star({}, u, B=(5,))
    assert out.A == (5,)
    assert phi_sharp(out) == phi_sharp(u)


def test_zeta_edge_example():
    # no polynomial part on an edge: the stage is empty and the image is
    # the plain wedge class
    X = build("delta:1")
    edge = (1, "0.1")
    s = zeta(X, edge, (0, 0), (1,))
    assert s.rep.A == ()
    want = PhiChain(X, 1, {(edge, ((0,), (1,))): Q(1)})
    assert psi(s) == want


def test_zeta_vertex_example():
    X = build("delta:1")
    vtx = (0, "0")
    s = zeta(X, vtx, (1,), ())
    want = PhiChain(X, 0, {(vtx, ((), ())): Q(1)})
    assert psi(s) == want


def test_zeta_prescribed_image():
    rng = random.Random(557)
    for name in ("delta:1", "delta:2", "sphere:1"):
        X = build(name)
        for n in range(0, 3):
            refs = list(X.nd_refs(n))
            if not refs:
                continue
            for _ in range(4):
                x = rng.choice(refs)
                nu_vec = tuple(rng.randint(0, 1) for _ in range(n + 1))
                J = tuple(sorted(rng.sample(range(1, n + 1),
                                            rng.randint(0, n))))
                fact = 1
                for c in nu_vec:
                    fact *= math.factorial(c)
                p = Poly.from_raw(n, {nu_vec: Q(1, fact)})
                want = PhiChain(X, len(J), {
                    (x, (e, J)): c for e, c in p.terms.items()})
                assert psi(zeta(X, x, nu_vec, J)) == want


def test_zeta_factor_relation():
    rng = random.Random(563)
    X = build("delta:2")
    for n in range(0, 3):
        refs = list(X.nd_refs(n))
        for _ in range(3):
            x = rng.choice(refs)
            nu_vec = tuple(rng.randint(0, 1) for _ in range(n + 1))
            J = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
            rhs = zeta(X, x, nu_vec, J)
            lhs = None
            for i in range(n + 1):
                nv = tuple(c + (1 if k == i else 0)
                           for k, c in enumerate(nu_vec))
                t = zeta(X, x, nv, J).scale(Q(nu_vec[i] + 1))
                lhs = t if lhs is None else lhs + t
            assert lhs == rhs


def test_section_identity():
    rng = random.Random(569)
    for name in ("delta:1", "delta:2", "boundary:2", "sphere:1"):
        X = build(name)
        for d in range(0, 3):
            c = rand_phichain(rng, X, d)
            if c.is_zero():
                continue
            assert psi(zeta_prime(c)) == c


def test_simple_round_trips():
    X = build("delta:1")
    vtx = (0, "0")
    edge = (1, "0.1")
    for c in (
        PhiChain(X, 0, {(vtx, ((), ())): Q(1)}),
        PhiChain(X, 1, {(edge, ((1,), (1,))): Q(1)}),  # e (x) t_1 w_1
    ):
        assert psi(zeta_prime(c)) == c


def test_class_round_trip():
    rng = random.Random(571)
    spaces = [build("delta:1"), build("delta:2"), build("sphere:1")]
    done = 0
    while done < 15:
        X = rng.choice(spaces)
        A = tuple(sorted(rng.sample([1, 2, 5], rng.randint(0, 2))))
        u = rand_uelt(rng, X, A, rng.randint(0, 2))
        if u is None:
            continue
        done += 1
        cls = StabClass(u)
        assert zeta_prime(psi(cls)) == cls


def test_class_equality_ignores_stage():
    # the same underlying class presented at different label stages
    X = build("delta:1")
    vtx = (0, "0")
    c = PhiChain(X, 0, {(vtx, ((), ())): Q(1)})
    small = zeta_prime(c)
    pushed = StabClass(lambda_star({}, small.rep, B=(8,)))
    assert small == pushed
    assert not (small == pushed.scale(2))
    # equal classes have unequal representatives, so no hash can agree with ==
    with pytest.raises(TypeError):
        hash(small)


def test_colimit_outputs_have_canonical_coefficients():
    # an integral coefficient is an int, never a Fraction of denominator 1
    X = build("delta:1")
    edge = DegSimplex(OrdMap((0, 0, 1), 1), (1, "0.1"))
    u = UElt((1,), X, 1, {((1,), edge): 2})
    c = PhiChain(X, 1, {((1, "0.1"), ((1,), (1,))): Q(4, 2),
                        ((1, "0.1"), ((2,), (1,))): Q(1, 3)})
    outs = [eta((1, 2)), nu(u, eta((2,))), lambda_star({1: 3}, u, B=(2, 3)),
            zeta_prime(c).rep]
    assert all(not v.is_zero() for v in outs)
    assert all(is_canonical(q) for v in outs for q in v.chain.values())
