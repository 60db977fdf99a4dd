"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success; every comparison is an
exact rational equality (tolerance zero) and every criterion carries a
wall-clock budget asserted at the end of the test.
"""

import itertools
import random
import time

import pytest

from simplicial_derham.rationals import Q
from simplicial_derham.polyforms import ThetaElt
from simplicial_derham.philocal import (
    PhiElt, delta, big_pair, xi_witness, vertex_connector,
)
from simplicial_derham.phiglobal import (
    PhiChain, homology_report, truncated_complex,
)
from simplicial_derham.sset import build
from simplicial_derham.colimit import zeta_prime, psi
from simplicial_derham.verify import run_suite, rand_phielt, CORPUS

from homology_oracle import (carry, chain_complex, class_rank, columns, cycles,
                             homology_dims)


def _elapsed_ok(name, t0, budget):
    dt = time.monotonic() - t0
    assert dt < budget, "%s exceeded budget: %.1fs >= %ds" % (name, dt, budget)
    return dt


def _checks_by_name(report):
    return {c["name"]: c for c in report["checks"]}


def test_criterion_1_integration():
    t0 = time.monotonic()
    rep = run_suite("integration")
    assert rep["pass"], rep
    by = _checks_by_name(rep)
    table = by["ordered-monomial table (exhaustive n<=3, |kappa|<=4)"]
    assert table["pass"] and table["cases"] == 56
    ideal = by["relation ideal annihilated"]
    assert ideal["pass"] and ideal["cases"] >= 200
    prod = by["product of integrals via shuffles (n+m<=5)"]
    assert prod["pass"] and prod["cases"] >= 100
    dt = _elapsed_ok("criterion 1", t0, 10)
    print("CRITERION 1 integration suite: PASS (%.2fs)" % dt)


def test_criterion_2_differential():
    t0 = time.monotonic()
    rep = run_suite("delta-squared", cases=200)
    assert rep["pass"], rep
    for check in rep["checks"]:
        assert check["pass"] and check["cases"] >= 200, check
    dt = _elapsed_ok("criterion 2", t0, 30)
    print("CRITERION 2 differential suite: PASS (%.2fs)" % dt)


def test_criterion_3_adjunction():
    t0 = time.monotonic()
    rep = run_suite("adjunction", cases=200)
    assert rep["pass"], rep
    by = _checks_by_name(rep)
    assert by["boundary adjoint to de Rham d"]["cases"] >= 200
    assert by["pushforward adjoint to pullback"]["cases"] >= 200
    assert by["gradient Stokes identity"]["cases"] >= 100
    dt = _elapsed_ok("criterion 3", t0, 60)
    print("CRITERION 3 adjunction suite: PASS (%.2fs)" % dt)


def test_criterion_4_local_homology():
    t0 = time.monotonic()
    for n in range(0, 4):
        dims = []
        X = build("delta:%d" % n)
        for cap in (n + 1, n + 2):
            C = truncated_complex(X, cap)
            Cp = truncated_complex(X, cap + 2)
            # the truncation is a subcomplex: carrying commutes with d
            for k in range(1, C.top + 1):
                cols = columns(Cp.d[k])
                assert carry(Cp, k - 1, columns(C.d[k]), C) == [
                    cols[Cp.bases[k].index(lab)]
                    for lab in C.bases[k]], (n, cap, k)
            dims.append(tuple(class_rank(Cp, k, carry(Cp, k, cycles(C, k), C))
                              for k in range(n + 1)))
        assert dims[0] == dims[1] == (1,) + (0,) * n, (n, dims)
        # vertex classes pairwise homologous by an explicit connector
        for a in range(n + 1):
            for b in range(a + 1, n + 1):
                diff = (PhiElt.include(n, (b,), ThetaElt.monomial(0, (), ()))
                        - PhiElt.include(n, (a,), ThetaElt.monomial(0, (), ())))
                assert delta(vertex_connector(n, a, b)) == diff
    dt = _elapsed_ok("criterion 4", t0, 60)
    print("CRITERION 4 local homology: PASS (%.2fs)" % dt)


def test_criterion_5_global_quasi_isomorphism():
    t0 = time.monotonic()
    assert len(CORPUS) == 9
    for expr in CORPUS:
        X = build(expr)
        rep = homology_report(X, X.top_dim, name=expr)
        n_dims = list(homology_dims(chain_complex(X)))
        assert rep["matches_N"] is True, (expr, rep)
        assert rep["stable_image_dims"] == n_dims, (expr, rep)
    dt = _elapsed_ok("criterion 5", t0, 300)
    print("CRITERION 5 global quasi-isomorphism (9 complexes): PASS (%.2fs)"
          % dt)


def test_criterion_6_monoidal():
    t0 = time.monotonic()
    rep = run_suite("monoidal", cases=500)
    assert rep["pass"], rep
    by = _checks_by_name(rep)
    sgn = by["shuffle sign from top classes (exhaustive n+m<=4)"]
    assert sgn["pass"] and sgn["cases"] == 31
    assert by["interleaving pairing identity"]["cases"] >= 100
    assert by["global product Leibniz"]["cases"] >= 100
    assert by["comparison square with the chain-level product"]["cases"] >= 100
    assert by["adjoint product law"]["cases"] >= 100
    dt = _elapsed_ok("criterion 6", t0, 120)
    print("CRITERION 6 monoidal suite: PASS (%.2fs)" % dt)


def test_criterion_7_colimit():
    t0 = time.monotonic()
    rep = run_suite("colimit")
    assert rep["pass"], rep
    by = _checks_by_name(rep)
    face = by["face-contraction identity (exhaustive d<=3, |A|<=2)"]
    assert face["pass"] and face["cases"] == 79
    assert by["adjoint comparison chain map"]["pass"]
    assert by["external product square"]["pass"]
    assert by["split generator factorization"]["pass"]
    assert by["class round trip"]["pass"]
    # section identity on every split-basis generator of weight <= 3
    checked = 0
    for expr in CORPUS:
        X = build(expr)
        G = truncated_complex(X, 3)
        for d in range(min(G.top, 3) + 1):
            for (ref, e, S) in G.bases[d]:
                c = PhiChain(X, d, {(ref, (e, S)): Q(1)})
                assert psi(zeta_prime(c)) == c, (expr, ref, e, S)
                checked += 1
    assert checked > 500
    dt = _elapsed_ok("criterion 7", t0, 180)
    print("CRITERION 7 colimit suite: PASS (%d generators, %.2fs)"
          % (checked, dt))


def test_criterion_8_combinatorics():
    t0 = time.monotonic()
    shuf = run_suite("shuffles")
    assert shuf["pass"], shuf
    by = _checks_by_name(shuf)
    assert by["shuffle counts (n+m<=8)"]["pass"]
    assert by["operadic composition bijective (n+m+p<=6)"]["pass"]
    ez = run_suite("ez")
    assert ez["pass"], ez
    assert _checks_by_name(ez)["normal form uniqueness and count"]["pass"]
    dt = _elapsed_ok("criterion 8", t0, 30)
    print("CRITERION 8 combinatorics suite: PASS (%.2fs)" % dt)


def test_criterion_9_injectivity():
    t0 = time.monotonic()
    rng = random.Random(9)
    done = 0
    while done < 100:
        n = rng.randint(0, 3)
        m = rng.randint(0, n)
        a = rand_phielt(rng, n, m)
        if a.is_zero():
            continue
        done += 1
        assert big_pair(a, xi_witness(a)) != 0
    dt = _elapsed_ok("criterion 9", t0, 30)
    print("CRITERION 9 injectivity witness (100 cases): PASS (%.2fs)" % dt)
