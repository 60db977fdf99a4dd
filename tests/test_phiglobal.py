"""Global dual-form chains over a simplicial set."""

import importlib
import math
import random

import pytest

from simplicial_derham.rationals import Q
from simplicial_derham.ordmaps import degeneracy
from simplicial_derham.polyforms import FormElt, Poly, ThetaElt
from simplicial_derham.philocal import PhiElt
from simplicial_derham.sset import build, product, DegSimplex, nd
from simplicial_derham.phiglobal import (
    PhiChain, CochainForm, phi_boundary, phi_of_chain,
    truncated_complex, validate_cochain, global_pair, omega_wedge,
    homology_report,
)
from simplicial_derham.monoidal import mu_phi
from simplicial_derham.verify import rand_phichain, CORPUS

from exactness import is_canonical
from homology_oracle import (canonical_terms, from_poly, homology_report_oracle,
                             phi_boundary_oracle, truncated_complex_oracle)

SPACES = ("delta:1", "delta:2", "sphere:1", "boundary:2",
          "product:(delta:1,delta:1)")


@pytest.mark.parametrize("expr", SPACES)
def test_boundary_squares_to_zero(expr):
    X = build(expr)
    rng = random.Random(301)
    for _ in range(20):
        d = rng.randint(1, min(2, X.top_dim + 1))
        c = rand_phichain(rng, X, d)
        assert phi_boundary(phi_boundary(c)).is_zero()


@pytest.mark.parametrize("expr", SPACES)
def test_embedding_is_chain_map(expr):
    X = build(expr)
    rng = random.Random(307)
    for k in range(1, X.top_dim + 1):
        refs = X.nd_refs(k)
        if not refs:
            continue
        coeffs = {ref: Q(rng.randint(-3, 3)) for ref in refs}
        coeffs = {r: q for r, q in coeffs.items() if q}
        if not coeffs:
            continue
        lhs = phi_boundary(phi_of_chain(X, coeffs, k))
        # simplicial boundary with degenerate faces dropped
        bnd = {}
        for ref, q in coeffs.items():
            for i, ds in enumerate((X.face_table[ref])):
                if ds.is_nondegenerate():
                    bnd[ds.ref] = bnd.get(ds.ref, Q(0)) + Q(-1) ** i * q
        bnd = {r: q for r, q in bnd.items() if q}
        rhs = phi_of_chain(X, bnd, k - 1)
        assert lhs == rhs


# spaces with degenerate faces, so the pushed kernels are read
_COLLAPSING = ("sphere:2", "quotient:(delta:2,boundary:2)",
               "product:(sphere:2,delta:1)")


@pytest.mark.parametrize("expr", SPACES + _COLLAPSING)
def test_phi_boundary_matches_oracle(expr):
    X = build(expr)
    rng = random.Random(311)
    for _ in range(30):
        c = rand_phichain(rng, X, rng.randint(0, X.top_dim))
        assert phi_boundary(c) == phi_boundary_oracle(c)


def test_phi_boundary_reads_the_kernels_truncated_complex_filled(monkeypatch):
    from simplicial_derham import phiglobal

    X = build("quotient:(delta:2,boundary:2)")
    C = truncated_complex(X, 5)
    calls = []
    local_delta = phiglobal.delta
    monkeypatch.setattr(phiglobal, "delta",
                        lambda elt: calls.append(elt) or local_delta(elt))
    for d in range(1, X.top_dim + 1):
        c = PhiChain(X, d, {(ref, (e, S)): i + 1
                            for i, (ref, e, S) in enumerate(C.bases[d])})
        assert phi_boundary(c) == phi_boundary_oracle(c)
    assert calls == []


def test_phi_boundary_skips_identity_pushforwards(monkeypatch):
    from simplicial_derham import phiglobal

    seen = []
    push = ThetaElt.pushforward

    def counted(self, values, cod):
        if tuple(values) == tuple(range(cod + 1)):
            seen.append((values, cod))
        return push(self, values, cod)

    monkeypatch.setattr(ThetaElt, "pushforward", counted)
    phiglobal._pushed_boundary.cache_clear()
    X = build("delta:2")
    rng = random.Random(313)
    for _ in range(10):
        phi_boundary(rand_phichain(rng, X, rng.randint(1, 2)))
    assert seen == []


def test_canonicalize_degenerate_carrier():
    # a top-wedge element on a degenerate carrier dies with the collapse
    X = build("delta:1")
    edge = (1, "0.1")
    sq = DegSimplex(degeneracy(1, 0), edge)  # [2] ->> [1]
    a = PhiElt.include(2, range(3), ThetaElt.monomial(2, (0, 0), (1, 2)))
    out = canonical_terms(X, sq, a)
    assert out.is_zero()


def test_canonicalize_face_supported_component():
    # components on proper faces relocate to the face's carrier
    X = build("delta:2")
    tri = (2, "0.1.2")
    a = PhiElt.include(2, (0, 1), ThetaElt.w(1, 1))
    out = canonical_terms(X, tri, a)
    want = PhiChain(X, 1, {((1, "0.1"), ((0,), (1,))): Q(1)})
    assert out == want


def test_chain_group_relation():
    # (x . sigma, a) and (x, sigma_* a) canonicalize identically
    X = build("delta:2")
    tri = (2, "0.1.2")
    sq = DegSimplex(degeneracy(2, 1), tri)  # [3] ->> [2]
    a = PhiElt.include(3, (0, 1, 3), ThetaElt.monomial(2, (1, 0), (1, 2)))
    lhs = canonical_terms(X, sq, a)
    from simplicial_derham.philocal import push_phi
    rhs = canonical_terms(X, tri, push_phi(a, degeneracy(2, 1).values, 2))
    assert lhs == rhs


def test_global_pair_frozen_example():
    # the edge chain against ds_1 pairs to 1
    X = build("delta:1")
    edge = (1, "0.1")
    c = PhiChain(X, 1, {(edge, ((0,), (1,))): Q(1)})
    om = CochainForm(X, 1, {edge: FormElt.ds(1, 1)})
    assert validate_cochain(om) is None
    assert global_pair(c, om) == Q(1)


def test_phichain_coefficients_are_canonical():
    X = build("delta:1")
    k = ((1, "0.1"), ((0,), (1,)))
    assert type(PhiChain(X, 1, {k: Q(4, 2)}).terms[k]) is int
    a = PhiChain(X, 1, {k: Q(1, 2)})
    assert type((a + a).terms[k]) is int
    assert type(a.scale(2).terms[k]) is int
    # integral sums of fractions inside the boundary and the product
    rng = random.Random(5)
    A, B = build("sphere:2"), build("delta:1")
    P = product(A, B)
    for _ in range(20):
        c = rand_phichain(rng, A, rng.randint(1, 2)).scale(Q(1, 2))
        e = rand_phichain(rng, B, rng.randint(0, 1)).scale(Q(1, 3))
        for out in (phi_boundary(c), mu_phi(P, c, e)):
            assert all(is_canonical(v) for v in out.terms.values())


def test_phi_of_chain_names_an_unknown_simplex():
    X = build("delta:1")
    with pytest.raises(ValueError, match=r"unknown simplex \(1, '0\.2'\)"):
        phi_of_chain(X, {(1, "0.2"): Q(1)}, 1)


def test_phi_of_chain_names_a_dimension_mismatch():
    X = build("delta:1")
    with pytest.raises(ValueError) as exc:
        phi_of_chain(X, {(1, "0.1"): 1}, 0)
    assert str(exc.value) == "chain has dimension 1, which does not match n = 0"
    with pytest.raises(ValueError) as exc:
        phi_of_chain(X, {(0, "0"): 1, (1, "0.1"): 1}, 1)
    assert str(exc.value) == "chain mixes dimensions [0, 1]"


def test_global_pair_degree_mismatch():
    X = build("delta:1")
    edge = (1, "0.1")
    c = PhiChain(X, 1, {(edge, ((0,), (1,))): Q(1)})
    om0 = CochainForm.constant(X, Q(1))
    assert global_pair(c, om0) == Q(0)


def test_global_pair_requires_shared_complex():
    X = build("delta:1")
    Y = build("delta:1")
    c = PhiChain(X, 0, {((0, "0"), ((), ())): Q(1)})
    om = CochainForm.constant(Y, Q(1))
    with pytest.raises(ValueError):
        global_pair(c, om)


def test_constant_cochain_total_pairing():
    # pairing the vertex sum with the constant 1 counts the vertices
    X = build("boundary:2")
    coeffs = {ref: Q(1) for ref in X.nd_refs(0)}
    c = phi_of_chain(X, coeffs, 0)
    om = CochainForm.constant(X, Q(1))
    assert global_pair(c, om) == Q(3)


def test_validate_cochain_finds_violation():
    X = build("delta:2")
    vals = {}
    for ref in X.all_nd_refs():
        m = ref[0]
        vals[ref] = FormElt.zero(m)
    # a constant on one edge only cannot match its vertex values
    vals[(1, "0.1")] = from_poly(Poly.const(1, Q(1)))
    om = CochainForm(X, 0, vals)
    bad = validate_cochain(om)
    assert bad is not None
    ref, i = bad
    assert ref[0] >= 1 and 0 <= i <= ref[0]


def test_coordinate_cochain_validates():
    # barycentric vertex coordinates glue into a genuine global 0-form
    X = build("delta:2")
    verts = {"0": 0, "1": 1, "2": 2}
    vals = {}
    for ref in X.all_nd_refs():
        m, cid = ref
        carriers = [verts.get(v) for v in cid.split(".")]
        p = Poly.zero(m)
        for pos, v in enumerate(carriers):
            if v == 1:
                p = p + Poly.t(m, pos)
        vals[ref] = from_poly(p)
    om = CochainForm(X, 0, vals)
    assert validate_cochain(om) is None


def test_omega_wedge_validates():
    X = build("sphere:1")
    P = build("product:(sphere:1,sphere:1)")
    # rebuild factors shared with the product: construct from P itself
    from simplicial_derham.sset import product, sphere
    A = sphere(1)
    B = sphere(1)
    P = product(A, B)
    omA = CochainForm.constant(A, Q(2))
    omB = CochainForm.constant(B, Q(3))
    w = omega_wedge(P, omA, omB)
    assert w.d == 0
    assert validate_cochain(w) is None
    c = phi_of_chain(P, {P.nd_refs(0)[0]: Q(1)}, 0)
    assert global_pair(c, w) == Q(6)


def test_truncated_complex_weight_filter():
    X = build("delta:1")
    C = truncated_complex(X, 2)
    for k, labels in enumerate(C.bases):
        for (ref, e, S) in labels:
            assert sum(e) + len(S) <= 2
            assert len(S) == k


# dims of H(G_D) at D = top_dim and D = top_dim + 1
_DIMS_GD = {
    "delta:2": ([9, 2, 0], [11, 4, 0]),
    "sphere:1": ([3, 1], [3, 1]),
    "boundary:3": ([27, 14, 1], [35, 22, 1]),
}


@pytest.mark.parametrize("expr,want", [
    ("delta:2", [1, 0, 0]),
    ("sphere:1", [1, 1]),
    ("boundary:3", [1, 0, 1]),
])
def test_homology_report_small(expr, want):
    X = build(expr)
    dims_GD = _DIMS_GD[expr]
    for D, g_dims in zip((X.top_dim, X.top_dim + 1), dims_GD):
        rep = homology_report(X, D, name=expr)
        assert rep == {"complex": expr, "D": D, "dims_GD": g_dims,
                       "stable_image_dims": want, "matches_N": True}


def test_homology_report_builds_each_complex_once(monkeypatch):
    from simplicial_derham import phiglobal
    from simplicial_derham.sset import SSet

    X = build("sphere:1")
    weights = []
    chains = []
    reductions = []
    truncate = phiglobal.truncated_complex
    chain_complex = SSet.chain_complex
    filtered = phiglobal.FilteredReduction
    monkeypatch.setattr(phiglobal, "truncated_complex",
                        lambda X, W: weights.append(W) or truncate(X, W))
    monkeypatch.setattr(SSet, "chain_complex",
                        lambda self: chains.append(self) or chain_complex(self))
    monkeypatch.setattr(phiglobal, "FilteredReduction",
                        lambda C, st: reductions.append(C) or filtered(C, st))
    homology_report(X, 2)
    assert weights == [5]
    assert len(chains) == 1
    assert len(reductions) == 1


def test_public_names_resolve():
    import simplicial_derham

    names = simplicial_derham.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(simplicial_derham, name), name


@pytest.mark.parametrize("module", ["philocal", "phiglobal", "monoidal"])
def test_module_public_names_resolve(module):
    mod = importlib.import_module("simplicial_derham." + module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), name


def _report_or_error(report, X, D, expr):
    try:
        return report(X, D, name=expr)
    except RuntimeError as err:
        return str(err)


@pytest.mark.parametrize("expr", CORPUS)
def test_homology_report_matches_truncation_oracle(expr):
    # one filtered reduction against separate truncations and class ranks at
    # D = top and top + 1; below top, G_D misses the top classes and the
    # report is refused
    X = build(expr)
    top = X.top_dim
    for D in range(top - 3, top):
        with pytest.raises(ValueError) as exc:
            homology_report(X, D, name=expr)
        assert str(exc.value) == (
            "weight bound D=%d is too small for dimension %d: need D >= %d"
            % (D, top, top))
    for D in (top, top + 1):
        assert (_report_or_error(homology_report, X, D, expr)
                == _report_or_error(homology_report_oracle, X, D, expr)), D


_TORUS3 = "product:(product:(sphere:1,sphere:1),sphere:1)"


_TOP_PLUS_3_ONLY = (_TORUS3, "quotient:(delta:2,boundary:2)", "boundary:4")


@pytest.mark.parametrize("expr", CORPUS + _TOP_PLUS_3_ONLY)
def test_truncated_complex_matches_oracle(expr):
    # key-by-key assembly against one phi_boundary per label, entry by entry;
    # the quotient collapses faces, so its pushforwards are not identities
    X = build(expr)
    top = X.top_dim
    for W in (top + 3,) if expr in _TOP_PLUS_3_ONLY else (top + 3, top + 4):
        C = truncated_complex(X, W)
        want = truncated_complex_oracle(X, W)
        assert C.bases == want.bases
        for k in range(1, top + 1):
            assert C.d[k].rows == want.d[k].rows, (W, k)
            assert all(is_canonical(v) for row in C.d[k].rows for v in row.values())


@pytest.mark.parametrize("expr", ["delta:3", _TORUS3])
def test_truncated_complex_runs_delta_once_per_local_key(monkeypatch, expr):
    from simplicial_derham import phiglobal

    keys = []
    local_delta = phiglobal.delta

    def counted(elt):
        (alpha,) = elt.comps.values()
        keys.append((elt.n, *alpha.terms))
        return local_delta(elt)

    blocks = []
    compositions = phiglobal._compositions
    monkeypatch.setattr(phiglobal, "delta", counted)
    monkeypatch.setattr(phiglobal, "_compositions",
                        lambda t, m: blocks.append(m) or compositions(t, m))
    phiglobal._local_boundary.cache_clear()
    phiglobal._pushed_boundary.cache_clear()
    X = build(expr)
    C = truncated_complex(X, 6)
    want = {(ref[0], (e, S)) for labels in C.bases[1:] for ref, e, S in labels}
    assert sorted(keys) == sorted(want)
    assert len(keys) == 356
    # the monomials are enumerated once per (m, d, S, total) for the basis
    # and the matrices together, not once per simplex
    assert len(blocks) == sum(math.comb(m, d) * (7 - d)
                              for m in range(X.top_dim + 1) for d in range(m + 1))
    # the local kernels outlive the call
    truncated_complex(build(expr), 6)
    assert len(keys) == 356


def test_truncated_complex_from_a_warm_cache_matches_oracle():
    # kernels cached on one space are reused on others, entry by entry
    from simplicial_derham import phiglobal

    phiglobal._local_boundary.cache_clear()
    phiglobal._pushed_boundary.cache_clear()
    truncated_complex(build("delta:3"), 7)
    for expr, W in ((_TORUS3, 6), ("quotient:(delta:2,boundary:2)", 5)):
        hits = phiglobal._local_boundary.cache_info().hits
        X = build(expr)
        C = truncated_complex(X, W)
        assert phiglobal._local_boundary.cache_info().hits > hits, expr
        want = truncated_complex_oracle(X, W)
        assert C.bases == want.bases
        for k in range(1, X.top_dim + 1):
            assert C.d[k].rows == want.d[k].rows, (expr, k)
