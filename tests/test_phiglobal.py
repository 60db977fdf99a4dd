"""Global dual-form chains over a simplicial set."""

import importlib
import math
import random

import pytest

from simplicial_derham.rationals import Q
from simplicial_derham.ordmaps import degeneracy
from simplicial_derham.polyforms import FormElt, Poly, ThetaElt, _compositions
from simplicial_derham.philocal import PhiElt, _monomial_boundary, delta
from simplicial_derham.sset import build, product, DegSimplex, nd
from simplicial_derham.phiglobal import (
    PhiChain, CochainForm, phi_boundary, phi_of_chain,
    truncated_complex, validate_cochain, global_pair, omega_wedge,
    homology_report, _bases, _label_count, _unit_certificates, MAX_LABELS,
)
from simplicial_derham.monoidal import mu_phi
from simplicial_derham.verify import rand_phichain, CORPUS

from exactness import is_canonical
from homology_oracle import (canonical_terms, coordinate, ds, from_poly,
                             global_pair_oracle, homology_report_oracle, lambda_rows,
                             phi_boundary_oracle, rand_theta, truncated_complex_oracle)


def constant_form(X, c):
    """The degree-0 cochain form with the constant ``c`` on every simplex."""
    return CochainForm(X, 0, {ref: FormElt(ref[0], {((0,) * ref[0], ()): c})
                              for ref in X.all_nd_refs()})


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
            for i, y in enumerate((X.face_table[ref])):
                if y.is_nondegenerate():
                    bnd[y.ref] = bnd.get(y.ref, Q(0)) + Q(-1) ** i * q
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


def test_phi_boundary_reads_the_kernels_truncated_complex_filled():
    X = build("quotient:(delta:2,boundary:2)")
    C = truncated_complex(X, 5)
    misses = _monomial_boundary.cache_info().misses
    for d in range(1, X.top_dim + 1):
        c = PhiChain(X, d, {(ref, (e, S)): i + 1
                            for i, (ref, e, S) in enumerate(C.bases[d])})
        assert phi_boundary(c) == phi_boundary_oracle(c)
    # no kernel ran: every key came from the cache
    assert _monomial_boundary.cache_info().misses == misses


@pytest.mark.parametrize("expr,pushed", [("sphere:2", 34),
                                          ("quotient:(delta:2,boundary:2)", 48)])
def test_boundaries_read_the_stored_faces(monkeypatch, expr, pushed):
    # truncation and phi_boundary read X.face_table, never SSet.apply_map,
    # and still push the kernels along degenerate faces
    from simplicial_derham import phiglobal
    from simplicial_derham.sset import SSet

    X = build(expr)
    calls = []
    apply_map = SSet.apply_map
    monkeypatch.setattr(SSet, "apply_map", lambda self, *args:
                        calls.append(args) or apply_map(self, *args))
    phiglobal._pushed_boundary.cache_clear()
    C = truncated_complex(X, 5)
    chains = [PhiChain(X, d, {(ref, (e, S)): i + 1
                              for i, (ref, e, S) in enumerate(C.bases[d])})
              for d in range(1, X.top_dim + 1)]
    got = [phi_boundary(c) for c in chains]
    assert calls == []
    assert phiglobal._pushed_boundary.cache_info().misses == pushed
    want = truncated_complex_oracle(X, 5)
    assert C.bases == want.bases
    assert [M.rows for M in C.d[1:]] == lambda_rows(want)[1:]
    assert got == [phi_boundary_oracle(c) for c in chains]
    # delta reads the same cache: a second run of one element misses nothing
    a = PhiElt(2, 1, {(0, 1, 2): ThetaElt(2, {((1, 2), (1,)): 3, ((0, 0), (2,)): 1})})
    first = delta(a)
    misses = _monomial_boundary.cache_info().misses
    assert delta(a) == first
    assert _monomial_boundary.cache_info().misses == misses


def test_phi_boundary_skips_identity_pushforwards(monkeypatch):
    # a facet entry is pushed only along a collapse: the simplex has no
    # degenerate face and the sphere's are pushed, never along an identity
    from simplicial_derham import phiglobal

    pushed, push = [], phiglobal._pushed_boundary
    monkeypatch.setattr(phiglobal, "_pushed_boundary",
                        lambda *key: pushed.append(key) or push(*key))
    rng = random.Random(313)
    for expr in ("delta:2", "sphere:2"):
        X = build(expr)
        for _ in range(10):
            phi_boundary(rand_phichain(rng, X, rng.randint(1, 2)))
    assert pushed
    assert [values for *_, values in pushed if values == tuple(range(len(values)))] == []


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
    om = CochainForm(X, 1, {edge: ds(1, 1)})
    assert validate_cochain(om) is None
    assert global_pair(c, om) == Q(1)


@pytest.mark.parametrize("expr", CORPUS)
def test_global_pair_matches_the_pair_integrate_oracle(expr):
    # a random value on every simplex, compatible or not, of the chain's
    # degree or (one case in five) another; int and Fraction coefficients
    X = build(expr)
    rng = random.Random(83)
    nonzero = 0
    for case in range(30):
        d = rng.randint(0, X.top_dim)
        c = rand_phichain(rng, X, d).scale(Q(rng.randint(1, 5), rng.randint(1, 3)))
        deg = d if case % 5 else rng.randint(0, X.top_dim)
        om = CochainForm(X, deg, {
            ref: FormElt(ref[0], rand_theta(rng, ref[0], rng.randint(1, 4), degree=deg,
                                            fractions=case % 2).terms)
            for ref in X.all_nd_refs() if ref[0] >= deg})
        got = global_pair(c, om)
        assert got == global_pair_oracle(c, om) and type(got) is Q, (c, om)
        nonzero += bool(got)
    assert nonzero >= 10


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
    om0 = constant_form(X, Q(1))
    assert global_pair(c, om0) == Q(0)


def test_global_pair_requires_shared_complex():
    X = build("delta:1")
    Y = build("delta:1")
    c = PhiChain(X, 0, {((0, "0"), ((), ())): Q(1)})
    om = constant_form(Y, Q(1))
    with pytest.raises(ValueError):
        global_pair(c, om)


def test_constant_cochain_total_pairing():
    # pairing the vertex sum with the constant 1 counts the vertices
    X = build("boundary:2")
    coeffs = {ref: Q(1) for ref in X.nd_refs(0)}
    c = phi_of_chain(X, coeffs, 0)
    om = constant_form(X, Q(1))
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
                p = p + coordinate(m, pos)
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
    omA = constant_form(A, Q(2))
    omB = constant_form(B, Q(3))
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

    X = build("sphere:1")
    weights = []
    reductions = []
    truncate = phiglobal.truncated_complex
    filtered = phiglobal.FilteredReduction
    monkeypatch.setattr(phiglobal, "truncated_complex",
                        lambda X, W: weights.append(W) or truncate(X, W))
    monkeypatch.setattr(phiglobal, "FilteredReduction",
                        lambda C, st, certs: reductions.append(certs)
                        or filtered(C, st, certs))
    homology_report(X, 2)
    assert weights == [5]
    assert len(reductions) == 1
    # the circle is connected: one certificate, on degree 0
    assert [k for k, _ in reductions[0]] == [0]


def test_unit_cocycle_is_the_integral_of_each_monomial():
    # n! int t^e, in closed form, against Poly.integrate for m <= 4, |e| <= 6
    X = build("delta:4")
    labels = _bases(X, 6)[0]
    (k, z), = _unit_certificates(labels, 10)
    assert k == 0
    assert len(z) == len(labels)
    assert {(ref[0], e) for ref, e, _ in labels} == {
        (m, e) for m in range(5) for w in range(7) for e in _compositions(w, m)}
    for i, (ref, e, _) in enumerate(labels):
        assert z[i] == Poly(ref[0], {e: 1}).integrate() * math.factorial(10)


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
        rows = lambda_rows(want)
        for k in range(1, top + 1):
            assert C.d[k].rows == rows[k], (W, k)
            assert all(type(v) is int for row in C.d[k].rows for v in row.values())


def test_accepted_spaces_never_take_the_label_path(monkeypatch):
    # no term of these boundaries leaves the span, so the block assembly
    # alone builds them; the last three have degenerate faces
    from simplicial_derham import phiglobal

    monkeypatch.setattr(phiglobal, "_label_boundary",
                        lambda *args: pytest.fail("took the label path"))
    cases = [(expr, build(expr).top_dim + 3) for expr in CORPUS]
    cases += [(_TORUS3, 6), ("sphere:3", 7), ("product:(sphere:2,delta:1)", 6),
              ("quotient:(delta:2,boundary:2)", 5)]
    for expr, W in cases:
        truncated_complex(build(expr), W)


@pytest.mark.parametrize("expr", CORPUS + (_TORUS3,))
def test_a_smaller_truncation_is_the_leading_block(expr):
    # the layout is weight-major: for a < b the labels of G_a are a prefix
    # of those of G_b in every degree, and each d_k of G_a is the leading
    # block of G_b's, with nothing below it
    X = build(expr)
    top = X.top_dim
    G = [truncated_complex(X, W) for W in range(top + 4)]
    for a in range(top + 3):
        for b in range(a + 1, top + 4):
            for k in range(top + 1):
                n = len(G[a].bases[k])
                assert G[b].bases[k][:n] == G[a].bases[k], (a, b, k)
                if k:
                    rows = G[b].d[k].rows
                    m = len(G[a].bases[k - 1])
                    assert [{j: v for j, v in row.items() if j < n}
                            for row in rows[:m]] == G[a].d[k].rows, (a, b, k)
                    assert not any(j < n for row in rows[m:] for j in row), (a, b, k)


@pytest.mark.parametrize("expr", CORPUS + (_TORUS3,))
def test_label_count_is_the_built_size(expr):
    X = build(expr)
    for W in (X.top_dim, X.top_dim + 3, X.top_dim + 4):
        assert _label_count(X, W) == sum(map(len, _bases(X, W))), W


def test_the_label_budget_is_checked_before_any_basis(monkeypatch):
    # the 3-torus at D=3 and delta:6 at D=6 are admitted, sphere:5 at D=5 is
    # refused, and the refusal lists no label
    from simplicial_derham import phiglobal

    assert _label_count(build(_TORUS3), 6) == 3374
    assert _label_count(build("delta:6"), 9) == 397825 <= MAX_LABELS
    monkeypatch.setattr(phiglobal, "_bases", lambda X, W: pytest.fail("built a basis"))
    with pytest.raises(ValueError) as exc:
        homology_report(build("sphere:5"), 5)
    assert str(exc.value) == ("weight bound D=5 needs G_{D+3} of 2573838 labels, "
                              "over the limit of %d" % MAX_LABELS)


@pytest.mark.parametrize("expr", ["delta:3", _TORUS3])
def test_truncated_complex_runs_delta_once_per_local_key(monkeypatch, expr):
    from simplicial_derham import phiglobal

    blocks = []
    compositions = phiglobal._compositions
    monkeypatch.setattr(phiglobal, "_compositions",
                        lambda t, m: blocks.append(m) or compositions(t, m))
    _monomial_boundary.cache_clear()
    phiglobal._pushed_boundary.cache_clear()
    X = build(expr)
    C = truncated_complex(X, 6)
    # one kernel run per local key: 356 misses, and every wanted key is
    # then a hit, so the keys run are exactly the wanted ones
    assert _monomial_boundary.cache_info().misses == 356
    want = {(ref[0], e, S) for labels in C.bases[1:] for ref, e, S in labels}
    assert len(want) == 356
    for key in want:
        _monomial_boundary(*key)
    assert _monomial_boundary.cache_info().misses == 356
    # the monomials are enumerated once per (m, d, S, total) for the basis
    # and the matrices together, not once per simplex
    assert len(blocks) == sum(math.comb(m, d) * (7 - d)
                              for m in range(X.top_dim + 1) for d in range(m + 1))
    # the local kernels outlive the call
    truncated_complex(build(expr), 6)
    assert _monomial_boundary.cache_info().misses == 356


def test_cold_local_boundary_builds_no_element(monkeypatch):
    # the kernel writes plain term tuples: no form and no PhiElt, even cold
    from simplicial_derham import phiglobal, polyforms

    X = build("delta:4")
    keys = {(ref[0], e, S) for labels in phiglobal._bases(X, 6)[1:]
            for ref, e, S in labels}
    built = []
    for cls in (polyforms._GradedTerms, PhiElt):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=init:
                            built.append(type(self)) or init(self, *args))
    for cache in (_monomial_boundary, polyforms._boundary_wedges, polyforms._multinomials):
        cache.cache_clear()
    for key in sorted(keys):
        _monomial_boundary(*key)
    assert _monomial_boundary.cache_info().misses == len(keys)
    assert built == []
    # the counters see a constructor
    PhiElt.zero(1)
    assert built == [PhiElt]


def test_face_contraction_and_local_boundary_read_one_wedge_table():
    # contract_face reads the monomial kernel, which fills the table
    # cold: every facet of one (m, e, S) costs one miss of each; every
    # local key of G_8 up to 5-simplices keeps one table entry per
    # (m, S), sum_{m <= 5} 2^m of them
    from simplicial_derham import polyforms
    from simplicial_derham.phiglobal import _blocks

    table = polyforms._boundary_wedges
    for cache in (table, polyforms._kernel, _monomial_boundary):
        cache.cache_clear()
    m, e, S = 3, (1, 0, 2), (1, 3)
    for p in range(m + 1):
        ThetaElt(m, {(e, S): 1}).contract_face(p)
    assert _monomial_boundary.cache_info().misses == 1
    assert table.cache_info().misses == 1
    _monomial_boundary.__wrapped__(m, e, S)
    assert table.cache_info().misses == 1
    for m, by_degree in enumerate(_blocks(5, 8)):
        for runs in by_degree:
            for run in runs:
                for e, S in run:
                    _monomial_boundary.__wrapped__(m, e, S)
    assert table.cache_info().currsize == 63 == sum(2 ** m for m in range(6))


def _assert_shared(entries):
    """Equal entries, terms, exponent and wedge tuples in ``entries`` are one object.

    Some must repeat, so that the check is not vacuous.
    """
    seen, refs = {}, 0
    for entry in entries:
        for x in (entry, *entry, *(y for term in entry for y in term[:2])):
            assert seen.setdefault(x, x) is x, x
            refs += 1
    assert len(seen) < refs


def test_kernels_keep_each_equal_tuple_once(monkeypatch):
    # equal exponent tuples, wedge tuples, terms and entries across the
    # kernels of delta:3 at W=7 are one object each, and so are those of
    # the entries pushed along the collapsed faces of S^2 x S^1
    from simplicial_derham import phiglobal

    keys = {(ref[0], e, S) for labels in _bases(build("delta:3"), 7)[1:]
            for ref, e, S in labels}
    assert len(keys) == 539
    _assert_shared(entry for key in sorted(keys) for _, entry in _monomial_boundary(*key))
    pushed, push = {}, phiglobal._pushed_boundary
    monkeypatch.setattr(phiglobal, "_pushed_boundary",
                        lambda *key: pushed.setdefault(key, push(*key)))
    truncated_complex(build("product:(sphere:2,sphere:1)"), 6)
    # pushed along collapses only, never along an identity, to canonical
    # coefficients, which a sum of Fraction products need not be
    assert all(values != tuple(range(len(values))) for *_, values in pushed)
    assert all(is_canonical(c) for entry in pushed.values() for *_, c in entry)
    _assert_shared(pushed.values())


def test_truncated_complex_from_a_warm_cache_matches_oracle():
    # kernels cached on one space are reused on others, entry by entry
    from simplicial_derham import phiglobal

    _monomial_boundary.cache_clear()
    phiglobal._pushed_boundary.cache_clear()
    truncated_complex(build("delta:3"), 7)
    for expr, W in ((_TORUS3, 6), ("quotient:(delta:2,boundary:2)", 5)):
        hits = _monomial_boundary.cache_info().hits
        X = build(expr)
        C = truncated_complex(X, W)
        assert _monomial_boundary.cache_info().hits > hits, expr
        want = truncated_complex_oracle(X, W)
        assert C.bases == want.bases
        assert [M.rows for M in C.d[1:]] == lambda_rows(want)[1:], expr
