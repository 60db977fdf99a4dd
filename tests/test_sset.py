"""Finite simplicial sets: builders, normal forms, serialization."""

import gc
import itertools
import json
import math
import random
import tracemalloc

import pytest

from simplicial_derham.rationals import Q
from simplicial_derham.ordmaps import OrdMap, compose, identity, face, degeneracy
from simplicial_derham.sset import (
    SSet, DegSimplex, nd, surjections, delta, boundary_delta,
    point, cube, cube_boundary_ids, quotient, sphere, product, product_ref,
    product_simplex, build, MAX_CELLS, _builder_cells, _product_cells,
)

from homology_oracle import (boundary_matrix, chain_complex, columns,
                             homology_dims, product_oracle, to_jsonable)


def euler_characteristic(X):
    return sum((-1) ** d * c for d, c in enumerate(X.nd_counts()))


def test_delta_cell_counts():
    for n in range(4):
        X = delta(n)
        for k in range(n + 1):
            assert len(X.nd_ids(k)) == math.comb(n + 1, k + 1)
        assert euler_characteristic(X) == 1


def test_point_and_sphere_cells():
    P = point()
    assert list(P.all_nd_refs()) == [(0, "0")]
    S1 = sphere(1)
    assert list(S1.all_nd_refs()) == [(0, "*"), (1, "j1")]
    # the square's interior diagonal survives the boundary collapse
    S2 = sphere(2)
    assert S2.nd_counts() == (1, 1, 2)
    assert homology_dims(chain_complex(S2)) == (1, 0, 1)


def test_square_cube_counts():
    # triangulated square: 4 vertices, 5 edges, 2 triangles
    C2 = cube(2)
    assert C2.nd_counts() == (4, 5, 2)
    assert euler_characteristic(C2) == 1


def test_product_cell_counts():
    T = build("product:(sphere:1,sphere:1)")
    assert T.nd_counts() == (1, 3, 2)
    assert euler_characteristic(T) == 0
    Sq = build("product:(delta:1,delta:1)")
    assert Sq.nd_counts() == (4, 5, 2)
    # the two top cells of the square, one per vertex order
    top = sorted(Sq.nd_ids(2))
    assert top == ["[0.1]x[0.1]@xy", "[0.1]x[0.1]@yx"]


CORPUS = (
    "delta:1", "delta:2", "delta:3", "boundary:2", "boundary:3",
    "sphere:1", "sphere:2", "product:(sphere:1,sphere:1)",
    "product:(delta:1,delta:1)",
)


@pytest.mark.parametrize("expr", CORPUS)
def test_corpus_validates(expr):
    X = build(expr)
    assert X.validate()


def test_interval_boundary_matrix():
    X = delta(1)
    m = boundary_matrix(X, 1)
    col = columns(m)[0]
    assert col == {0: Q(-1), 1: Q(1)}


def test_quotient_requires_face_closure():
    X = delta(2)
    with pytest.raises(ValueError):
        quotient(X, {(1, "0.1")})


def test_quotient_collapses_to_basepoint():
    X = delta(2)
    sub = {ref for ref in boundary_delta(2).all_nd_refs()}
    Qt = quotient(X, sub)
    assert Qt.nd_ids(0) == ("*",)
    assert Qt.nd_counts() == (1, 0, 1)
    assert homology_dims(chain_complex(Qt)) == (1, 0, 1)


def test_build_quotient_grammar():
    Qt = build("quotient:(delta:2,boundary:2)")
    assert Qt.nd_counts() == (1, 0, 1)


def test_build_rejects_negative_dimensions():
    for expr in ("delta:-1", "boundary:-1"):
        with pytest.raises(ValueError, match="dimension must be >= 0"):
            build(expr)
    # the empty boundary of the 0-simplex stays valid
    assert build("boundary:0").nd_counts() == (0,)


@pytest.mark.parametrize("expr", ["delta:1_0", "sphere:+1", "delta:\u0661",
                                  "delta:1.5", "boundary:", "delta:--1",
                                  "product:(delta:1,sphere:+1)"])
def test_build_rejects_non_ascii_integer_dimensions(expr):
    # int() would read "1_0" as 10, "+1" as 1 and an Arabic-Indic digit as 1
    inner = expr[len("product:(delta:1,"):-1] if expr.startswith("product") else expr
    with pytest.raises(ValueError) as exc:
        build(expr)
    assert str(exc.value) == ("bad dimension in %r: expected an optional '-' "
                              "and ASCII digits" % inner)


def test_builder_cell_counts_are_the_built_sizes():
    # the refusal reads the closed form, so it must count what is built
    for n in range(6):
        assert _builder_cells("delta", n) == sum(delta(n).nd_counts())
        assert _builder_cells("boundary", n) == sum(boundary_delta(n).nd_counts())
    for m in range(1, 6):
        assert _builder_cells("sphere", m) == sum(cube(m).nd_counts())
    assert [_builder_cells("sphere", m) for m in range(1, 9)] == [
        3, 11, 51, 299, 2163, 18731, 189171, 2183339]


@pytest.mark.parametrize("head,largest", [("delta", 18), ("boundary", 18),
                                          ("sphere", 7)])
def test_build_refuses_a_dimension_over_the_cell_budget(monkeypatch, head, largest):
    # decided before any cell is made: the builders are never reached
    from simplicial_derham import sset

    for name in ("delta", "boundary_delta", "sphere"):
        monkeypatch.setattr(sset, name, lambda n, name=name: (name, n))
    assert build("%s:%d" % (head, largest))[1] == largest
    for n in (largest + 1, 10 ** 20):
        expr = "%s:%d" % (head, n)
        with pytest.raises(ValueError) as exc:
            build(expr)
        assert str(exc.value) == "%r would build more than %d cells" % (expr, MAX_CELLS)


def test_build_strips_whitespace_around_dimensions():
    assert build(" delta: 2 ").nd_counts() == build("delta:2").nd_counts()


def test_build_rejects_garbage():
    with pytest.raises(ValueError):
        build("simplex:2")
    with pytest.raises(ValueError):
        build("delta")


@pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)])
def test_surjection_counts(m, k):
    surjs = list(surjections(m, k))
    assert len(surjs) == math.comb(m, k)
    assert len(set(surjs)) == len(surjs)
    for s in surjs:
        assert s.is_surjective() and s.dom == m and s.cod == k


@pytest.mark.parametrize("expr", ["delta:2", "sphere:2", "product:(delta:1,delta:1)"])
def test_normal_form_counts(expr):
    # every m-simplex is (surjection, nondegenerate) exactly once
    X = build(expr)
    for m in range(X.top_dim + 2):
        sims = X.degenerate_simplices(m)
        assert len(sims) == len(set(sims))
        want = sum(
            math.comb(m, k) * len(X.nd_ids(k)) for k in range(m + 1)
        )
        assert len(sims) == want


def test_apply_map_functorial():
    rng = random.Random(13)
    X = build("product:(delta:1,delta:1)")
    sims = X.degenerate_simplices(2) + X.degenerate_simplices(3)
    for _ in range(80):
        t = rng.choice(sims)
        n = t.dim
        k = rng.randint(0, n)
        # random monotone f: [k] -> [n]
        f = OrdMap(tuple(sorted(rng.randint(0, n) for _ in range(k + 1))), n)
        m2 = rng.randint(0, k)
        g = OrdMap(tuple(sorted(rng.randint(0, k) for _ in range(m2 + 1))), k)
        via = X.apply_map(g, X.apply_map(f, t))
        direct = X.apply_map(compose(f, g), t)
        assert via == direct
        assert X.apply_map(identity(n), t) == t


def test_face_of_degenerate_simplices():
    X = build("sphere:2")
    for t in X.degenerate_simplices(3):
        for j in range(1, 4):
            for i in range(j):
                lhs = X.face(X.face(t, j), i)
                rhs = X.face(X.face(t, i), j - 1)
                assert lhs == rhs


def test_product_pair_round_trip():
    P = build("product:(delta:1,delta:1)")
    for ref in P.all_nd_refs():
        a, b = P.pair_of[ref]
        assert product_ref(P, a, b) == ref


@pytest.mark.parametrize("left,right", [("delta:1", "sphere:1"),
                                        ("boundary:2", "delta:1")])
def test_product_simplex_projects_back(left, right):
    # the m-simplices of X x Y are exactly the pairs of m-simplices
    X, Y = build(left), build(right)
    P = product(X, Y)
    for m in range(4):
        got = set()
        for a in X.degenerate_simplices(m):
            for b in Y.degenerate_simplices(m):
                s = product_simplex(P, a, b)
                pa, pb = P.pair_of[s.ref]
                assert s.dim == m
                assert X.apply_map(s.surj, pa) == a
                assert Y.apply_map(s.surj, pb) == b
                got.add(s)
        assert got == set(P.degenerate_simplices(m))
        assert len(got) == (len(X.degenerate_simplices(m))
                            * len(Y.degenerate_simplices(m)))


def _same_product(got, want):
    """Equal cells in equal order, faces, pairs and reverse lookup."""
    assert got.name == want.name
    assert got.cells == want.cells
    assert list(got.face_table.items()) == list(want.face_table.items())
    assert list(got.pair_of.items()) == list(want.pair_of.items())
    assert list(got.ref_of_pair.items()) == list(want.ref_of_pair.items())


_FACTORS = ("delta:1", "delta:2", "boundary:2", "sphere:1", "sphere:2")


@pytest.mark.parametrize("left,right", itertools.product(_FACTORS, repeat=2))
def test_product_matches_oracle(left, right):
    X, Y = build(left), build(right)
    _same_product(product(X, Y), product_oracle(X, Y))


def test_product_matches_oracle_on_three_torus():
    T, S = build("product:(sphere:1,sphere:1)"), build("sphere:1")
    _same_product(product(T, S), product_oracle(T, S))


def _retained(make, X, Y):
    """Bytes of traced heap that the result of ``make(X, Y)`` keeps alive."""
    gc.collect()
    tracemalloc.start()
    try:
        P = make(X, Y)  # alive while the heap is read
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_product_shares_its_simplices():
    # one OrdMap per surjection and one DegSimplex per value: at most half
    # the heap of a product whose cells each hold their own simplices
    X = build("delta:2")
    assert 2 * _retained(product, X, X) <= _retained(product_oracle, X, X)


@pytest.mark.parametrize("left,right,cells", [
    ("delta:2", "delta:2", 103), ("sphere:2", "delta:1", 22), ("boundary:3", "sphere:2", 228),
    ("delta:3", "sphere:2", 286),
    # the two products of the verify corpus, and the 3-torus
    ("sphere:1", "sphere:1", 6), ("delta:1", "delta:1", 11),
    ("product:(sphere:1,sphere:1)", "sphere:1", 26)])
def test_product_cell_count_is_the_delannoy_sum(left, right, cells):
    # the closed form the refusal reads, against the products it predicts
    X, Y = build(left), build(right)
    assert _product_cells(X, Y) == sum(product(X, Y).nd_counts()) == cells


def test_product_refuses_over_the_cell_budget(monkeypatch):
    # decided by the count alone: no path is walked, so no cell is made
    from simplicial_derham import sset

    X = build("delta:2")
    monkeypatch.setattr(sset, "MAX_CELLS", 103)
    assert sum(product(X, X).nd_counts()) == 103
    monkeypatch.setattr(sset, "MAX_CELLS", 102)
    monkeypatch.setattr(sset, "_paths", lambda *args: pytest.fail("cells were made"))
    for run in (lambda: product(X, X), lambda: build("product:(delta:2,delta:2)")):
        with pytest.raises(ValueError) as exc:
            run()
        assert str(exc.value) == "'product:(delta:2,delta:2)' would build more than 102 cells"
    with pytest.raises(ValueError, match="'named' would build more than 102 cells"):
        product(X, X, name="named")


def test_json_round_trip(tmp_path):
    for expr in ("delta:2", "sphere:1", "sphere:2", "boundary:0",
                 "product:(sphere:1,sphere:1)"):
        X = build(expr)
        path = tmp_path / "space.json"
        path.write_text(json.dumps(to_jsonable(X)))
        Z = build("file:%s" % path)
        assert to_jsonable(Z) == to_jsonable(X)
        assert homology_dims(chain_complex(Z)) == homology_dims(
            chain_complex(X))


def test_from_jsonable_validates():
    X = delta(1)
    data = to_jsonable(X)
    # break a face assignment: edge with both endpoints equal but with a
    # dangling base id
    data["simplices"]["1"][0]["faces"][0]["base"] = "missing"
    with pytest.raises(ValueError):
        SSet.from_jsonable(data)


def test_cube_boundary_ids_closed():
    for m in (1, 2):
        C = cube(m)
        ids = cube_boundary_ids(C)
        for ref in ids:
            assert C.has_ref(ref)
            for ds in C.face_table[ref]:
                assert ds.ref in ids
