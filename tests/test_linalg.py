"""Exact sparse linear algebra and chain-complex reports."""

import math
import random

import pytest

from simplicial_derham.rationals import Q, exact
from simplicial_derham import linalg
from simplicial_derham.linalg import QMatrix, ChainComplexQ, FilteredReduction
from simplicial_derham.sset import build
from simplicial_derham.phiglobal import _unit_certificates, truncated_complex
from simplicial_derham.verify import CORPUS

from homology_oracle import (
    _oracle_kernel, carry, chain_complex, class_rank, columns, cycles,
    eager_reduction_pairs, filtered_reduction_oracle, homology_dims, lambda_rows,
    matrix_product, rank, truncated_complex_oracle,
)

TORUS3 = "product:(product:(sphere:1,sphere:1),sphere:1)"
TORUS4 = "product:(product:(sphere:1,sphere:1),product:(sphere:1,sphere:1))"
TWO_INTERVALS = "product:(boundary:1,delta:1)"


def mat(rows):
    m = QMatrix(len(rows), len(rows[0]) if rows else 0)
    m.rows = [{j: exact(v) for j, v in enumerate(row) if v} for row in rows]
    return m


def rand_matrix(rng, nrows, ncols, density=0.4):
    m = QMatrix(nrows, ncols)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                v = exact(Q(rng.randint(-5, 5), rng.randint(1, 4)))
                if v:
                    m.rows[i][j] = v
    return m


def matrix_rank(m, stages=None):
    """Rank of ``m`` by ``FilteredReduction``: the pivot count of ``d_1 = m``.

    ``FilteredReduction`` reads ``int`` entries, so each row of a rational
    ``m`` is first scaled by the lcm of its denominators; zeros are kept.
    Rows and columns are put in the order of ``stages`` first.
    """
    ints = QMatrix(m.nrows, m.ncols)
    ints.rows = [{j: exact(v * math.lcm(*[Q(w).denominator for w in row.values()]))
                  for j, v in row.items()} for row in m.rows]
    C = ChainComplexQ([range(m.nrows), range(m.ncols)], [None, ints])
    if stages is None:
        stages = [[0] * m.nrows, [0] * m.ncols]
    return len(FilteredReduction(*in_stage_order(C, stages)).pairs[1])


def in_stage_order(C, stages, certificates=()):
    """``(C, stages, certificates)`` with each degree's cells sorted stably by stage."""
    order = [sorted(range(len(st)), key=st.__getitem__) for st in stages]
    where = [{i: p for p, i in enumerate(o)} for o in order]
    boundaries = [None]
    for k in range(1, C.top + 1):
        mat = QMatrix(C.dim(k - 1), C.dim(k))
        mat.rows = [{where[k][j]: v for j, v in C.d[k].rows[i].items()} for i in order[k - 1]]
        boundaries.append(mat)
    return (ChainComplexQ([[C.bases[k][i] for i in o] for k, o in enumerate(order)],
                          boundaries),
            [sorted(st) for st in stages],
            [(k, {where[k][i]: v for i, v in z.items()}) for k, z in certificates])


def annihilates(m, vec):
    """Whether ``m`` sends the sparse column vector ``vec`` to zero."""
    return all(sum(v * vec.get(j, 0) for j, v in row.items()) == 0 for row in m.rows)


def test_rank_examples():
    assert matrix_rank(mat([[1, 1], [1, 1]])) == 1
    assert matrix_rank(mat([[1, 0], [0, 1]])) == 2
    assert matrix_rank(mat([[0, 0], [0, 0]])) == 0
    assert matrix_rank(mat([[2, 4, 6], [1, 2, 3], [0, 1, 1]])) == 2
    assert matrix_rank(mat([[Q(1, 2), Q(1, 3)], [Q(3, 2), 1]])) == 1


def test_rank_ignores_explicit_zeros():
    # rows written directly may hold zeros; the reduction drops them
    m = QMatrix(2, 2)
    m.rows = [{0: 0, 1: Q(2)}, {1: 1}]
    assert matrix_rank(m) == 1
    m.rows = [{0: 0}, {}]
    assert matrix_rank(m) == 0
    assert matrix_rank(QMatrix(0, 0)) == 0


def test_rank_pivot_strategies_agree():
    # the fraction-free reduction in any stage order, against the rank
    # by the rational echelon oracle on the rows in either order
    rng = random.Random(101)
    for _ in range(100):
        nrows = rng.randint(1, 30)
        ncols = rng.randint(1, 30)
        m = rand_matrix(rng, nrows, ncols, density=rng.uniform(0.05, 0.5))
        r = rank(m.rows)
        assert r == rank(m.rows[::-1])
        assert matrix_rank(m) == r
        stages = [[rng.randint(0, 3) for _ in range(nrows)],
                  [rng.randint(0, 3) for _ in range(ncols)]]
        assert matrix_rank(m, stages) == r


@pytest.mark.parametrize("expr", CORPUS)
def test_kernel_basis_matches_rational_oracle(expr):
    # dim ker d_k from the filtered reduction against the oracle's basis
    X = build(expr)
    C = truncated_complex(X, X.top_dim + 2)
    F = FilteredReduction(C, [[0] * C.dim(k) for k in range(C.top + 1)])
    for k in range(1, C.top + 1):
        assert F.cycles(k, 0) == len(_oracle_kernel(C.d[k])), k


def test_kernel_basis_spans_kernel():
    rng = random.Random(103)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        ker = _oracle_kernel(m)
        assert all(annihilates(m, v) for v in ker)
        assert matrix_rank(m) + len(ker) == m.ncols
        assert rank(ker) == len(ker)


def test_matrix_multiply():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    c, want = matrix_product(a, b), mat([[2, 1], [4, 3]])
    assert (c.nrows, c.ncols) == (want.nrows, want.ncols) and c.rows == want.rows
    c = matrix_product(mat([[1, 0, Q(1, 2)]]), mat([[1], [5], [2]]))
    assert (c.nrows, c.ncols) == (1, 1) and c.rows == [{0: 2}]
    assert type(c.rows[0][0]) is int


def test_boundary_squared_enforced():
    good = ChainComplexQ(
        [["v0", "v1"], ["e"]],
        [None, mat([[-1], [1]])],
    )
    assert homology_dims(good) == (1, 0)
    with pytest.raises(ValueError):
        ChainComplexQ(
            [["a"], ["b"], ["c"]],
            [None, mat([[1]]), mat([[1]])],
        )


def test_boundary_squared_is_checked_on_the_nonzero_rows_only(monkeypatch):
    # a zero row of d_{k-1} meets nothing and is not multiplied out; every
    # other row still is, so a nonzero product behind a zero row is refused
    C = truncated_complex(build(TORUS3), 6)
    calls = []
    check = linalg._annihilates
    monkeypatch.setattr(linalg, "_annihilates",
                        lambda z, rows: calls.append(z) or check(z, rows))
    ChainComplexQ(C.bases, C.d)
    rows = [row for M in C.d[1:-1] for row in M.rows]
    assert (len(calls), len(rows)) == (1260, 2444)
    assert calls == [row for row in rows if row]
    with pytest.raises(ValueError):
        ChainComplexQ([["a", "z"], ["b"], ["c"]], [None, mat([[0], [1]]), mat([[1]])])


def test_class_rank_and_carry():
    X = build("sphere:1")
    N = chain_complex(X)
    dims = homology_dims(N)
    for k in range(N.top + 1):
        assert class_rank(N, k, cycles(N, k)) == dims[k]
        assert class_rank(N, k, carry(N, k, cycles(N, k), N)) == dims[k]
    # boundaries are zero classes
    assert class_rank(N, 0, columns(N.d[1])) == 0
    G = truncated_complex(X, 1)
    vertex = carry(G, 0, [{0: Q(1)}], N, lambda cid: ((0, cid), (), ()))
    assert class_rank(G, 0, vertex) == 1
    with pytest.raises(KeyError):
        carry(G, 1, [{0: Q(1)}], N, lambda cid: ((1, cid), (5,), (1,)))


@pytest.mark.parametrize("expr", ["boundary:3", "product:(sphere:1,sphere:1)"])
def test_filtered_reduction_matches_class_rank(expr):
    # with weights as stages F_a is G_a, so each persistent Betti number is
    # the rank of the carried cycles of G_a among the classes of G_b
    X = build(expr)
    top = X.top_dim
    G = [truncated_complex(X, w) for w in range(top + 4)]
    stages = [[sum(e) + len(S) for _, e, S in labels] for labels in G[-1].bases]
    F = FilteredReduction(G[-1], stages)
    for a in range(top + 4):
        z = [cycles(G[a], k) for k in range(top + 1)]
        for b in range(a, top + 4):
            for k in range(top + 1):
                want = class_rank(G[b], k, carry(G[b], k, z[k], G[a]))
                assert F.betti(k, a, b) == want, (a, b, k)


def _report_filtration(expr, D):
    """``G_{D+3}``, the stages ``homology_report(X, D)`` gives its labels, and its certificates."""
    X = build(expr)
    N = chain_complex(X)
    phi = {_phi_label(k, cid) for k in range(X.top_dim + 1) for cid in N.bases[k]}
    G = truncated_complex(X, D + 3)
    stages = [[-1 if lab in phi else sum(lab[1]) + k for lab in labels]
              for k, labels in enumerate(G.bases)]
    return G, stages, _unit_certificates(X, G.bases[0], X.top_dim + D + 3)


_ORACLE_CASES = ([(expr, build(expr).top_dim + extra)
                  for expr in CORPUS for extra in (0, 1)]
                 + [(TORUS3, 3), ("boundary:4", 3), ("sphere:3", 3), ("delta:4", 4),
                    (TWO_INTERVALS, 1), ("product:(sphere:2,sphere:1)", 3)])


@pytest.mark.parametrize("expr,D", _ORACLE_CASES)
def test_filtered_reduction_matches_homology_side_oracle(expr, D):
    G, stages, certs = _report_filtration(expr, D)
    weights = [[sum(e) + len(S) for _, e, S in labels] for labels in G.bases]
    for st in (stages, weights):
        # every certificate passes its check, Fraction entries or not
        assert None not in [linalg._certified(z, G.d[1].rows, st[0]) for _, z in certs]
        pairs = FilteredReduction(G, st, certs).pairs
        want = filtered_reduction_oracle(G, st)
        assert len(pairs) == len(want) == G.top + 2
        for k in range(G.top + 2):
            assert sorted(pairs[k]) == sorted(want[k]), k


@pytest.mark.parametrize("expr,D", _ORACLE_CASES)
def test_pivots_by_row_index_match_the_eager_copies(expr, D):
    # the product of two spheres has degenerate faces: its kernels are pushed
    G, stages, certs = _report_filtration(expr, D)
    weights = [[sum(e) + len(S) for _, e, S in labels] for labels in G.bases]
    for st, cs in ((stages, certs), (weights, ())):
        assert FilteredReduction(G, st, cs).pairs == eager_reduction_pairs(G, st, cs)


def test_an_emergent_pivot_is_built_on_first_use_only(monkeypatch):
    # sphere:2 at D=2 pairs all 44 columns as read, and no column reduces:
    # no pivot is built, where the eager loop copies all 44
    G, stages, certs = _report_filtration("sphere:2", 2)
    built = []
    with monkeypatch.context() as m:
        _counting(m, "_primitive", built)
        pairs = FilteredReduction(G, stages, certs).pairs
        assert built == [] and sum(map(len, pairs)) == 44
        assert eager_reduction_pairs(G, stages, certs) == pairs
        assert len(built) == 44
    # the 3-torus at D=3: a pivot built outside _cancel is built once,
    # the 179 reduced ones as they pair and 433 of the 981 emergent ones
    G, stages, certs = _report_filtration(TORUS3, 3)
    built, cancelling = [], []
    primitive, cancel = linalg._primitive, linalg._cancel

    def counted(ints):
        if not cancelling:
            built.append(tuple(ints.items()))
        return primitive(ints)

    def flagged(*args):
        cancelling.append(True)
        try:
            return cancel(*args)
        finally:
            cancelling.pop()

    with monkeypatch.context() as m:
        m.setattr(linalg, "_primitive", counted)
        m.setattr(linalg, "_cancel", flagged)
        pairs = FilteredReduction(G, stages, certs).pairs
    assert sum(map(len, pairs)) == 1160
    assert len(set(built)) == len(built) == 179 + 433


@pytest.mark.parametrize("expr", ["sphere:4", TORUS4])
def test_certificates_keep_the_pairs_of_the_heavy_spaces(expr):
    # the certified column is the long one here; skipping it changes no pair
    G, stages, certs = _report_filtration(expr, 4)
    assert len(certs) == 1
    with_certs = FilteredReduction(G, stages, certs).pairs
    assert with_certs == FilteredReduction(G, stages).pairs


def _counting(monkeypatch, name, calls):
    """Wrap ``linalg.<name>`` to append each call's result to ``calls``."""
    real = getattr(linalg, name)
    monkeypatch.setattr(linalg, name,
                        lambda *args: calls.append(real(*args)) or calls[-1])


def test_a_broken_certificate_skips_nothing(monkeypatch):
    G, stages, certs = _report_filtration(TORUS3, 3)
    (_, z), = certs
    broken = dict(z)
    i = next(iter(broken))
    broken[i] += 1
    runs = {}
    for name, cs in (("none", ()), ("good", certs), ("broken", [(0, broken)])):
        checked, reduced = [], []
        with monkeypatch.context() as m:
            _counting(m, "_certified", checked)
            _counting(m, "_reduce", reduced)
            runs[name] = FilteredReduction(G, stages, cs).pairs, checked, len(reduced)
    assert runs["good"][1] == [0] and runs["broken"][1] == [None]
    # the column the good certificate skips is reduced again, step for step
    assert runs["broken"][2] == runs["none"][2] > runs["good"][2]
    assert runs["broken"][0] == runs["good"][0] == runs["none"][0]


def test_the_certified_cell_is_least_by_stage_then_index():
    # lift the first vertex of the interval to stage 1: the column the
    # cocycle proves to vanish is then the second vertex's, not the first's
    G, _, certs = _report_filtration("delta:1", 1)
    (_, z), = certs
    weights = [[sum(e) + len(S) for _, e, S in labels] for labels in G.bases]
    weights[0][0] = 1
    assert G.bases[0][1] == ((0, "1"), (), ())
    assert linalg._certified(z, G.d[1].rows, weights[0]) == 1
    pairs = FilteredReduction(*in_stage_order(G, weights, certs)).pairs
    want = filtered_reduction_oracle(G, weights)
    assert [sorted(p) for p in pairs] == [sorted(p) for p in want]


def test_cells_out_of_stage_order_are_refused():
    # the cells of each degree must come in filtration order: a vertex
    # lifted to stage 1 ahead of stage-0 cells is refused, and so is the
    # last degree-1 cell lowered to stage 0
    G, _, certs = _report_filtration("delta:1", 1)
    weights = [[sum(e) + len(S) for _, e, S in labels] for labels in G.bases]
    weights[0][0] = 1
    with pytest.raises(ValueError) as exc:
        FilteredReduction(G, weights, certs)
    assert str(exc.value) == "the cells of degree 0 are not in stage order"
    weights[0][0] = 0
    weights[1][-1] = 0
    with pytest.raises(ValueError) as exc:
        FilteredReduction(G, weights)
    assert str(exc.value) == "the cells of degree 1 are not in stage order"


def test_each_component_certifies_its_least_vertex(monkeypatch):
    G, stages, certs = _report_filtration(TWO_INTERVALS, 1)
    assert len(certs) == 2
    vertices = [i for i, s in enumerate(stages[0]) if s == -1]
    assert len(vertices) == 4
    counts = []
    for cs in ((), certs[:1], certs):
        checked, reduced = [], []
        with monkeypatch.context() as m:
            _counting(m, "_certified", checked)
            _counting(m, "_reduce", reduced)
            FilteredReduction(G, stages, cs)
        counts.append(len(reduced))
    # the vertices are [0]x[0], [0]x[1], [1]x[0], [1]x[1]: each interval
    # certifies its first, and each skipped column saves its steps
    assert sorted(checked) == [vertices[0], vertices[2]]
    assert counts[0] > counts[1] > counts[2], counts


def test_filtered_reduction_updates_fewer_columns_than_oracle(monkeypatch):
    # the certified coboundary reduction with clearing makes 903 column
    # updates on the 3-torus at D=3 (1,325 without the certificate); the
    # boundary-side oracle makes 27,061
    G, stages, certs = _report_filtration(TORUS3, 3)
    reduced, cancelled = [], []
    with monkeypatch.context() as m:
        _counting(m, "_reduce", reduced)
        FilteredReduction(G, stages, certs)
    with monkeypatch.context() as m:
        _counting(m, "_cancel", cancelled)
        filtered_reduction_oracle(G, stages)
    assert 0 < 10 * len(reduced) < len(cancelled), (len(reduced), len(cancelled))


_INTEGRAL_CASES = ([(expr, build(expr).top_dim + extra)
                    for expr in CORPUS for extra in (3, 4)]
                   + [(TORUS3, 6), ("product:(sphere:2,sphere:2)", 5), ("sphere:3", 6)])
# (nnz, Fraction entries in the label basis): the 3-torus has no degenerate
# face, and sphere:2 pushes along its collapsed faces
_LABEL_BASIS_ENTRIES = {(TORUS3, 6): (9838, 0), ("sphere:2", 5): (172, 36)}


@pytest.mark.parametrize("expr,W", _INTEGRAL_CASES)
def test_truncated_complex_is_integral(expr, W):
    # no entry is a Fraction, the oracle's label-basis complex rescaled by
    # the lambda it implies is the output entry by entry, and both reduce to
    # the same pairs
    X = build(expr)
    G, want = truncated_complex(X, W), truncated_complex_oracle(X, W)
    entries = [v for M in G.d[1:] for row in M.rows for v in row.values()]
    assert {type(v) for v in entries} <= {int}
    assert G.bases == want.bases
    assert [M.rows for M in G.d[1:]] == lambda_rows(want)[1:]
    if (expr, W) in _LABEL_BASIS_ENTRIES:
        label_entries = [v for M in want.d[1:] for row in M.rows for v in row.values()]
        assert (len(entries), sum(type(v) is not int for v in label_entries)) == (
            _LABEL_BASIS_ENTRIES[expr, W])
    weights = [[sum(e) + len(S) for _, e, S in labels] for labels in G.bases]
    pairs = FilteredReduction(G, weights).pairs
    assert [sorted(p) for p in pairs] == [
        sorted(p) for p in filtered_reduction_oracle(want, weights)]


def test_homology_dims_known_spaces():
    for expr, want in [("sphere:1", (1, 1)), ("boundary:3", (1, 0, 1)),
                       ("delta:2", (1, 0, 0)),
                       ("product:(sphere:1,sphere:1)", (1, 2, 1))]:
        N = chain_complex(build(expr))
        assert homology_dims(N) == want
        F = FilteredReduction(N, [[0] * N.dim(k) for k in range(N.top + 1)])
        assert tuple(F.betti(k, 0, 0) for k in range(N.top + 1)) == want


def test_cycles_are_cycles():
    C = chain_complex(build("boundary:2"))
    for k in range(1, C.top + 1):
        assert all(annihilates(C.d[k], z) for z in cycles(C, k))


def test_induced_image_identity_and_zero():
    C = chain_complex(build("sphere:1"))
    dims = homology_dims(C)
    for k in range(C.top + 1):
        z = cycles(C, k)
        assert class_rank(C, k, carry(C, k, z, C)) == dims[k]
        assert class_rank(C, k, [{} for _ in z]) == 0


def _phi_label(k, cid):
    return ((k, cid), (0,) * k, tuple(range(1, k + 1)))


def _is_subcomplex(C, Cp, label=lambda k, lab: lab):
    """Whether relabelling ``C`` into ``Cp`` commutes with the boundaries."""
    for k in range(1, C.top + 1):
        image = carry(Cp, k - 1, columns(C.d[k]), C,
                      lambda lab: label(k - 1, lab))
        pos = {lab: j for j, lab in enumerate(Cp.bases[k])}
        cols = columns(Cp.d[k])
        if image != [cols[pos[label(k, lab)]] for lab in C.bases[k]]:
            return False
    return True


def test_truncation_inclusion_image():
    # weight-1 into weight-3 truncation over the circle, degree 0
    X = build("sphere:1")
    C = truncated_complex(X, 1)
    Cp = truncated_complex(X, 3)
    assert _is_subcomplex(C, Cp)
    assert class_rank(Cp, 0, carry(Cp, 0, cycles(C, 0), C)) == 1


def test_quasi_iso_check_phi():
    # the embedding of simplicial chains is an iso onto the stabilized
    # homology of the weight truncations
    for expr, iso_degrees in [("delta:2", (0, 1, 2)), ("sphere:1", (0, 1))]:
        X = build(expr)
        N = chain_complex(X)
        D = X.top_dim
        G = truncated_complex(X, D)
        Gp = truncated_complex(X, D + 2)
        assert _is_subcomplex(N, G, _phi_label) and _is_subcomplex(G, Gp)
        dims_N = homology_dims(N)
        for k in iso_degrees:
            via_N = carry(Gp, k, cycles(N, k), N, lambda cid: _phi_label(k, cid))
            via_G = carry(Gp, k, cycles(G, k), G)
            # injective from N, and onto the image of H(G_D)
            assert (class_rank(Gp, k, via_N) == dims_N[k]
                    == class_rank(Gp, k, via_G)
                    == class_rank(Gp, k, via_N + via_G)), (expr, k)
