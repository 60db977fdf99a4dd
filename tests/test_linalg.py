"""Exact sparse linear algebra and chain-complex reports."""

import random

import pytest

from simplicial_derham.rationals import Q
from simplicial_derham import linalg
from simplicial_derham.linalg import (
    QMatrix, ChainComplexQ, FilteredReduction, rank, kernel_basis, solve,
    check_chain_map, induced_image_dims, quasi_iso_check,
)
from simplicial_derham.sset import build
from simplicial_derham.phiglobal import truncated_complex
from simplicial_derham.verify import CORPUS

from homology_oracle import carry, filtered_reduction_oracle

TORUS3 = "product:(product:(sphere:1,sphere:1),sphere:1)"


def mat(rows):
    m = QMatrix(len(rows), len(rows[0]) if rows else 0)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            m.set(i, j, Q(v))
    return m


def rand_matrix(rng, nrows, ncols, density=0.4):
    m = QMatrix(nrows, ncols)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                m.set(i, j, Q(rng.randint(-5, 5), rng.randint(1, 4)))
    return m


def _subtract_multiple(row, e, prow):
    for j, v in prow.items():
        nv = row.get(j, Q(0)) - e * v
        if nv:
            row[j] = nv
        else:
            row.pop(j, None)


def _rational_echelon(M):
    """Reference oracle: reduced row echelon form over Q as ``[(pivot col, row)]``.

    The elimination the fraction-free ``linalg._echelon`` replaced; rows
    are sorted by pivot column, each pivot is 1, and each pivot column is
    zero in every other row.
    """
    pivots = []
    for row in (dict(r) for r in M.rows if r):
        for pcol, prow in pivots:
            e = row.get(pcol)
            if e:
                _subtract_multiple(row, e, prow)
        if row:
            pcol = min(row)
            pe = row[pcol]
            pivots.append((pcol, {j: Q(v) / pe for j, v in row.items()}))
    pivots.sort(key=lambda t: t[0])
    for idx in range(len(pivots) - 1, -1, -1):
        pcol, prow = pivots[idx]
        for _, above in pivots[:idx]:
            e = above.get(pcol)
            if e:
                _subtract_multiple(above, e, prow)
    return pivots


def _oracle_kernel(M):
    pivots = _rational_echelon(M)
    pivot_set = {pc for pc, _ in pivots}
    basis = []
    for free in range(M.ncols):
        if free in pivot_set:
            continue
        vec = {free: Q(1)}
        for pc, prow in pivots:
            if prow.get(free):
                vec[pc] = -prow[free]
        basis.append(vec)
    return basis


def test_rank_examples():
    assert rank(mat([[1, 1], [1, 1]])) == 1
    assert rank(mat([[1, 0], [0, 1]])) == 2
    assert rank(mat([[0, 0], [0, 0]])) == 0
    assert rank(mat([[2, 4, 6], [1, 2, 3], [0, 1, 1]])) == 2


def test_rank_ignores_explicit_zeros():
    assert rank([{0: Q(0)}]) == 0
    assert rank([{0: Q(0), 1: Q(2)}, {1: Q(1)}]) == 1
    assert rank([]) == 0


def test_rank_pivot_strategies_agree():
    # fraction-free rank, on the rows in either order, against the pivot
    # count of the rational echelon oracle
    rng = random.Random(101)
    for _ in range(100):
        nrows = rng.randint(1, 30)
        ncols = rng.randint(1, 30)
        m = rand_matrix(rng, nrows, ncols, density=rng.uniform(0.05, 0.5))
        r = rank(m)
        assert r == rank(m.rows[::-1])
        assert r == len(_rational_echelon(m))
        assert kernel_basis(m) == _oracle_kernel(m)


@pytest.mark.parametrize("expr", CORPUS)
def test_kernel_basis_matches_rational_oracle(expr):
    X = build(expr)
    C = truncated_complex(X, X.top_dim + 2)
    for k in range(1, C.top + 1):
        assert kernel_basis(C.d[k]) == _oracle_kernel(C.d[k]), k


def test_kernel_basis_spans_kernel():
    rng = random.Random(103)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        ker = kernel_basis(m)
        for v in ker:
            assert all(c == 0 for c in m.apply(v).values())
        assert rank(m) + len(ker) == m.ncols
        assert rank(ker) == len(ker)


def test_solve_round_trip():
    rng = random.Random(107)
    solved = 0
    for _ in range(60):
        m = rand_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        x_true = {j: Q(rng.randint(-3, 3)) for j in range(m.ncols)
                  if rng.random() < 0.6}
        b = m.apply(x_true)
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == b
        solved += 1
    assert solved == 60


def test_solve_detects_inconsistency():
    m = mat([[1, 1], [1, 1]])
    assert solve(m, {0: Q(1), 1: Q(2)}) is None


def test_matrix_multiply():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert a.mul(b) == mat([[2, 1], [4, 3]])


def test_boundary_squared_enforced():
    good = ChainComplexQ(
        [["v0", "v1"], ["e"]],
        [None, mat([[-1], [1]])],
    )
    assert good.homology_dims() == (1, 0)
    with pytest.raises(ValueError):
        ChainComplexQ(
            [["a"], ["b"], ["c"]],
            [None, mat([[1]]), mat([[1]])],
        )


def test_homology_dims_ranks_each_boundary_once(monkeypatch):
    calls = []
    real = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda M: calls.append(M) or real(M))
    C = build("boundary:3").chain_complex()
    assert C.homology_dims() == (1, 0, 1)
    assert C.homology_dims() == (1, 0, 1)
    assert len(calls) == 2


def test_class_rank_and_carry():
    X = build("sphere:1")
    N = X.chain_complex()
    dims = N.homology_dims()
    for k in range(N.top + 1):
        assert N.class_rank(k, N.cycles(k)) == dims[k]
        assert N.class_rank(k, carry(N, k, N.cycles(k), N)) == dims[k]
    # boundaries are zero classes
    assert N.class_rank(0, N.boundary(1).columns()) == 0
    G = truncated_complex(X, 1)
    vertex = carry(G, 0, [{0: Q(1)}], N, lambda cid: ((0, cid), (), ()))
    assert G.class_rank(0, vertex) == 1
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
        cycles = [G[a].cycles(k) for k in range(top + 1)]
        for b in range(a, top + 4):
            for k in range(top + 1):
                want = G[b].class_rank(k, carry(G[b], k, cycles[k], G[a]))
                assert F.betti(k, a, b) == want, (a, b, k)


def _report_filtration(expr, D):
    """``G_{D+3}`` and the stages ``homology_report(X, D)`` gives its labels."""
    X = build(expr)
    N = X.chain_complex()
    phi = {_phi_label(k, cid) for k in range(X.top_dim + 1) for cid in N.bases[k]}
    G = truncated_complex(X, D + 3)
    return G, [[-1 if lab in phi else sum(lab[1]) + k for lab in labels]
               for k, labels in enumerate(G.bases)]


_ORACLE_CASES = ([(expr, build(expr).top_dim + extra)
                  for expr in CORPUS for extra in (0, 1)]
                 + [(TORUS3, 3), ("boundary:4", 3), ("sphere:3", 3), ("delta:4", 4)])


@pytest.mark.parametrize("expr,D", _ORACLE_CASES)
def test_filtered_reduction_matches_homology_side_oracle(expr, D):
    G, stages = _report_filtration(expr, D)
    weights = [[sum(e) + len(S) for _, e, S in labels] for labels in G.bases]
    for st in (stages, weights):
        pairs = FilteredReduction(G, st).pairs
        want = filtered_reduction_oracle(G, st)
        assert len(pairs) == len(want) == G.top + 2
        for k in range(G.top + 2):
            assert sorted(pairs[k]) == sorted(want[k]), k


def test_filtered_reduction_updates_fewer_columns_than_oracle(monkeypatch):
    # the coboundary reduction with clearing makes 1,325 column updates on
    # the 3-torus at D=3; the boundary-side oracle makes 27,061
    G, stages = _report_filtration(TORUS3, 3)
    counts = {"reduce": 0, "cancel": 0}

    def counting(name, real):
        def wrapped(*args):
            counts[name] += 1
            return real(*args)
        return wrapped

    with monkeypatch.context() as m:
        m.setattr(linalg, "_reduce", counting("reduce", linalg._reduce))
        FilteredReduction(G, stages)
    with monkeypatch.context() as m:
        m.setattr(linalg, "_cancel", counting("cancel", linalg._cancel))
        filtered_reduction_oracle(G, stages)
    assert 0 < 10 * counts["reduce"] < counts["cancel"], counts


def test_homology_dims_known_spaces():
    s1 = build("sphere:1").chain_complex()
    assert tuple(s1.homology_dims()) == (1, 1)
    bd3 = build("boundary:3").chain_complex()
    assert tuple(bd3.homology_dims()) == (1, 0, 1)
    d2 = build("delta:2").chain_complex()
    assert tuple(d2.homology_dims()) == (1, 0, 0)
    torus = build("product:(sphere:1,sphere:1)").chain_complex()
    assert tuple(torus.homology_dims()) == (1, 2, 1)


def test_cycles_are_cycles():
    C = build("boundary:2").chain_complex()
    for k in range(C.top + 1):
        for z in C.cycles(k):
            if k > 0:
                img = C.boundary(k).apply(z)
                assert all(c == 0 for c in img.values())


def _identity_maps(C):
    out = []
    for k in range(C.top + 1):
        m = QMatrix(C.dim(k), C.dim(k))
        for j in range(C.dim(k)):
            m.set(j, j, 1)
        out.append(m)
    return out


def _zero_maps(C):
    return [QMatrix(C.dim(k), C.dim(k)) for k in range(C.top + 1)]


def test_induced_image_identity_and_zero():
    C = build("sphere:1").chain_complex()
    ident = _identity_maps(C)
    zero = _zero_maps(C)
    dims = C.homology_dims()
    for k in range(C.top + 1):
        assert induced_image_dims(ident, C, C, k) == dims[k]
        assert induced_image_dims(zero, C, C, k) == 0


def test_induced_image_rejects_non_chain_map():
    # on the interval the boundary is nonzero, so a lone scaling breaks it
    C = build("delta:1").chain_complex()
    bad = _identity_maps(C)
    bad[1].set(0, 0, Q(2))
    with pytest.raises(ValueError):
        induced_image_dims(bad, C, C, 0)


def _label_maps(C, Cp, label=lambda k, lab: lab):
    """0/1 maps sending each basis label of ``C`` to its label in ``Cp``."""
    out = []
    for k in range(C.top + 1):
        m = QMatrix(Cp.dim(k), C.dim(k))
        for col, lab in enumerate(C.bases[k]):
            m.set(Cp.index[k][label(k, lab)], col, 1)
        out.append(m)
    return out


def _phi_label(k, cid):
    return ((k, cid), (0,) * k, tuple(range(1, k + 1)))


def test_truncation_inclusion_image():
    # weight-1 into weight-3 truncation over the circle, degree 0
    X = build("sphere:1")
    C = truncated_complex(X, 1)
    Cp = truncated_complex(X, 3)
    inc_list = _label_maps(C, Cp)
    assert check_chain_map(inc_list, C, Cp) is None
    assert induced_image_dims(inc_list, C, Cp, 0) == 1
    assert Cp.class_rank(0, carry(Cp, 0, C.cycles(0), C)) == 1


def test_quasi_iso_check_phi():
    # the embedding of simplicial chains is an iso onto the stabilized
    # homology of the weight truncations
    for expr, iso_degrees in [("delta:2", (0, 1, 2)), ("sphere:1", (0, 1))]:
        X = build(expr)
        N = X.chain_complex()
        D = X.top_dim
        G = truncated_complex(X, D)
        Gp = truncated_complex(X, D + 2)
        fmaps = _label_maps(N, G, _phi_label)
        inc_list = _label_maps(G, Gp)
        report = quasi_iso_check(fmaps, N, G, k_range=range(N.top + 1),
                                 through=inc_list, Cpp=Gp)
        for k in iso_degrees:
            assert report[k]["iso"], (expr, k, report[k])
            # the same comparison through carry and class_rank
            image = Gp.class_rank(k, carry(Gp, k, N.cycles(k), N,
                                           lambda cid: _phi_label(k, cid)))
            assert image == report[k]["image_dim"], (expr, k)
