"""Reference paths for the truncations and the homology report.

``canonical_terms`` and ``phi_boundary_oracle`` are the per-term boundary
path: ``canonical_terms`` rewrites a simplex times a ``PhiElt`` in split
normal form, moving each face-supported component to its face and
pushing it forward along the face's collapse, the identity included, and
``phi_boundary_oracle`` applies ``delta`` to every term of a chain and
hands the result to ``canonical_terms``.  Nothing here reads the
library's kernel caches, which ``phi_boundary`` and ``truncated_complex``
share.

``truncated_complex_oracle`` assembles G_W label by label: it takes the
boundary of every basis label with ``phi_boundary_oracle``, which
recomputes the local boundary and every face pushforward for each
simplex.  It lists the monomials of each simplex afresh, so it also pins
the basis order.  The library enumerates each monomial block once and
assembles the same matrices one local key at a time.

``filtered_reduction_oracle`` finds the pairs of ``FilteredReduction`` on
the homology side: it reduces each boundary ``d_k`` itself, columns in
stage order, from the top degree down.  The library reduces the
coboundaries instead and must find the same pairs.

``_row_echelon`` is Gaussian elimination over Q with each pivot scaled to
1, independent of the fraction-free elimination in ``linalg``, and
``_rational_echelon`` back-substitutes it to the reduced form.  On them
rest ``rank``, ``_oracle_kernel``, ``cycles``, ``homology_dims`` and
``class_rank`` (the dimension of the span of some cycles' classes in
homology); ``columns`` reads a sparse matrix by column, and ``carry``
rewrites vectors from one labelled basis into another.

``homology_report_oracle`` is the report computed the direct way.  It builds
the truncations G_D, G_{D+2}, G_{D+1} and G_{D+3} one by one with
``truncated_complex_oracle``, carries cycle bases into the larger one by
relabelling, and ranks classes with ``class_rank``.  The library computes
the same numbers from one filtered reduction of G_{D+3}.  The tests compare
the two.

``product_oracle`` builds a product the direct way: every cell computes
each of its faces by ``apply_map`` on both factors and a
``product_simplex`` lookup, and stores its own simplices.  The library
builds each face once per level and shares the simplices it stores; the
tests compare cell order, ``face_table``, ``pair_of`` and ``ref_of_pair``.

``from_poly``, ``dt`` and ``interior_ds`` are form helpers that only the
tests use: a function as a 0-form, ``dt_j`` in the ``ds`` basis, and the
contraction of a dual form by ``ds_i``.

``delta_prime_oracle``, ``contract_face_oracle`` and ``pushforward_oracle``
are the dual-form kernels built one object per step: a ``Poly`` and a
``ThetaElt`` per term, summed with ``+``, and ``t_0`` eliminated by
multiplying out ``Poly.t(n, 0)`` rather than by ``Poly.from_raw``.  The
library kernels accumulate plain term dicts and build one element per
result; they must give equal elements.  ``rand_theta`` draws their inputs.
"""

import math
from itertools import combinations

from simplicial_derham import linalg
from simplicial_derham.linalg import ChainComplexQ, QMatrix
from simplicial_derham.philocal import PhiElt, delta
from simplicial_derham.polyforms import FormElt, Poly, ThetaElt, _compositions
from simplicial_derham.rationals import Q, exact
from simplicial_derham.phiglobal import PhiChain, _phi_label
from simplicial_derham.ordmaps import face, identity, subset_incl
from simplicial_derham.sset import (SSet, DegSimplex, _pair_key, _paths,
                                    _path_to_surjections, product_simplex)


def canonical_terms(X, simplex, a):
    """The chain ``simplex`` times the ``PhiElt`` ``a``, in split normal form.

    ``simplex`` is a Ref or DegSimplex of dimension matching the ambient
    size of ``a``.  Face-supported components move to the corresponding
    face of the simplex; a degenerate carrier then hands its data forward
    along the collapse, which may kill wedge parts.
    """
    if not isinstance(simplex, DegSimplex):
        simplex = DegSimplex(identity(simplex[0]), simplex)
    m = simplex.surj.dom
    if a.n != m:
        raise ValueError("element size does not match the simplex dimension")
    out = {}
    for J, beta in a.comps.items():
        if len(J) == m + 1:
            y = simplex
        else:
            y = X.apply_map(subset_incl(J, m), simplex)
        gamma = beta.pushforward(y.surj.values, y.surj.cod)
        for key, c in gamma.terms.items():
            key = (y.ref, key)
            out[key] = out.get(key, 0) + c
    return PhiChain(X, a.m, out)


def phi_boundary_oracle(c):
    """``phi_boundary(c)``: ``delta`` of every term, put in normal form."""
    out = PhiChain.zero(c.X, c.d - 1)
    for (ref, (e, S)), q in c.terms.items():
        m = ref[0]
        elt = PhiElt.include(m, range(m + 1), ThetaElt.monomial(m, e, S))
        out = out + canonical_terms(c.X, ref, delta(elt)).scale(q)
    return out


def truncated_complex_oracle(X, weight_cap):
    """``truncated_complex(X, weight_cap)``, one ``phi_boundary_oracle`` per label."""
    if weight_cap < 0:
        raise ValueError("weight bound must be nonnegative")
    top = X.top_dim
    # per simplex: by wedge subset, then weight, then exponents
    bases = [[(ref, e, S) for m in range(d, top + 1) for ref in X.nd_refs(m)
              for S in combinations(range(1, m + 1), d)
              for total in range(weight_cap - d + 1)
              for e in _compositions(total, m)] for d in range(top + 1)]
    boundaries = [None]
    for d in range(1, top + 1):
        idx = {lab: i for i, lab in enumerate(bases[d - 1])}
        mat = QMatrix(len(bases[d - 1]), len(bases[d]))
        for col, (ref, e, S) in enumerate(bases[d]):
            one = PhiChain(X, d, {(ref, (e, S)): 1})
            for (ref2, (e2, S2)), c in phi_boundary_oracle(one).terms.items():
                row = idx.get((ref2, e2, S2))
                if row is None:
                    raise ValueError(
                        "boundary left the truncation at weight %d: %r"
                        % (weight_cap, (ref2, e2, S2))
                    )
                mat.set(row, col, mat.get(row, col) + c)
        boundaries.append(mat)
    return ChainComplexQ(bases, boundaries)


def filtered_reduction_oracle(C, stages):
    """``FilteredReduction(C, stages).pairs``, found by reducing each ``d_k``.

    Columns go in ``(stage, index)`` order, the pivot of a column being its
    last row in that order; degrees go from the top down, and the column of
    a cell that is already a pivot row of ``d_{k+1}`` is skipped (clearing).
    Every column update is one ``linalg._cancel``.
    """
    pairs = [[] for _ in range(C.top + 2)]
    cleared = set()
    for k in range(C.top, 0, -1):
        below = stages[k - 1]
        rows = sorted(range(C.dim(k - 1)), key=lambda i: (below[i], i))
        pos = {i: p for p, i in enumerate(rows)}
        cols = columns(C.d[k])
        owner = {}
        for j in sorted(range(C.dim(k)), key=lambda j: (stages[k][j], j)):
            if j in cleared:
                continue
            col = linalg._int_row({pos[i]: v for i, v in cols[j].items()})
            while col:
                low = max(col)
                if low not in owner:
                    owner[low] = col
                    pairs[k].append((below[rows[low]], stages[k][j]))
                    break
                col = linalg._cancel(col, owner[low], low)
        cleared = {rows[low] for low in owner}
    return pairs


def _subtract_multiple(row, e, prow):
    for j, v in prow.items():
        nv = row.get(j, 0) - e * v
        if nv:
            row[j] = exact(nv)
        else:
            row.pop(j, None)


def _row_echelon(rows, pivots=()):
    """Row echelon form over Q of sparse rows, as ``[(pivot col, row)]``.

    Each pivot is 1, and each pivot row is zero in the pivot columns of the
    rows before it.  ``pivots``, an echelon form already found, is extended
    and not changed.
    """
    pivots = list(pivots)
    for row in (dict(r) for r in rows if r):
        for pcol, prow in pivots:
            e = row.get(pcol)
            if e:
                _subtract_multiple(row, e, prow)
        if row:
            pcol = min(row)
            pe = row[pcol]
            pivots.append((pcol, {j: exact(Q(v) / pe) for j, v in row.items()}))
    return pivots


def _rational_echelon(rows):
    """Reduced row echelon form over Q of sparse rows, as ``[(pivot col, row)]``.

    Rows are sorted by pivot column, each pivot is 1, and each pivot column
    is zero in every other row.
    """
    pivots = sorted(_row_echelon(rows), key=lambda t: t[0])
    for idx in range(len(pivots) - 1, -1, -1):
        pcol, prow = pivots[idx]
        for _, above in pivots[:idx]:
            e = above.get(pcol)
            if e:
                _subtract_multiple(above, e, prow)
    return pivots


def rank(rows):
    """Rank of a list of sparse rows (dicts)."""
    return len(_row_echelon(rows))


def _oracle_kernel(M):
    """Basis of ``{x : Mx = 0}``, one vector per free column of the echelon form."""
    pivots = _rational_echelon(M.rows)
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


def columns(M):
    """The columns of a ``QMatrix`` as sparse dicts."""
    cols = [{} for _ in range(M.ncols)]
    for i, row in enumerate(M.rows):
        for j, v in row.items():
            cols[j][i] = v
    return cols


def cycles(C, k):
    """A basis of ``Z_k(C)``."""
    if k == 0:
        return [{i: Q(1)} for i in range(C.dim(0))]
    return _oracle_kernel(C.d[k])


def homology_dims(C):
    """``dim H_k = dim ker d_k - rank d_{k+1}`` for ``k = 0..top``."""
    ranks = [0] + [rank(C.d[k].rows) for k in range(1, C.top + 1)] + [0]
    return tuple(C.dim(k) - ranks[k] - ranks[k + 1] for k in range(C.top + 1))


def class_rank(C, k, vectors):
    """Dimension of the span of the classes of degree-``k`` cycles in ``H_k(C)``."""
    bounds = _row_echelon(columns(C.d[k + 1]) if k < C.top else [])
    return len(_row_echelon(vectors, bounds)) - len(bounds)


def carry(target, k, vectors, source, label=lambda lab: lab):
    """Rewrite vectors over ``source.bases[k]`` in the basis of ``target``.

    ``label`` sends a source label to its label in ``target``; a label that
    is missing there raises ``KeyError``.
    """
    idx = {lab: i for i, lab in enumerate(target.bases[k])}
    names = source.bases[k]
    return [{idx[label(names[i])]: c for i, c in v.items()} for v in vectors]


def homology_report_oracle(X, weight_cap, name=None):
    """The dict ``homology_report(X, weight_cap, name)`` returns, computed directly."""
    if name is None:
        name = getattr(X, "name", "") or "complex"
    top = X.top_dim
    N = X.chain_complex()
    n_cycles = [cycles(N, k) for k in range(top + 1)]
    reports = []
    for D in (weight_cap, weight_cap + 1):
        C = truncated_complex_oracle(X, D)
        if D == weight_cap:
            dims_GD = list(homology_dims(C))
        Cp = truncated_complex_oracle(X, D + 2)
        dims = []
        generated = True
        for k in range(top + 1):
            mapped = carry(Cp, k, cycles(C, k), C)
            nmapped = carry(Cp, k, n_cycles[k], N, _phi_label(k))
            dim = class_rank(Cp, k, mapped)
            dims.append(dim)
            if not (dim == class_rank(Cp, k, nmapped)
                    == class_rank(Cp, k, mapped + nmapped)):
                generated = False
        reports.append((dims, generated))
        del C, Cp
    (dims0, gen0), (dims1, gen1) = reports
    if dims0 != dims1:
        raise RuntimeError(
            "truncated homology did not stabilize: image dims %r at weight %d "
            "but %r at weight %d" % (dims0, weight_cap, dims1, weight_cap + 1)
        )
    return {
        "complex": name,
        "D": weight_cap,
        "dims_GD": dims_GD,
        "stable_image_dims": list(dims0),
        "matches_N": dims0 == list(homology_dims(N)) and gen0 and gen1,
    }


def product_oracle(X, Y, name=None):
    """``sset.product(X, Y, name)``, each face of each cell computed afresh."""
    P = SSet(name or "product:(%s,%s)" % (X.name, Y.name))
    P.pair_of = {}
    P.ref_of_pair = {}
    top = X.top_dim + Y.top_dim
    for k in range(top + 1):
        for xref in X.all_nd_refs():
            for yref in Y.all_nd_refs():
                p, q = xref[0], yref[0]
                for path in _paths(p, q, k):
                    zeta, xi = _path_to_surjections(path)
                    a = DegSimplex(zeta, xref)
                    b = DegSimplex(xi, yref)
                    cid = "[%s]x[%s]@%s" % (xref[1], yref[1], path)
                    faces = []
                    for i in range(k + 1) if k else ():
                        faces.append(product_simplex(
                            P, X.apply_map(face(k, i), a), Y.apply_map(face(k, i), b)))
                    ref = P.add_cell(k, cid, faces)
                    P.pair_of[ref] = (a, b)
                    P.ref_of_pair[_pair_key(a, b)] = ref
    return P


def rand_theta(rng, n, terms, degree=None, fractions=False):
    """A random ThetaElt over ``[n]`` from ``terms`` draws; ``degree=None`` mixes degrees."""
    out = {}
    for _ in range(terms):
        d = rng.randint(0, n) if degree is None else degree
        key = (tuple(rng.randint(0, 2) for _ in range(n)),
               tuple(sorted(rng.sample(range(1, n + 1), d))))
        c = Q(rng.randint(-5, 5), rng.randint(1, 4)) if fractions else rng.randint(-5, 5)
        out[key] = out.get(key, 0) + c
    return ThetaElt(n, out)


def _raw_poly(n, exps, c):
    """``c * t_0^exps[0] * ... * t_n^exps[n]`` as a Poly, multiplied out."""
    out = Poly.const(n, c)
    for i, k in enumerate(exps):
        for _ in range(k):
            out = out * Poly.t(n, i)
    return out


def from_poly(p):
    """The function ``p`` as a 0-form."""
    return FormElt(p.n, {(e, ()): c for e, c in p.terms.items()})


def dt(n, j):
    """``dt_j = ds_{j+1} - ds_j`` on ``[n]``, with out-of-range ``ds`` dropped."""
    terms = {}
    if j + 1 <= n:
        terms[((0,) * n, (j + 1,))] = 1
    if 1 <= j:
        terms[((0,) * n, (j,))] = terms.get(((0,) * n, (j,)), 0) - 1
    return FormElt(n, terms)


def interior_ds(alpha, i):
    """Contraction of the dual form ``alpha`` by ``ds_i`` (degree -1)."""
    out = {}
    for (e, S), c in alpha.terms.items():
        if i not in S:
            continue
        r = S.index(i) + 1
        S2 = tuple(x for x in S if x != i)
        sgn = -1 if r % 2 else 1  # (-1)^r
        v = out.get((e, S2), 0) + sgn * c
        if v:
            out[(e, S2)] = v
        else:
            out.pop((e, S2), None)
    return ThetaElt(alpha.n, out)


def delta_prime_oracle(a):
    """``philocal.delta_prime``: ``-sum_j i(dt_j) d/dt_j`` on every component."""
    out = PhiElt.zero(a.n, a.m - 1)
    for J, alpha in a.comps.items():
        k = alpha.n
        acc = ThetaElt.zero(k)
        for j in range(1, k + 1):
            d_j = ThetaElt.zero(k)
            for (e, S), c in alpha.terms.items():
                p = Poly(k, {e: c}).deriv(j)
                d_j = d_j + ThetaElt(k, {(ee, S): cc for ee, cc in p.terms.items()})
            # i(dt_j) = i(ds_{j+1}) - i(ds_j), with ds_{k+1} dropped
            if j + 1 <= k:
                acc = acc + interior_ds(d_j, j + 1)
            acc = acc - interior_ds(d_j, j)
        out = out + PhiElt(a.n, a.m - 1, {J: acc.scale(-1)})
    return out


def contract_face_oracle(alpha, j):
    """``alpha.contract_face(j)``, one restricted Poly per term."""
    n = alpha.n
    out = ThetaElt.zero(n - 1)
    for (e, S), c in alpha.terms.items():
        sgn, S2 = ThetaElt.contract_wedge_dt(n, S, j)
        if not sgn:
            continue
        if j == 0:
            # vertex i + 1 of [n] is vertex i of the face
            p = _raw_poly(n - 1, e, c * sgn)
        else:
            p = Poly(n, {e: c * sgn}).res_at(j)
        out = out + ThetaElt(n - 1, {(ee, S2): cc for ee, cc in p.terms.items()})
    return out


def _int_det(mat):
    """Exact determinant of a small integer matrix by cofactor expansion."""
    k = len(mat)
    if k == 0:
        return 1
    total = 0
    for j in range(k):
        if mat[0][j]:
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            total += (-1 if j % 2 else 1) * mat[0][j] * _int_det(minor)
    return total


def pushforward_oracle(alpha, values, m):
    """``alpha.pushforward(values, m)``, one pushed Poly per term.

    Monotone maps send ``w_S`` to ``w_{values(S)}`` when each index of
    ``S`` is the first of its fibre; other maps use the minors of the
    pullback matrix on ``ds``.
    """
    values = tuple(values)
    n = alpha.n
    monotone = all(a <= b for a, b in zip(values, values[1:]))
    pb_rows = []
    for i in range(1, m + 1):
        row = {}
        for a in range(n + 1):
            if values[a] < i:
                if a + 1 <= n:
                    row[a + 1] = row.get(a + 1, 0) + 1
                if a >= 1:
                    row[a] = row.get(a, 0) - 1
        pb_rows.append(row)
    first_of = {}
    for idx, v in enumerate(values):
        first_of.setdefault(v, idx)
    out = ThetaElt.zero(m)
    for (e, S), c in alpha.terms.items():
        # t^nu = nu! t^[nu] goes to nu! t^[mu] = (nu! / mu!) t^mu
        raw = (0,) + e
        mu = [-1] * (m + 1)
        for i, v in enumerate(values):
            mu[v] += raw[i] + 1
        coeff = Q(c * math.prod(math.factorial(x) for x in raw),
                  math.prod(math.factorial(x) for x in mu))
        pushed = _raw_poly(m, mu, coeff)
        targets = []
        if monotone:
            img = tuple(values[s] for s in S)
            if len(set(img)) == len(img) and all(first_of[values[s]] == s for s in S):
                targets.append((1, img))
        else:
            for T in combinations(range(1, m + 1), len(S)):
                det = _int_det([[pb_rows[t - 1].get(s, 0) for s in S] for t in T])
                if det:
                    targets.append((det, T))
        for sgn, T in targets:
            out = out + ThetaElt(m, {(ee, T): cc * sgn for ee, cc in pushed.terms.items()})
    return out
