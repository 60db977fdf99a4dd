"""Reference paths for the truncations and the homology report.

``canonical_terms`` and ``phi_boundary_oracle`` are the per-term boundary
path: ``canonical_terms`` rewrites a simplex times a ``PhiElt`` in split
normal form, moving each face-supported component to its face and
pushing it forward along the face's collapse, the identity included, and
``phi_boundary_oracle`` applies ``delta_prime_oracle`` plus
``delta_dblprime_oracle`` to every term of a chain and hands the result
to ``canonical_terms``.  Nothing here reads the library's ``delta``, which
is the linear extension of the monomial kernel under test, or its kernel
caches, which ``phi_boundary`` and ``truncated_complex`` share.

``chain_complex`` and ``boundary_matrix`` build the normalized chain
complex N of a simplicial set, the independent simplicial-homology
reference; the library never builds N, and reads ``H(N)`` off the
``phi(N)`` subcomplex of its one filtered reduction.  Like
``truncated_complex_oracle`` they write matrix entries with ``_add_entry``,
through ``exact``.

``to_jsonable`` writes a simplicial set as the ``file:`` document the
README specifies, the writer that ``SSet.from_jsonable`` is checked
against; the library only loads such documents.

``truncated_complex_oracle`` assembles G_W label by label: it takes the
boundary of every basis label with ``phi_boundary_oracle``, which
recomputes the local boundary and every face pushforward for each
simplex.  It enumerates the weight-major basis order itself (by weight,
then simplex dimension, then simplex, then wedge subset, then exponents),
so it also pins that order.  The library enumerates each monomial block
once, reads each facet entry of a block once from its kernel caches, and
places it on every simplex with that face.

``lambda_rows`` rescales the oracle's rational matrices to the integer
basis the library assembles in, with each label's lambda re-derived from
the oracle's own entries, so the two can be compared entry by entry.

``filtered_reduction_oracle`` finds the pairs of ``FilteredReduction`` on
the homology side: it reduces each boundary ``d_k`` itself, columns in
stage order, from the top degree down, each first scaled to a primitive
integer column by ``_int_row``, so it also takes rational matrices.  The
library reduces the coboundaries of ``int`` matrices instead and must find
the same pairs.  ``eager_reduction_pairs`` is that coboundary reduction as
it ran before emergent pivots were kept by row index: every pivot is stored
as a primitive copy of its column the moment it pairs, and each degree is
sorted by stage and remapped, so it takes cells in any order.

``matrix_product`` is the product of two ``QMatrix``, entries through
``exact``; the library checks ``d d = 0`` row by row without building it.

``_row_echelon`` is Gaussian elimination over Q with each pivot scaled to
1, independent of the fraction-free elimination in ``linalg``, and
``_rational_echelon`` back-substitutes it to the reduced form.  On them
rest ``rank``, ``_oracle_kernel``, ``cycles``, ``homology_dims`` and
``class_rank`` (the dimension of the span of some cycles' classes in
homology); ``columns`` reads a sparse matrix by column, and ``carry``
rewrites vectors from one labelled basis into another.

``homology_report_oracle`` is the report computed the direct way.  It builds
the truncations G_D, G_{D+2}, G_{D+1} and G_{D+3} one by one with
``truncated_complex_oracle``, and N with ``chain_complex``, carries cycle
bases into the larger one by relabelling, and ranks classes with
``class_rank``.  The library computes
the same numbers from one filtered reduction of G_{D+3}.  The tests compare
the two.

``product_oracle`` builds a product the direct way: every cell computes
each of its faces by ``apply_map`` on both factors and a
``product_simplex`` lookup, and stores its own simplices.  The library
builds each face once per level and shares the simplices it stores; the
tests compare cell order, ``face_table``, ``pair_of`` and ``ref_of_pair``.

``coordinate``, ``ds``, ``from_poly``, ``dt`` and ``interior_ds`` are
helpers that only the tests use: the coordinate ``t_i`` as a Poly, the
one-form ``ds_i``, a function as a 0-form, ``dt_j`` in the ``ds`` basis,
and the contraction of a dual form by ``ds_i``.

``de_rham_d_oracle``, ``pullback_oracle``, ``bullet_oracle``,
``delta_prime_oracle``, ``delta_dblprime_oracle``, ``push_phi_oracle``,
``contract_face_oracle`` and ``pushforward_oracle`` are the kernels built
one object per step: a ``Poly`` and a form per term, one-forms such as
``dt`` wedged with ``wedge``, summed with ``+``, and ``t_0`` eliminated by
multiplying out ``coordinate(n, 0)`` rather than by ``Poly.from_raw``.  The
library runs each map on forms, and ``delta``, as the linear extension of
a cached rule per monomial on plain term dicts; each builds one element
per result, and they must give equal elements.
``rand_theta`` draws their inputs.

``poly_pullback_uncached``, ``poly_pushforward_uncached``,
``form_pullback_uncached``, ``bullet_uncached`` and
``theta_pushforward_uncached`` are the library's transfers without the
cache of kernels per (vertex map, monomial): the same per-monomial rules
(``polyforms._pullback``, ``_push``, ``_form_pullback``, which ``bullet``
reads too, and ``_theta_push``), run on each of an element's terms and
summed, on every call.  ``big_pair_oracle`` and
``global_pair_oracle`` are the pairings the old way: restrict the form to
each face (``form_pullback_uncached``), pair it with ``ThetaElt.pair``,
which eliminates ``t_0``, and integrate with ``integrate_oracle``; the
library sums each face in one closed form, ``polyforms.pair_integral``.

``integrate_oracle`` is the integral summed one ``Fraction`` per term,
``c * prod(nu!) / (n + |nu|)!``; the library sums integer numerators over
one common denominator.

``monomial_boundary_oracle`` is ``polyforms._monomial_boundary`` through
the generic term-dict rules, with no wedge table: ``delta'`` through
``polyforms._deriv`` and this module's own interior product
``contract_dt`` into one term dict, and each facet with the sign of the
case table ``contract_wedge_dt`` below and the restriction written as the
pullback along ``ordmaps.face``, not through the library's face rule,
which reads ``_monomial_boundary`` itself.  The library reads its wedge side off
``polyforms._boundary_wedges`` and writes the coefficient side straight
from the exponents; it must give the same entries in the same order.

``contract_wedge_dt`` is the face contraction's sign written out case by
case: ``(sign, S')`` for ``dt_j`` contracted into ``w_S`` on the face
``[n] - {j}``.  The library derives it from the interior product and the
transfer along a degeneracy; ``contract_face_oracle`` reads this table, so
it does not check the library against itself.  ``contract_dt`` is the
interior product ``i(dt_j) w_S`` written from ``dt_j = ds_{j+1} - ds_j``.
"""

import math
from itertools import combinations

from simplicial_derham import linalg
from simplicial_derham.linalg import ChainComplexQ, QMatrix
from simplicial_derham.philocal import PhiElt
from simplicial_derham.polyforms import (FormElt, Poly, ThetaElt, _compositions, _deriv,
                                        _form_pullback, _pullback, _push, _surjection,
                                        _theta_push)
from simplicial_derham.rationals import Q, exact
from simplicial_derham.phiglobal import PhiChain
from simplicial_derham.ordmaps import OrdMap, face, identity
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
            y = X.apply_map(OrdMap(J, cod=m), simplex)
        gamma = beta.pushforward(y.surj.values, y.surj.cod)
        for key, c in gamma.terms.items():
            key = (y.ref, key)
            out[key] = out.get(key, 0) + c
    return PhiChain(X, a.m, out)


def phi_boundary_oracle(c):
    """``phi_boundary(c)``: the object-level ``delta`` of every term, in normal form."""
    out = PhiChain.zero(c.X, c.d - 1)
    for (ref, (e, S)), q in c.terms.items():
        m = ref[0]
        elt = PhiElt.include(m, range(m + 1), ThetaElt.monomial(m, e, S))
        bnd = delta_prime_oracle(elt) + delta_dblprime_oracle(elt)
        out = out + canonical_terms(c.X, ref, bnd).scale(q)
    return out


def _add_entry(mat, i, j, c):
    """Add ``c`` to entry ``(i, j)`` of ``mat`` through ``exact``; a zero sum is dropped."""
    v = exact(mat.rows[i].get(j, 0) + c)
    if v:
        mat.rows[i][j] = v
    else:
        mat.rows[i].pop(j, None)


def truncated_complex_oracle(X, weight_cap):
    """``truncated_complex(X, weight_cap)``, one ``phi_boundary_oracle`` per label."""
    if weight_cap < 0:
        raise ValueError("weight bound must be nonnegative")
    top = X.top_dim
    # by weight, then dimension, then simplex, then wedge subset, then exponents
    bases = [[(ref, e, S) for total in range(weight_cap - d + 1)
              for m in range(d, top + 1) for ref in X.nd_refs(m)
              for S in combinations(range(1, m + 1), d)
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
                _add_entry(mat, row, col, c)
        boundaries.append(mat)
    return ChainComplexQ(bases, boundaries)


def lambda_rows(C):
    """The rows of each ``C.d[k]`` in the label basis rescaled by lambda.

    lambda is re-derived from ``C`` itself, in ``Fraction`` arithmetic: 1 on
    every label of degree 0, and in degree ``k`` the lcm of the denominators
    of a label's column of ``d_k``, each entry first divided by the lambda
    of its row label.  Entry ``(i, j)`` becomes ``lambda_j / lambda_i`` times
    itself.  ``lambda_rows(C)[0]`` is None, like ``C.d[0]``.
    """
    lams, out = [1] * C.dim(0), [None]
    for k in range(1, C.top + 1):
        cols = columns(C.d[k])
        new = [math.lcm(*[(Q(v) / lams[i]).denominator for i, v in col.items()])
               for col in cols]
        out.append([{j: exact(Q(v) * new[j] / lams[i]) for j, v in row.items()}
                    for i, row in enumerate(C.d[k].rows)])
        lams = new
    return out


def _int_row(row):
    """Scale a rational row to a primitive integer row (empty if it is zero)."""
    lcm = math.lcm(*[v.denominator for v in row.values()])
    return linalg._primitive({j: v.numerator * (lcm // v.denominator)
                              for j, v in row.items() if v})


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
            col = _int_row({pos[i]: v for i, v in cols[j].items()})
            while col:
                low = max(col)
                if low not in owner:
                    owner[low] = col
                    pairs[k].append((below[rows[low]], stages[k][j]))
                    break
                col = linalg._cancel(col, owner[low], low)
        cleared = {rows[low] for low in owner}
    return pairs


def eager_reduction_pairs(C, stages, certificates=()):
    """``FilteredReduction(C, stages, certificates).pairs``, each pivot copied when it pairs."""
    pairs = [[] for _ in range(C.top + 2)]
    cleared = set()
    for k in range(C.top):
        here, above = stages[k], stages[k + 1]
        rows = C.d[k + 1].rows
        cleared |= {linalg._certified(z, rows, here)
                    for kz, z in certificates if kz == k} - {None}
        cofaces = sorted(range(C.dim(k + 1)), key=above.__getitem__)
        pos = sorted(range(len(cofaces)), key=cofaces.__getitem__)
        owner = {}
        for j in reversed(sorted(range(C.dim(k)), key=here.__getitem__)):
            row = rows[j]
            if not row or j in cleared:
                continue
            col = {pos[i]: v for i, v in row.items() if v}
            while col:
                low = min(col)
                if low not in owner:
                    owner[low] = linalg._primitive(col)
                    pairs[k + 1].append((here[j], above[cofaces[low]]))
                    break
                col = linalg._reduce(col, owner[low], low)
        cleared = {cofaces[low] for low in owner}
    return pairs


def matrix_product(a, b):
    """The ``QMatrix`` ``a b``; a zero sum is dropped."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch in matrix product")
    out = QMatrix(a.nrows, b.ncols)
    for i, row in enumerate(a.rows):
        for k, v in row.items():
            for j, w in b.rows[k].items():
                _add_entry(out, i, j, v * w)
    return out


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


def boundary_matrix(X, k):
    """The normalized-chains boundary ``N_k -> N_{k-1}`` (degenerate faces drop)."""
    rows = X.nd_ids(k - 1)
    cols = X.nd_ids(k)
    idx = {cid: i for i, cid in enumerate(rows)}
    mat = QMatrix(len(rows), len(cols))
    for j, cid in enumerate(cols):
        for i, ds in enumerate(X.face_table[(k, cid)]):
            if ds.is_nondegenerate():
                _add_entry(mat, idx[ds.ref[1]], j, (-1) ** i)
    return mat


def to_jsonable(X):
    """The ``file:`` document of ``X``: cells by degree, each face as ``(surj, base id)``."""
    top = X.top_dim
    simpl = {}
    for d in range(top + 1):
        simpl[str(d)] = [
            {"id": cid, "faces": [{"surj": list(ds.surj.values), "base": ds.ref[1]}
                                  for ds in X.face_table[(d, cid)]]}
            for cid in X.nd_ids(d)]
    return {"dims": top, "simplices": simpl}


def chain_complex(X):
    """The normalized chain complex ``N`` of ``X`` up to its top dimension."""
    top = X.top_dim
    bases = [list(X.nd_ids(d)) for d in range(top + 1)]
    mats = [None] + [boundary_matrix(X, k) for k in range(1, top + 1)]
    return ChainComplexQ(bases, mats)


def _phi_label(ref):
    """The truncation label that phi gives the nondegenerate simplex ``ref``."""
    return (ref, (0,) * ref[0], tuple(range(1, ref[0] + 1)))


def homology_report_oracle(X, weight_cap, name=None):
    """The dict ``homology_report(X, weight_cap, name)`` returns, computed directly."""
    if name is None:
        name = getattr(X, "name", "") or "complex"
    top = X.top_dim
    N = chain_complex(X)
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
            nmapped = carry(Cp, k, n_cycles[k], N,
                            lambda cid: _phi_label((k, cid)))
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


def integrate_oracle(p):
    """``p.integrate()``: one ``Fraction`` ``c * prod(nu!) / (n + |nu|)!`` per term."""
    total = Q(0)
    for e, c in p.terms.items():
        num = 1
        for x in e:
            num *= math.factorial(x)
        total += c * Q(num, math.factorial(p.n + sum(e)))
    return total


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
            out = out * coordinate(n, i)
    return out


def coordinate(n, i):
    """The coordinate ``t_i`` on ``[n]`` as a Poly, ``t_0`` as ``1 - t_1 - ... - t_n``."""
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
    if i:
        return Poly(n, {units[i - 1]: 1})
    return Poly(n, {(0,) * n: 1, **{e: -1 for e in units}})


def ds(n, i):
    """The one-form ``ds_i`` on ``[n]``."""
    return FormElt.monomial(n, (0,) * n, (i,))


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


def _mono(n, e, c):
    """``c t^e`` as a Poly, its exponents read without a ``t_0`` slot."""
    return Poly(n, {tuple(e): c})


def de_rham_d_oracle(omega):
    """``omega.de_rham_d()``: ``sum_k (d/dt_k t^e) dt_k ^ ds_S`` per term."""
    n = omega.n
    out = FormElt.zero(n)
    for (e, S), c in omega.terms.items():
        ds_S = FormElt.monomial(n, (0,) * n, S)
        for k in range(1, n + 1):
            if e[k - 1]:
                e2 = e[: k - 1] + (e[k - 1] - 1,) + e[k:]
                df = from_poly(_mono(n, e2, c * e[k - 1]))
                out = out + df.wedge(dt(n, k)).wedge(ds_S)
    return out


def pullback_oracle(omega, values):
    """``omega.pullback(values)``: ``ds_i`` pulls back to ``sum_{values[a] < i} dt_a``."""
    k = len(values) - 1
    out = FormElt.zero(k)
    for (e, S), c in omega.terms.items():
        term = from_poly(_mono(omega.n, e, c).pullback(values))
        for i in S:
            ds_i = FormElt.zero(k)
            for a in range(k + 1):
                if values[a] < i:
                    ds_i = ds_i + dt(k, a)
            term = term.wedge(ds_i)
        out = out + term
    return out


def bullet_oracle(alpha, sigma):
    """``alpha.bullet(sigma)``: coefficients pulled back, ``w_j`` to ``w_{min sigma^-1(j)}``."""
    k = sigma.dom
    out = ThetaElt.zero(k)
    for (e, S), c in alpha.terms.items():
        p = _mono(alpha.n, e, c).pullback(sigma.values)
        T = tuple(sigma.values.index(j) for j in S)
        out = out + ThetaElt(k, {(ee, T): cc for ee, cc in p.terms.items()})
    return out


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


def contract_dt(n, j, S):
    """``i(dt_j) w_S`` on ``[n]`` as ``[(S', coeff), ...]``, from ``i(ds_s)`` on ``w_S``.

    ``i(ds_s)`` removes ``w_s`` from its place ``r`` (from 1) in ``w_S`` with
    sign ``(-1)^r``, the sign of :func:`interior_ds`; ``ds_0`` and
    ``ds_{n+1}`` are zero.
    """
    out = []
    for s, a in ((j + 1, 1), (j, -1)):
        if 1 <= s <= n and s in S:
            r = S.index(s) + 1
            out.append((tuple(x for x in S if x != s), -a if r % 2 else a))
    return out


def contract_wedge_dt(n, S, j):
    """The face contraction's wedge sign, case by case: ``(sign, S')`` or ``(0, ())``.

    The ``dt_j`` contraction of ``w_S``, relabelled to the face ``[n] - {j}``.
    For inner ``j`` the face's basis replaces ``w_j, w_{j+1}`` by
    ``w_j + w_{j+1}``.
    """
    S = tuple(S)
    if j == 0:
        if 1 not in S:
            return 0, ()
        r = S.index(1) + 1
        S2 = tuple(x - 1 for x in S if x != 1)
        return (-1 if r % 2 else 1), S2
    if j == n:
        if n not in S:
            return 0, ()
        r = S.index(n) + 1
        S2 = tuple(x for x in S if x != n)
        return (1 if r % 2 else -1), S2  # extra -1 from dt_n = -ds_n
    relabel = lambda x: x if x <= j else x - 1
    if j in S and j + 1 in S:
        r = S.index(j) + 1
        S2 = tuple(relabel(x) for x in S if x != j + 1)
        return (1 if r % 2 else -1), S2  # (-1)^(r+1)
    if j in S:
        r = S.index(j) + 1
        S2 = tuple(relabel(x) for x in S if x != j)
        return (1 if r % 2 else -1), S2  # (-1)^(r+1)
    if j + 1 in S:
        r = S.index(j + 1) + 1
        S2 = tuple(relabel(x) for x in S if x != j + 1)
        return (-1 if r % 2 else 1), S2  # (-1)^r
    return 0, ()


def contract_face_oracle(alpha, j):
    """``alpha.contract_face(j)``, one restricted Poly per term."""
    n = alpha.n
    out = ThetaElt.zero(n - 1)
    for (e, S), c in alpha.terms.items():
        sgn, S2 = contract_wedge_dt(n, S, j)
        if not sgn:
            continue
        if j == 0:
            # vertex i + 1 of [n] is vertex i of the face
            p = _raw_poly(n - 1, e, c * sgn)
        else:
            p = Poly(n, {e: c * sgn}).res_at(j)
        out = out + ThetaElt(n - 1, {(ee, S2): cc for ee, cc in p.terms.items()})
    return out


def delta_dblprime_oracle(a):
    """``philocal.delta_dblprime``: ``-contract_face(p)`` on the facet without ``J[p]``."""
    out = PhiElt.zero(a.n, a.m - 1)
    for J, alpha in a.comps.items():
        if len(J) > 1:
            for p in range(len(J)):
                face = J[:p] + J[p + 1:]
                beta = contract_face_oracle(alpha, p).scale(-1)
                out = out + PhiElt(a.n, a.m - 1, {face: beta})
    return out


def monomial_boundary_oracle(m, e, S):
    """``polyforms._monomial_boundary(m, e, S)`` through the generic term-dict rules.

    The ``delta'`` part runs ``polyforms._deriv`` on ``{e: 1}`` and wedges
    each term with :func:`contract_dt`, summing into one dict; each facet
    takes its sign from the case table :func:`contract_wedge_dt` and
    restricts ``{e: 1}`` by the pullback along ``ordmaps.face``, which does
    not read ``_monomial_boundary``.  The tuples are plain, not shared.
    """
    mono, prime = {e: 1}, {}
    for j in range(1, m + 1):
        for e2, c in _deriv(j, mono).items():
            for S2, a in contract_dt(m, j, S):
                prime[e2, S2] = prime.get((e2, S2), 0) - c * a
    out = [(None, tuple((e2, S2, c) for (e2, S2), c in prime.items()))] if prime else []
    for p in range(m + 1):
        a, S2 = contract_wedge_dt(m, S, p)
        res = Poly(m, mono).pullback(face(m, p).values).terms if a else {}
        if res:
            out.append((p, tuple((e2, S2, -a * c) for e2, c in res.items())))
    return tuple(out)


def push_phi_oracle(a, values, cod):
    """``philocal.push_phi``: each component pushed onto the image of its face."""
    out = PhiElt.zero(cod, a.m)
    for J, alpha in a.comps.items():
        image = sorted({values[j] for j in J})
        local = [image.index(values[j]) for j in J]
        beta = pushforward_oracle(alpha, local, len(image) - 1)
        out = out + PhiElt(cod, a.m, {tuple(image): beta})
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


def _each_term(rule, values, terms):
    """``rule(values, t)`` run on each term ``t`` of ``terms`` and summed, with no cache."""
    out = {}
    for t, c in terms.items():
        for t2, b in rule(values, t).items():
            out[t2] = out.get(t2, 0) + c * b
    return out


def poly_pullback_uncached(f, values):
    """``f.pullback(values)``: ``_pullback`` on each term of ``f``."""
    return Poly(len(values) - 1, _each_term(_pullback, tuple(values), f.terms))


def poly_pushforward_uncached(f, values, m):
    """``f.pushforward(values, m)``: ``_push`` on each term of ``f``."""
    return Poly(m, _each_term(_push, _surjection(values, f.n, m), f.terms))


def form_pullback_uncached(omega, values):
    """``omega.pullback(values)``: ``_form_pullback`` on each term of ``omega``."""
    return FormElt(len(values) - 1, _each_term(_form_pullback, tuple(values), omega.terms))


def bullet_uncached(alpha, sigma):
    """``alpha.bullet(sigma)``: ``_form_pullback`` on each term of ``alpha``."""
    return ThetaElt(sigma.dom, _each_term(_form_pullback, sigma.values, alpha.terms))


def theta_pushforward_uncached(alpha, values, m):
    """``alpha.pushforward(values, m)``: ``_theta_push`` on each term of ``alpha``."""
    return ThetaElt(m, _each_term(_theta_push, _surjection(values, alpha.n, m), alpha.terms))


def big_pair_oracle(a, omega):
    """``philocal.big_pair``: restrict ``omega`` to each face, pair, integrate."""
    total = Q(0)
    for J, alpha in a.comps.items():
        total += integrate_oracle(alpha.pair(form_pullback_uncached(omega, J)))
    return total


def global_pair_oracle(c, omega):
    """``phiglobal.global_pair``: pair each term's monomial with the value on its simplex."""
    total = Q(0)
    if c.d != omega.d:
        return total
    for (ref, (e, S)), q in c.terms.items():
        alpha = ThetaElt.monomial(ref[0], e, S)
        total += integrate_oracle(alpha.pair(omega.values[ref])) * q
    return total
