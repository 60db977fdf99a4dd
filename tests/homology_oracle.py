"""Reference paths for the truncations and the homology report.

``truncated_complex_oracle`` assembles G_W label by label: it takes the
boundary of every basis label with ``phi_boundary``, which recomputes the
local boundary and every face pushforward for each simplex.  The library
assembles the same matrices one local key at a time.

``filtered_reduction_oracle`` finds the pairs of ``FilteredReduction`` on
the homology side: it reduces each boundary ``d_k`` itself, columns in
stage order, from the top degree down.  The library reduces the
coboundaries instead and must find the same pairs.

``homology_report_oracle`` is the report computed the direct way.  It builds
the truncations G_D, G_{D+2}, G_{D+1} and G_{D+3} one by one with
``truncated_complex_oracle``, carries cycle bases into the larger one by
relabelling, and ranks classes with ``ChainComplexQ.class_rank``.  The
library computes the same numbers from one filtered reduction of G_{D+3}.
The tests compare the two.
"""

from simplicial_derham import linalg
from simplicial_derham.linalg import ChainComplexQ, QMatrix
from simplicial_derham.phiglobal import (PhiChain, _basis_labels, _phi_label,
                                         phi_boundary)


def truncated_complex_oracle(X, weight_cap):
    """``truncated_complex(X, weight_cap)``, one ``phi_boundary`` per label."""
    if weight_cap < 0:
        raise ValueError("weight bound must be nonnegative")
    top = X.top_dim
    bases = [_basis_labels(X, d, weight_cap) for d in range(top + 1)]
    boundaries = [None]
    for d in range(1, top + 1):
        idx = {lab: i for i, lab in enumerate(bases[d - 1])}
        mat = QMatrix(len(bases[d - 1]), len(bases[d]))
        for col, (ref, e, S) in enumerate(bases[d]):
            one = PhiChain(X, d, {(ref, (e, S)): 1})
            for (ref2, (e2, S2)), c in phi_boundary(one).terms.items():
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
        cols = C.d[k].columns()
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


def carry(target, k, vectors, source, label=lambda lab: lab):
    """Rewrite vectors over ``source.bases[k]`` in the basis of ``target``.

    ``label`` sends a source label to its label in ``target``; a label that
    is missing there raises ``KeyError``.
    """
    idx = target.index[k]
    names = source.bases[k]
    return [{idx[label(names[i])]: c for i, c in v.items()} for v in vectors]


def homology_report_oracle(X, weight_cap, name=None):
    """The dict ``homology_report(X, weight_cap, name)`` returns, computed directly."""
    if name is None:
        name = getattr(X, "name", "") or "complex"
    top = X.top_dim
    N = X.chain_complex()
    n_cycles = [N.cycles(k) for k in range(top + 1)]
    reports = []
    for D in (weight_cap, weight_cap + 1):
        C = truncated_complex_oracle(X, D)
        if D == weight_cap:
            dims_GD = list(C.homology_dims())
        Cp = truncated_complex_oracle(X, D + 2)
        dims = []
        generated = True
        for k in range(top + 1):
            mapped = carry(Cp, k, C.cycles(k), C)
            nmapped = carry(Cp, k, n_cycles[k], N, _phi_label(k))
            dim = Cp.class_rank(k, mapped)
            dims.append(dim)
            if not (dim == Cp.class_rank(k, nmapped)
                    == Cp.class_rank(k, mapped + nmapped)):
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
        "matches_N": dims0 == list(N.homology_dims()) and gen0 and gen1,
    }
