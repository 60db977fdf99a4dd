"""Reference path for the homology report: separate truncations, carried cycles.

``homology_report_oracle`` is the report computed the direct way.  It builds
the truncations G_D, G_{D+2}, G_{D+1} and G_{D+3} one by one, carries cycle
bases into the larger one by relabelling, and ranks classes with
``ChainComplexQ.class_rank``.  The library computes the same numbers from one
filtered reduction of G_{D+3}.  The tests compare the two.
"""

from simplicial_derham.phiglobal import _phi_label, truncated_complex


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
        C = truncated_complex(X, D)
        if D == weight_cap:
            dims_GD = list(C.homology_dims())
        Cp = truncated_complex(X, D + 2)
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
