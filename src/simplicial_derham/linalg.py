"""Exact linear algebra for chain complexes.

Sparse matrices are stored row-major as dicts (no explicit zeros).  The
complexes reduced here hold ``int`` entries only (``truncated_complex``
rescales its labels), and elimination is fraction-free (Bareiss, 1968): the
row update is ``r2*p - r1*e`` followed by a gcd reduction.

The filtered reduction of a chain complex with staged cells reads
persistent Betti numbers off its pivot pairs.  It takes each degree's
cells in nondecreasing stage order (``truncated_complex`` lists them so),
so the order of the cells is the filtration order, with no sort and no
remapped copy.  It reduces the coboundaries rather than the boundaries:
the column of a ``k``-cell is its row of ``d_{k+1}``, read in place and
copied only when it is first reduced, so no transpose is built, and
clearing runs from low degree up.  Each coboundary pivot is a boundary
pivot read the other way round, so the pairs are those of the
boundary-side reduction (de Silva, Morozov and Vejdemo-Johansson,
*Dualities in persistent (co)homology*, 2011), found with far fewer column
updates (Bauer, *Ripser*, 2021).  When the pivot of the stored column
divides the entry it cancels, that update is done in place, touching only
the stored column's entries, with no gcd.

A column that pairs as it is read (an emergent pair; most pairs are) is
kept as the index of its row of ``d``, not as a copy, as in Ripser.  The
first column reduced against it builds the pivot, ``_primitive`` of the
row, and keeps it in the index's place.  That is the column an eager copy
would have stored, since the rows of ``d`` are never mutated and the copy
is ``_primitive`` of the same row.

A column that reduces to zero can be skipped on a certificate, a cocycle
``z``: if ``z . d_{k+1} = 0`` exactly, then ``sum_i z_i col_i = 0``, so the
column of the cell of least ``(stage, index)`` in ``supp(z)``, the last of
them processed, is in the span of the columns processed before it.
"""

import bisect
import math
import operator


class QMatrix:
    """Sparse rational matrix: ``rows[i]`` maps column -> nonzero exact value.

    Entries are in the canonical form of :func:`rationals.exact`: an ``int``
    when integral, a ``Fraction`` otherwise, never a float; code that writes
    ``rows`` must keep that form.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [{} for _ in range(nrows)]


def _annihilates(z, rows):
    """Whether ``sum_i z[i] rows[i]`` is zero, ``z`` a dict from row index to value."""
    acc = {}
    for i, c in z.items():
        for j, v in rows[i].items():
            acc[j] = acc.get(j, 0) + c * v
    return not any(acc.values())


def _primitive(ints):
    """Divide an integer row by the gcd of its entries."""
    g = math.gcd(*ints.values())
    return {j: v // g for j, v in ints.items()} if g > 1 else ints


def _cancel(row, prow, key):
    """``row*p - prow*e`` made primitive, for ``p, e`` the entries of ``prow, row`` at ``key``.

    The one fraction-free row update: the result is zero at ``key``.
    """
    p, e = prow[key], row[key]
    new = {j: v * p for j, v in row.items()}
    for j, v in prow.items():
        w = new.get(j, 0) - v * e
        if w:
            new[j] = w
        else:
            del new[j]
    return _primitive(new)


def _reduce(col, prow, key):
    """``col`` with ``prow`` eliminated at ``key``, in place when that stays integral.

    If the pivot ``p`` of ``prow`` divides the entry ``e`` of ``col``,
    ``(e // p) * prow`` is subtracted from ``col`` itself, touching only the
    entries of ``prow``; otherwise the update is :func:`_cancel`.
    """
    q, r = divmod(col[key], prow[key])
    if r:
        return _cancel(col, prow, key)
    for j, v in prow.items():
        w = col.get(j, 0) - q * v
        if w:
            col[j] = w
        else:
            del col[j]
    return col


class ChainComplexQ:
    """Nonnegatively graded chain complex with labelled bases.

    ``bases[k]`` is the ordered label list in degree ``k``; ``d[k]`` is the
    matrix of the differential ``C_k -> C_{k-1}``.  ``d d = 0`` is checked
    at construction, before any homology is computed: row by row, each
    nonzero row of ``d[k-1]`` against the rows of ``d[k]``, with no product
    built; a zero row meets nothing.
    """

    def __init__(self, bases, boundaries):
        self.bases = [list(b) for b in bases]
        self.d = list(boundaries)  # d[k]: degree k -> k-1; d[0] unused
        if len(self.d) != len(self.bases):
            raise ValueError("need one boundary slot per degree")
        for k in range(1, len(self.bases)):
            mat = self.d[k]
            if mat.nrows != len(self.bases[k - 1]) or mat.ncols != len(self.bases[k]):
                raise ValueError("boundary shape mismatch in degree %d" % k)
        for k in range(2, len(self.bases)):
            if not all(_annihilates(row, self.d[k].rows) for row in self.d[k - 1].rows if row):
                raise ValueError("d o d != 0 between degrees %d and %d" % (k, k - 2))

    @property
    def top(self):
        return len(self.bases) - 1

    def dim(self, k):
        return len(self.bases[k])


def _certified(z, rows, stages):
    """The least cell of ``supp(z)`` by ``(stage, index)`` if ``z . d = 0`` in ints, else None."""
    return min(z, key=lambda i: (stages[i], i)) if _annihilates(z, rows) else None


class FilteredReduction:
    """Persistence pairs of a chain complex filtered by cell stages.

    ``stages[k][i]`` is the integer stage of ``C.bases[k][i]``, and each
    ``stages[k]`` must be nondecreasing (a ``ValueError`` otherwise): the
    cells are listed in filtration order.  The cells of stage at most ``a``
    must span a subcomplex ``F_a``.  The pairs are found on the cohomology
    side: for ``k = 0 .. top-1`` the coboundary ``delta_k``, the transpose
    of ``d_{k+1}``, is reduced once.  The column of a ``k``-cell is its row
    of ``d_{k+1}``; columns go in decreasing index order, which is
    decreasing ``(stage, index)`` order, and the pivot of a column is its
    least coface, ``min(col)``, which is its coface of least ``(stage,
    index)``.  Degrees go from the bottom up, and the column of a cell that
    is already a pivot of ``delta_{k-1}`` is skipped, since it reduces to
    zero (clearing).  A pivot ``(sigma, tau)`` of ``delta_k`` is the pivot
    ``(row sigma, column tau)`` that reducing ``d_{k+1}`` on the homology
    side finds, so ``pairs[k]`` lists ``(row stage, column stage)`` for
    every pivot of ``d_k``.  Every entry of ``C.d`` is an ``int``; a row
    holding an explicit zero is read as a copy without it.

    ``certificates`` lists pairs ``(k, z)``, ``z`` a dict from ``k``-cells
    to nonzero ints.  One with ``z . d_{k+1} = 0`` skips the column of its
    least cell (see the module docstring); any other skips nothing.
    """

    def __init__(self, C, stages, certificates=()):
        for k, here in enumerate(stages):
            if any(map(operator.gt, here, here[1:])):
                raise ValueError("the cells of degree %d are not in stage order" % k)
        self.stages = stages
        self.pairs = [[] for _ in range(C.top + 2)]
        cleared = set()
        for k in range(C.top):
            here, above = stages[k], stages[k + 1]
            rows = C.d[k + 1].rows
            cleared |= {_certified(z, rows, here)
                        for kz, z in certificates if kz == k} - {None}
            owner = {}  # pivot -> its column, or the index of its unreduced row
            for j in reversed(range(C.dim(k))):
                row = rows[j]
                if not row or j in cleared:
                    continue
                col = row if 0 not in row.values() else {i: v for i, v in row.items() if v}
                while col:
                    low = min(col)
                    if low not in owner:
                        owner[low] = j if col is row else _primitive(col)
                        self.pairs[k + 1].append((here[j], above[low]))
                        break
                    prow = owner[low]
                    if type(prow) is int:
                        prow = owner[low] = _primitive(rows[prow])
                    col = _reduce(dict(col) if col is row else col, prow, low)
            cleared = set(owner)

    def rank(self, k, a, b):
        """Pivots of ``d_k`` with row stage at most ``a`` and column stage at most ``b``."""
        return sum(1 for r, c in self.pairs[k] if r <= a and c <= b)

    def cycles(self, k, a):
        """``dim Z_k(F_a)``; the cells of ``F_a`` are a prefix of each degree."""
        return bisect.bisect_right(self.stages[k], a) - self.rank(k, a, a)

    def betti(self, k, a, b):
        """``dim im(H_k(F_a) -> H_k(F_b))`` for ``a <= b``."""
        return self.cycles(k, a) - self.rank(k + 1, a, b)
