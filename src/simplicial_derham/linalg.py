"""Exact rational linear algebra for chain complexes.

Sparse matrices are stored row-major as dicts (no explicit zeros).  All
elimination is fraction-free over the integers: rows are scaled to
primitive integer rows, and the row update is the Bareiss-style
``r2*p - r1*e`` followed by a gcd reduction.  The echelon form serves ranks
(its pivot count), kernels (its pivot rows scaled to 1 and
back-substituted) and solves (the kernel of the augmented matrix); its
pivoting is deterministic: columns in order, first usable row.

The filtered reduction of a chain complex with staged cells reads
persistent Betti numbers off its pivot pairs.  It reduces the coboundaries
rather than the boundaries: the column of a ``k``-cell is its row of
``d_{k+1}``, so no transpose is built, and clearing runs from low degree
up.  Each coboundary pivot is a boundary pivot read the other way round,
so the pairs are those of the boundary-side reduction (de Silva, Morozov
and Vejdemo-Johansson, *Dualities in persistent (co)homology*, 2011), found
with far fewer column updates (Bauer, *Ripser*, 2021).  When the pivot of
the stored column divides the entry it cancels, that update is done in
place, touching only the stored column's entries, with no copy and no gcd.
"""

import math

from .rationals import Q, QZERO, exact


class QMatrix:
    """Sparse rational matrix: ``rows[i]`` maps column -> nonzero exact value.

    Entries are in the canonical form of :func:`rationals.exact`: an ``int``
    when integral, a ``Fraction`` otherwise, never a float.  :meth:`set`
    and :meth:`mul` keep that form; code that writes ``rows`` directly must
    keep it too.
    """

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [{} for _ in range(nrows)]

    def set(self, i, j, v):
        if not 0 <= i < self.nrows or not 0 <= j < self.ncols:
            raise IndexError("entry (%d, %d) outside %dx%d" % (i, j, self.nrows, self.ncols))
        v = exact(v)
        if v:
            self.rows[i][j] = v
        else:
            self.rows[i].pop(j, None)

    def get(self, i, j):
        return self.rows[i].get(j, 0)

    def column(self, j):
        return {i: r[j] for i, r in enumerate(self.rows) if j in r}

    def columns(self):
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, v in row.items():
                cols[j][i] = v
        return cols

    def is_zero(self):
        return all(not r for r in self.rows)

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        out = QMatrix(self.nrows, other.ncols)
        for i, row in enumerate(self.rows):
            acc = {}
            for k, v in row.items():
                for j, w in other.rows[k].items():
                    acc[j] = acc.get(j, 0) + v * w
            for j, v in acc.items():
                if v:
                    out.rows[i][j] = exact(v)
        return out

    def apply(self, vec):
        """Matrix times a sparse column vector (dict)."""
        out = {}
        for i, row in enumerate(self.rows):
            s = 0
            for j, v in row.items():
                c = vec.get(j)
                if c:
                    s += v * c
            if s:
                out[i] = s
        return out

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.rows == other.rows
        )


def _primitive(ints):
    """Divide an integer row by the gcd of its entries."""
    g = 0
    for v in ints.values():
        g = math.gcd(g, abs(v))
    return {j: v // g for j, v in ints.items()} if g > 1 else ints


def _int_row(row):
    """Scale a rational row to a primitive integer row (empty if it is zero)."""
    lcm = math.lcm(*[v.denominator for v in row.values()])
    return _primitive({j: v.numerator * (lcm // v.denominator)
                       for j, v in row.items() if v})


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


def _echelon(rows):
    """Fraction-free row echelon form of sparse rational rows.

    Yields ``(pivot col, primitive integer row)`` by strictly increasing
    pivot column; each pivot row is zero left of its pivot.  Rows are
    yielded as they are found, so a caller that only counts them holds none.
    """
    rows = [r for r in map(_int_row, rows) if r]
    ncols = max((j for r in rows for j in r), default=-1) + 1
    for col in range(ncols):
        pick = next((i for i, row in enumerate(rows) if col in row), None)
        if pick is None:
            continue
        prow = rows.pop(pick)
        nxt = []
        for row in rows:
            if col not in row:
                nxt.append(row)
                continue
            new = _cancel(row, prow, col)
            if new:
                nxt.append(new)
        rows = nxt
        yield col, prow


def rank(M):
    """Rank of a :class:`QMatrix`, or of a list of sparse rows (dicts)."""
    return sum(1 for _ in _echelon(M.rows if isinstance(M, QMatrix) else M))


def kernel_basis(M):
    """Exact basis of ``{x : Mx = 0}`` as sparse column dicts, one per free column.

    The echelon rows are scaled to pivot 1 and back-substituted into the
    reduced row echelon form; each basis vector reads off one free column.
    """
    pivots = [(pc, {j: Q(v, prow[pc]) for j, v in prow.items()})
              for pc, prow in _echelon(M.rows)]
    for idx in range(len(pivots) - 1, -1, -1):
        pc, prow = pivots[idx]
        for _, above in pivots[:idx]:
            e = above.get(pc)
            if e:
                for j, v in prow.items():
                    nv = above.get(j, QZERO) - e * v
                    if nv:
                        above[j] = nv
                    else:
                        del above[j]
    pivot_set = {pc for pc, _ in pivots}
    basis = []
    for free in range(M.ncols):
        if free in pivot_set:
            continue
        vec = {free: Q(1)}
        for pc, prow in pivots:
            e = prow.get(free)
            if e:
                vec[pc] = -e
        basis.append(vec)
    return basis


def solve(M, b):
    """One exact solution of ``Mx = b`` or ``None`` if inconsistent.

    A solution is the kernel vector of ``[M | -b]`` whose last entry is 1.
    """
    aug = QMatrix(M.nrows, M.ncols + 1)
    for i, row in enumerate(M.rows):
        aug.rows[i] = dict(row)
    for i, v in b.items():
        aug.set(i, M.ncols, -Q(v))
    ker = kernel_basis(aug)
    x = ker[-1] if ker else {}
    return x if x.pop(M.ncols, None) is not None else None


class ChainComplexQ:
    """Nonnegatively graded chain complex with labelled bases.

    ``bases[k]`` is the ordered label list in degree ``k``; ``boundary(k)`` is
    the matrix of the differential ``C_k -> C_{k-1}``.  ``d d = 0`` is checked
    at construction, before any homology is computed.
    """

    def __init__(self, bases, boundaries):
        self.bases = [list(b) for b in bases]
        self.index = [
            {label: i for i, label in enumerate(b)} for b in self.bases
        ]
        self.d = list(boundaries)  # d[k]: degree k -> k-1; d[0] unused
        if len(self.d) != len(self.bases):
            raise ValueError("need one boundary slot per degree")
        for k in range(1, len(self.bases)):
            mat = self.d[k]
            if mat.nrows != len(self.bases[k - 1]) or mat.ncols != len(self.bases[k]):
                raise ValueError("boundary shape mismatch in degree %d" % k)
        for k in range(2, len(self.bases)):
            if not self.d[k - 1].mul(self.d[k]).is_zero():
                raise ValueError("d o d != 0 between degrees %d and %d" % (k, k - 2))
        self._ranks = {}

    @property
    def top(self):
        return len(self.bases) - 1

    def dim(self, k):
        if 0 <= k <= self.top:
            return len(self.bases[k])
        return 0

    def boundary(self, k):
        if 1 <= k <= self.top:
            return self.d[k]
        return QMatrix(self.dim(k - 1), self.dim(k))

    def rank_d(self, k):
        if not 1 <= k <= self.top:
            return 0
        if k not in self._ranks:
            self._ranks[k] = rank(self.d[k])
        return self._ranks[k]

    def homology_dims(self):
        """``dim H_k = dim ker d_k - rank d_{k+1}`` for ``k = 0..top``."""
        out = []
        for k in range(self.top + 1):
            out.append(self.dim(k) - self.rank_d(k) - self.rank_d(k + 1))
        return tuple(out)

    def cycles(self, k):
        if k == 0:
            return [{i: Q(1)} for i in range(self.dim(0))]
        if k > self.top:
            return []
        return kernel_basis(self.d[k])

    def class_rank(self, k, cycles):
        """Dimension of the span of the classes of degree-``k`` cycles in ``H_k``."""
        return rank(self.boundary(k + 1).columns() + list(cycles)) - self.rank_d(k + 1)


class FilteredReduction:
    """Persistence pairs of a chain complex filtered by cell stages.

    ``stages[k][i]`` is the integer stage of ``C.bases[k][i]``; the cells of
    stage at most ``a`` must span a subcomplex ``F_a``.  The pairs are found
    on the cohomology side: for ``k = 0 .. top-1`` the coboundary
    ``delta_k``, the transpose of ``d_{k+1}``, is reduced once.  The column
    of a ``k``-cell is its row of ``d_{k+1}``; columns go in decreasing
    ``(stage, index)`` order and the pivot of a column is its coface of
    least ``(stage, index)``.  Degrees go from the bottom up, and the column
    of a cell that is already a pivot of ``delta_{k-1}`` is skipped, since
    it reduces to zero (clearing).  A pivot ``(sigma, tau)`` of ``delta_k``
    is the pivot ``(row sigma, column tau)`` that reducing ``d_{k+1}`` on
    the homology side finds, so ``pairs[k]`` lists ``(row stage, column
    stage)`` for every pivot of ``d_k``.
    """

    def __init__(self, C, stages):
        self.stages = stages
        self.pairs = [[] for _ in range(C.top + 2)]
        cleared = set()
        for k in range(C.top):
            here, above = stages[k], stages[k + 1]
            # sorted() is stable, so these are (stage, index) orders
            cofaces = sorted(range(C.dim(k + 1)), key=above.__getitem__)
            pos = {i: p for p, i in enumerate(cofaces)}
            rows = C.d[k + 1].rows
            owner = {}
            for j in reversed(sorted(range(C.dim(k)), key=here.__getitem__)):
                if j in cleared:
                    continue
                col = _int_row({pos[i]: v for i, v in rows[j].items()})
                while col:
                    low = min(col)
                    if low not in owner:
                        owner[low] = _primitive(col)
                        self.pairs[k + 1].append((here[j], above[cofaces[low]]))
                        break
                    col = _reduce(col, owner[low], low)
            cleared = {cofaces[low] for low in owner}

    def rank(self, k, a, b):
        """Pivots of ``d_k`` with row stage at most ``a`` and column stage at most ``b``."""
        return sum(1 for r, c in self.pairs[k] if r <= a and c <= b)

    def cycles(self, k, a):
        """``dim Z_k(F_a)``."""
        return sum(1 for s in self.stages[k] if s <= a) - self.rank(k, a, a)

    def betti(self, k, a, b):
        """``dim im(H_k(F_a) -> H_k(F_b))`` for ``a <= b``."""
        return self.cycles(k, a) - self.rank(k + 1, a, b)


def _degree_map(fmaps, k, C, Cp):
    """The degree-``k`` matrix of a chain map; zero past the end of ``fmaps``."""
    return fmaps[k] if k < len(fmaps) else QMatrix(Cp.dim(k), C.dim(k))


def check_chain_map(fmaps, C, Cp):
    """Verify ``f d = d f`` degreewise; return None or a witness string."""
    for k in range(1, C.top + 1):
        lhs = _degree_map(fmaps, k - 1, C, Cp).mul(C.boundary(k))
        rhs = Cp.boundary(k).mul(_degree_map(fmaps, k, C, Cp))
        if lhs != rhs:
            for j in range(lhs.ncols):
                if lhs.column(j) != rhs.column(j):
                    return "degree %d, basis column %d (%r)" % (k, j, C.bases[k][j])
    return None


def induced_image_dims(fmaps, C, Cp, k):
    """``dim im(H_k(C) -> H_k(Cp))`` for the chain map given degreewise.

    Raises ``ValueError`` with a witness if the maps fail to commute with the
    boundaries.
    """
    witness = check_chain_map(fmaps, C, Cp)
    if witness is not None:
        raise ValueError("not a chain map: fails at " + witness)
    fk = _degree_map(fmaps, k, C, Cp)
    return Cp.class_rank(k, [fk.apply(z) for z in C.cycles(k)])


def quasi_iso_check(fmaps, C, Cp, k_range=None, through=None, Cpp=None):
    """Per-degree report comparing homology dims with the induced image.

    Without ``through`` the comparison is literal: the image of ``H_k(C)``
    in ``H_k(Cp)`` against both homology dimensions.  With ``through`` (a
    further chain map ``Cp -> Cpp``) the target side is stabilized: the
    composite image of ``H_k(C)`` inside ``H_k(Cpp)`` is compared against
    the image of ``H_k(Cp)`` there, so transient truncation classes that
    die one step up do not count against surjectivity.
    """
    if k_range is None:
        k_range = range(max(C.top, Cp.top) + 1)
    if through is not None:
        comp = [_degree_map(through, k, Cp, Cpp).mul(_degree_map(fmaps, k, C, Cp))
                for k in range(C.top + 1)]
    report = {}
    for k in k_range:
        hc = C.homology_dims()[k] if k <= C.top else 0
        if through is None:
            hcp = Cp.homology_dims()[k] if k <= Cp.top else 0
            img = induced_image_dims(fmaps, C, Cp, k) if k <= C.top else 0
        else:
            hcp = induced_image_dims(through, Cp, Cpp, k) if k <= Cp.top else 0
            img = induced_image_dims(comp, C, Cpp, k) if k <= C.top else 0
        report[k] = {
            "dim_H_source": hc,
            "dim_H_target": hcp,
            "image_dim": img,
            "injective": img == hc,
            "surjective": img == hcp,
            "iso": img == hc == hcp,
        }
    return report
