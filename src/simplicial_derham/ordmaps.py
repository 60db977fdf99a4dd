"""Nondecreasing maps between finite ordinals, and shuffle combinatorics.

The objects here are the arrows of the simplex category: nondecreasing maps
``[n] -> [m]`` where ``[n] = {0, 1, ..., n}``.  An :class:`OrdMap` stores the
dense value vector together with the codomain top element, so non-surjective
maps are unambiguous.

Conventions used throughout the package:

* A surjection ``f : [n] -> [k]`` is its *jump set*, the ``k`` positions
  ``i`` in ``{1..n}`` with ``f(i) > f(i-1)``: :meth:`OrdMap.jumps` reads it
  off and :func:`from_jumps` rebuilds ``f``, which at ``i`` counts the jumps
  ``<= i``.  Every conversion between the two goes through this pair.
* ``dagger`` of a surjection picks the minimal section, ``f_dag(j) = min
  f^{-1}(j)`` (0, then the jump set), so ``f o f_dag = id``.
* An ``(n_1, ..., n_r)``-shuffle is a tuple of surjections ``z_i : [n] ->
  [n_i]`` with ``n = sum(n_i)`` that is jointly injective; these biject with
  ordered partitions of ``{1, ..., n}`` into blocks of sizes ``n_i``: block
  ``i`` is the jump set of ``z_i``.
"""

import functools
import math
from itertools import combinations


class OrdMap:
    """A nondecreasing map ``[n] -> [cod]`` stored as its value tuple."""

    __slots__ = ("values", "cod")

    def __init__(self, values, cod=None):
        values = tuple(values)
        if not values:
            raise ValueError("empty domain is not an ordinal")
        if cod is None:
            cod = values[-1]
        for a, b in zip(values, values[1:]):
            if b < a:
                raise ValueError("values must be nondecreasing: %r" % (values,))
        if values[0] < 0 or values[-1] > cod:
            raise ValueError("values out of range for codomain [%d]" % cod)
        self.values = values
        self.cod = cod

    @property
    def dom(self):
        return len(self.values) - 1

    def __call__(self, i):
        return self.values[i]

    def __eq__(self, other):
        return (
            isinstance(other, OrdMap)
            and self.values == other.values
            and self.cod == other.cod
        )

    def __hash__(self):
        return hash((self.values, self.cod))

    def __repr__(self):
        return "OrdMap(%r, cod=%d)" % (list(self.values), self.cod)

    def is_surjective(self):
        return set(self.values) == set(range(self.cod + 1))

    def jumps(self):
        """Positions ``i >= 1`` where the map steps up, in increasing order."""
        v = self.values
        return tuple(i for i in range(1, len(v)) if v[i] != v[i - 1])

    def dagger(self):
        """Minimal section of a surjection: ``dagger(j) = min self^{-1}(j)``."""
        if not self.is_surjective():
            raise ValueError("dagger needs a surjective map")
        return OrdMap((0,) + self.jumps(), cod=self.dom)


def from_jumps(jumps, n):
    """The map ``[n] -> [len(jumps)]`` counting the sorted ``jumps`` that are ``<= i``.

    For a jump set inside ``{1..n}`` this is the surjection stepping up
    exactly there, so ``from_jumps(f.jumps(), f.dom) == f`` for every
    surjection ``f``.
    """
    k = len(jumps)
    vals = []
    v = 0
    for i in range(n + 1):
        while v < k and jumps[v] <= i:
            v += 1
        vals.append(v)
    return OrdMap(vals, cod=k)


def compose(f, g):
    """``compose(f, g)(i) = f(g(i))``."""
    if g.cod != f.dom:
        raise ValueError("domains do not match: %r after %r" % (f, g))
    return OrdMap(tuple(f.values[v] for v in g.values), cod=f.cod)


def identity(n):
    return OrdMap(range(n + 1), cod=n)


def face(n, i):
    """The injection ``[n-1] -> [n]`` skipping ``i``."""
    if not 0 <= i <= n:
        raise ValueError("face index out of range")
    return OrdMap([j for j in range(n + 1) if j != i], cod=n)


def degeneracy(n, i):
    """The surjection ``[n+1] -> [n]`` hitting ``i`` twice."""
    if not 0 <= i <= n:
        raise ValueError("degeneracy index out of range")
    vals = list(range(i + 1)) + list(range(i, n + 1))
    return OrdMap(vals, cod=n)


def constant(n, value, cod):
    return OrdMap([value] * (n + 1), cod=cod)


# ---------------------------------------------------------------------------
# shuffles

def shuffle_count(parts):
    """``(sum parts)! / prod(parts!)``, the number of ``parts``-shuffles."""
    n = sum(parts)
    c = math.factorial(n)
    for p in parts:
        c //= math.factorial(p)
    return c


def partition_to_shuffle(blocks, n):
    """Ordered partition ``blocks`` of ``{1..n}`` -> tuple of surjections.

    Component ``i`` is ``from_jumps(sorted(blocks[i]), n)``: it increments
    exactly at the positions in its block.
    """
    seen = set()
    for b in blocks:
        seen.update(b)
    if seen != set(range(1, n + 1)):
        raise ValueError("blocks must partition {1..%d}" % n)
    if sum(len(b) for b in blocks) != n:
        raise ValueError("blocks overlap")
    return tuple(from_jumps(sorted(b), n) for b in blocks)


def shuffle_to_partition(zs):
    """Inverse of :func:`partition_to_shuffle`: block ``i`` is the jump set of ``zs[i]``."""
    return tuple(z.jumps() for z in zs)


def is_shuffle(zs, parts):
    """Check that ``zs`` is a jointly injective ``parts``-shuffle of surjections."""
    n = zs[0].dom
    if any(z.dom != n for z in zs):
        return False
    if tuple(z.cod for z in zs) != tuple(parts):
        return False
    if sum(z.cod for z in zs) != n:
        return False
    if not all(z.is_surjective() for z in zs):
        return False
    seen = set()
    for i in range(n + 1):
        key = tuple(z(i) for z in zs)
        if key in seen:
            return False
        seen.add(key)
    return True


def _ordered_partitions(remaining, parts):
    """Ordered partitions of ``remaining`` into blocks of sizes ``parts``.

    Blocks for the first size come from ``itertools.combinations``, then
    the rest recursively on the positions left, so the order is lexicographic.
    """
    if not parts:
        yield ()
        return
    for block in combinations(remaining, parts[0]):
        rest = tuple(s for s in remaining if s not in block)
        for tail in _ordered_partitions(rest, parts[1:]):
            yield (block,) + tail


@functools.lru_cache(maxsize=None)
def enumerate_shuffles(parts):
    """All ``parts``-shuffles, in the lexicographic order of their partitions,
    as one cached tuple shared by every caller: ``parts`` must be hashable."""
    n = sum(parts)
    return tuple(partition_to_shuffle(blocks, n)
                 for blocks in _ordered_partitions(tuple(range(1, n + 1)), tuple(parts)))


def operad_left(zeta, xi, phi, psi):
    """Compose ``((m,n),p)``-shuffle data into an ``(m,n,p)``-shuffle.

    ``(zeta, xi)`` is an ``(m+n, p)``-shuffle and ``(phi, psi)`` an
    ``(m, n)``-shuffle; the result is ``(phi o zeta, psi o zeta, xi)``.
    """
    return (compose(phi, zeta), compose(psi, zeta), xi)


def operad_right(zeta, xi, phi, psi):
    """Compose ``(m,(n,p))``-shuffle data into an ``(m,n,p)``-shuffle.

    ``(zeta, xi)`` is an ``(m, n+p)``-shuffle and ``(phi, psi)`` an
    ``(n, p)``-shuffle; the result is ``(zeta, phi o xi, psi o xi)``.
    """
    return (zeta, compose(phi, xi), compose(psi, xi))
