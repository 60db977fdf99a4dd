"""Exact rational helpers shared across the package.

All arithmetic in this package is exact.  A coefficient has one canonical
form, given by :func:`exact`: a Python ``int`` when it is integral and a
``fractions.Fraction`` (denominator above 1) only otherwise.  Most
coefficients of the dual forms are integers, and integer arithmetic is
several times cheaper than ``Fraction`` arithmetic, so they stay ``int``
through the form algebra, the assembly of the truncated complexes and the
``d o d`` check.  No float enters a coefficient: :func:`exact` rejects one,
and the code never divides two ints with ``/``.
"""

import re
from fractions import Fraction

Q = Fraction

QZERO = Q(0)


def exact(c):
    """The canonical form of an exact coefficient: ``int`` if integral, else ``Fraction``.

    ``c`` must be an ``int`` (``bool`` included) or a ``Fraction``; a float
    or anything else raises ``TypeError``.
    """
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError("exact coefficient must be an int or a Fraction, got %r" % (c,))


def qstr(q):
    """Serialize an exact rational as ``"p/q"`` with an explicit denominator."""
    q = Q(q)
    return "%d/%d" % (q.numerator, q.denominator)


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def qparse(s):
    """Parse ``"p/q"`` or ``"p"`` into a Fraction.  Inverse of :func:`qstr`.

    ``p`` is an optionally signed run of decimal digits and ``q`` a nonzero
    one; decimals, exponents and anything else raise ``ValueError``.
    """
    text = s.strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError("bad rational %r: expected p or p/q with integer p, q" % s)
    try:
        return Q(text)
    except ZeroDivisionError:
        raise ValueError("bad rational %r: zero denominator" % s) from None
