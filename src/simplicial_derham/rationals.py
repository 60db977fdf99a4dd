"""Exact rational helpers shared across the package.

All arithmetic in this package is exact: coefficients are Python
``fractions.Fraction`` values and no floats ever enter core code paths.
"""

import re
from fractions import Fraction

Q = Fraction

QZERO = Q(0)
QONE = Q(1)


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
