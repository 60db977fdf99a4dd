"""Exact rational helpers shared across the package.

All arithmetic in this package is exact.  A coefficient has one canonical
form, given by :func:`exact`: a Python ``int`` when it is integral and a
``fractions.Fraction`` (denominator above 1) only otherwise.  Most
coefficients of the dual forms are integers, and integer arithmetic is
several times cheaper than ``Fraction`` arithmetic, so they stay ``int``
through the form algebra, and the truncated complexes rescale their labels
so that every matrix entry is one.  No float enters a coefficient:
:func:`exact` rejects one, and the code never divides two ints with ``/``.

:class:`Combination` is the one vector-space arithmetic of the package's
elements: polynomials, forms, dual forms and the chains built from them.
"""

import decimal
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
    try:
        return "%d/%d" % (q.numerator, q.denominator)
    except ValueError:  # past int's digit limit (4300 by default): decimal is exact, with none
        return "%s/%s" % (decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))


def abbreviate(text, unit="characters"):
    """``text`` as an error message echoes it: over 50 characters, ``abc...xyz (N units)``."""
    return text if len(text) <= 50 else "%s...%s (%d %s)" % (text[:3], text[-3:], len(text), unit)


MAX_DIGITS = 20000  # per part of a parsed rational: its exact decimal parse is quadratic
_RATIONAL = re.compile(r"[+-]?[0-9]{1,%d}(/[0-9]{1,%d})?" % (MAX_DIGITS, MAX_DIGITS))


def qparse(s):
    """Parse ``"p/q"`` or ``"p"`` into a Fraction; inverse of :func:`qstr` to ``MAX_DIGITS``.

    ``p`` is an optionally signed run of at most ``MAX_DIGITS`` decimal
    digits and ``q`` a nonzero one; anything else raises ``ValueError``
    before any conversion, echoing a long input abbreviated.  A longer
    part, which :func:`qstr` does write, does not read back.
    """
    text = s.strip()
    shown = abbreviate(s)
    if not _RATIONAL.fullmatch(text):
        raise ValueError("bad rational %r: expected p or p/q with integer p, q of at "
                         "most %d digits each" % (shown, MAX_DIGITS))
    try:  # decimal is exact past int's digit limit (4300 by default)
        return Q(*(int(decimal.Decimal(part)) for part in text.split("/")))
    except ZeroDivisionError:
        raise ValueError("bad rational %r: zero denominator" % shown) from None


def accumulate(out, key, value):
    """Add ``value`` into ``out[key]``; a key whose sum is zero is dropped."""
    cur = out.get(key)
    if cur is not None:
        value = cur + value
    if value:
        out[key] = value
    else:
        out.pop(key, None)


class Combination:
    """A finite exact combination: ``terms`` maps a key to a nonzero value.

    A value is an exact coefficient or itself a combination (the
    components of a face-indexed element).  A subclass supplies
    ``_shape()``, its ``(space, degree)``, and ``_like(terms)``, a result
    of the same shape.  Summands must share the space; a zero summand
    returns the other operand, and otherwise the degrees must agree
    (``None`` means ungraded).  Equal means same class, space and terms.
    """

    __slots__ = ()
    __hash__ = None

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        (space, deg), (ospace, odeg) = self._shape(), other._shape()
        if ospace != space:
            raise ValueError("%s summands live on different spaces"
                             % type(self).__name__)
        if not other.terms:
            return self
        if not self.terms:
            return other
        if deg != odeg:
            raise ValueError("%s degree mismatch" % type(self).__name__)
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return self._like(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = exact(c)
        return self._like({k: v * c for k, v in self.terms.items()} if c else {})

    def __eq__(self, other):
        return (type(other) is type(self)
                and self._shape()[0] == other._shape()[0]
                and self.terms == other.terms)
