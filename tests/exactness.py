"""The canonical form of an exact coefficient, as the tests check it."""

from fractions import Fraction


def is_canonical(v):
    """An ``int`` (not a ``bool``), or a ``Fraction`` that is not integral; never a float."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def theta_coeffs(a):
    """Every coefficient of a ``PhiElt``, over all its components and terms."""
    return [c for alpha in a.comps.values() for c in alpha.terms.values()]
