"""Exact rational strings: the documented ``p/q`` grammar and nothing else."""

import pytest

from simplicial_derham.linalg import QMatrix
from simplicial_derham.polyforms import Poly, ThetaElt
from simplicial_derham.rationals import Q, exact, qparse, qstr


@pytest.mark.parametrize("text,want", [
    ("1/2", Q(1, 2)), (" -3 ", Q(-3)), ("+4/6", Q(2, 3)), ("0", Q(0)),
    ("-0/5", Q(0)), ("12/1", Q(12)),
])
def test_qparse_accepts_p_over_q(text, want):
    assert qparse(text) == want
    assert qparse(qstr(want)) == want


@pytest.mark.parametrize("text", [
    "0.5", "1e3", "1/0", "1/-2", "1 / 2", "1_000", "--1", "/2", "1/", "", "inf",
    "nan", "١",
])
def test_qparse_rejects_everything_else(text):
    with pytest.raises(ValueError):
        qparse(text)


def test_exact_gives_the_canonical_form():
    assert type(exact(Q(4, 2))) is int and exact(Q(4, 2)) == 2
    assert exact(Q(1, 2)) == Q(1, 2) and type(exact(Q(1, 2))) is Q
    assert type(exact(True)) is int and exact(-3) == -3


@pytest.mark.parametrize("build", [
    lambda: exact(0.5),
    lambda: exact("1/2"),
    lambda: Poly(1, {(1,): 0.5}),
    lambda: Poly.monomial(1, (1,)).scale(2.0),
    lambda: ThetaElt.monomial(1, (0,), (1,), 1.0),
    lambda: QMatrix(1, 1).set(0, 0, 0.25),
])
def test_no_float_reaches_a_coefficient(build):
    with pytest.raises(TypeError, match="int or a Fraction"):
        build()
