"""Exact rational strings: the documented ``p/q`` grammar and nothing else."""

import pytest

from simplicial_derham.colimit import UElt
from simplicial_derham.ordmaps import OrdMap
from simplicial_derham.philocal import PhiElt
from simplicial_derham.phiglobal import PhiChain
from simplicial_derham.polyforms import FormElt, Poly, ThetaElt
from simplicial_derham.rationals import Q, abbreviate_path, exact, qparse, qstr
from simplicial_derham.sset import DegSimplex, build


@pytest.mark.parametrize("text,want", [
    ("1/2", Q(1, 2)), (" -3 ", Q(-3)), ("+4/6", Q(2, 3)), ("0", Q(0)),
    ("-0/5", Q(0)), ("12/1", Q(12)),
])
def test_qparse_accepts_p_over_q(text, want):
    assert qparse(text) == want
    assert qparse(qstr(want)) == want


@pytest.mark.parametrize("text", [
    "0.5", "1e3", "1/0", "1/-2", "1 / 2", "1_000", "--1", "/2", "1/", "", "inf",
    "nan", "١", pytest.param("1" * 20001, id="over-long"),
    pytest.param("1/" + "0" * 5000, id="long-zero-denominator"),
])
def test_qparse_rejects_everything_else(text):
    with pytest.raises(ValueError):
        qparse(text)


@pytest.mark.parametrize("path,want", [
    ("/tmp/x.json", "/tmp/x.json"),
    ("/" + "d" * 49, "/" + "d" * 49),
    ("/" + "d" * 50 + "/x.json", ".../x.json"),
    ("/" + "d" * 50 + "/x.json//", ".../x.json"),
    ("/d/" + "x" * 60, ".../xxx...xxx (60 characters)"),
    ("x" * 3000, ".../xxx...xxx (3000 characters)"),
    ("/" * 60, "...////.../// (60 characters)"),
])
def test_a_long_path_keeps_its_file_name(path, want):
    assert abbreviate_path(path) == want


def test_exact_gives_the_canonical_form():
    assert type(exact(Q(4, 2))) is int and exact(Q(4, 2)) == 2
    assert exact(Q(1, 2)) == Q(1, 2) and type(exact(Q(1, 2))) is Q
    assert type(exact(True)) is int and exact(-3) == -3


@pytest.mark.parametrize("build", [
    lambda: exact(0.5),
    lambda: exact("1/2"),
    lambda: Poly(1, {(1,): 0.5}),
    lambda: Poly(1, {(1,): 1}).scale(2.0),
    lambda: ThetaElt.monomial(1, (0,), (1,), 1.0),
    lambda: PhiChain(build("delta:1"), 1, {((1, "0.1"), ((0,), (1,))): 0.25}),
    lambda: UElt((1,), build("delta:1"), 0,
                 {((1,), DegSimplex(OrdMap((0, 0), 0), (0, "0"))): 0.5}),
])
def test_no_float_reaches_a_coefficient(build):
    with pytest.raises(TypeError, match="int or a Fraction"):
        build()


def _graded(cls, twin):
    return lambda: dict(x=cls.monomial(2, (1, 0), (1,), 3), z=cls.zero(2),
                        far=cls.zero(1), twin=twin.monomial(2, (1, 0), (1,), 3))


def _phi_chain():
    X = build("delta:1")
    vertex = ((0, "0"), ((), ()))
    return dict(x=PhiChain(X, 1, {((1, "0.1"), ((0,), (1,))): 2}),
                z=PhiChain.zero(X, 1), far=PhiChain.zero(build("delta:2"), 1),
                y=PhiChain(X, 0, {vertex: Q(1, 2)}), zy=PhiChain.zero(X, 0))


def _u_elt():
    X = build("delta:1")
    cell = DegSimplex(OrdMap((0, 0, 1), 1), (1, "0.1"))  # level 2, jumps 1 and 2
    vertex = DegSimplex(OrdMap((0, 0), 0), (0, "0"))  # level 1, the label jumps
    return dict(x=UElt((1,), X, 1, {((1,), cell): 2}), z=UElt.zero((1,), X, 1),
                far=UElt.zero((2,), X, 1), y=UElt((1,), X, 0, {((1,), vertex): -1}),
                zy=UElt.zero((1,), X, 0))


# per class: a nonzero x, a zero z of its space and degree, a zero of
# another space; graded classes add y, nonzero in another degree, and its
# zero zy; the two dual-form classes add a twin of the other class
COMBINATIONS = {
    "Poly": lambda: dict(x=Poly(2, {(1, 0): 3}), z=Poly.zero(2),
                         far=Poly.zero(1)),
    "FormElt": _graded(FormElt, ThetaElt),
    "ThetaElt": _graded(ThetaElt, FormElt),
    "PhiElt": lambda: dict(x=PhiElt.include(2, (0, 1), ThetaElt.w(1, 1)),
                           z=PhiElt.zero(2, 1), far=PhiElt.zero(3, 1),
                           y=PhiElt.include(2, (0,), ThetaElt.monomial(0, (), ())),
                           zy=PhiElt.zero(2, 0)),
    "PhiChain": _phi_chain,
    "UElt": _u_elt,
}


@pytest.mark.parametrize("name", sorted(COMBINATIONS))
def test_combination_contract(name):
    c = COMBINATIONS[name]()
    x, z, far = c["x"], c["z"], c["far"]
    assert z + x is x and x + z is x
    assert (x - x).is_zero() and x.scale(0).is_zero() and not x.scale(0)
    assert -x == x.scale(-1) and x - z == x and x + x == x.scale(2)
    for a, b in ((x, far), (far, x), (z, far)):
        with pytest.raises(ValueError):
            a + b
    if "y" in c:
        with pytest.raises(ValueError):
            x + c["y"]
        assert z == c["zy"] and z + c["y"] is c["y"]
    if "twin" in c:
        assert x.terms == c["twin"].terms and x != c["twin"]
        with pytest.raises(TypeError):
            x + c["twin"]
    with pytest.raises(TypeError):
        hash(x)
