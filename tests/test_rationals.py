"""Exact rational strings: the documented ``p/q`` grammar and nothing else."""

import pytest

from simplicial_derham.rationals import Q, qparse, qstr


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
