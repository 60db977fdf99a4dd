"""Command-line interface: operands, reports, exit codes, stability."""

import copy
import hashlib
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from simplicial_derham import cli, philocal, phiglobal, verify
from simplicial_derham.cli import main
from simplicial_derham.sset import build

EDGE_CHAIN = {
    "space": "delta:1",
    "degree": 1,
    "terms": [{"simplex": [1, "0.1"], "exps": [0], "wedge": [1],
               "coeff": "1/1"}],
}

EDGE_FORM = {
    "space": "delta:1",
    "degree": 1,
    "values": [{"simplex": [1, "0.1"],
                "terms": [{"exps": [0], "wedge": [1], "coeff": "1/1"}]}],
}

CONSTANT_FORM = {
    "space": "delta:1",
    "degree": 0,
    "values": [
        {"simplex": [0, "0"], "terms": [{"exps": [], "wedge": [],
                                         "coeff": "1/1"}]},
        {"simplex": [0, "1"], "terms": [{"exps": [], "wedge": [],
                                         "coeff": "1/1"}]},
        {"simplex": [1, "0.1"], "terms": [{"exps": [0], "wedge": [],
                                           "coeff": "1/1"}]},
    ],
}


def write(tmp_path, name, doc):
    """Write ``doc`` as JSON to ``name`` under ``tmp_path``, or verbatim if it is bytes."""
    path = tmp_path / name
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_homology_circle(capsys):
    code, rep = run_main(capsys, ["homology", "--space", "sphere:1",
                                  "--D", "3"])
    assert code == 0
    assert rep["matches_N"] is True
    assert rep["stable_image_dims"] == [1, 1]
    assert rep["D"] == 3


def test_homology_triangle(capsys):
    code, rep = run_main(capsys, ["homology", "--space", "delta:2",
                                  "--D", "2"])
    assert code == 0
    assert rep["stable_image_dims"] == [1, 0, 0]


def test_homology_rejects_too_small_D(capsys):
    # the top class of the 3-sphere first appears in G_D at D = 3
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--space", "sphere:3", "--D", "0"])
    msg = str(exc.value.code)
    assert msg == ("homology: weight bound D=0 is too small for dimension 3: "
                   "need D >= 3")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("expr,top", [("delta:4", 4), ("sphere:1", 1)])
def test_homology_default_D_is_top_dim(capsys, expr, top):
    # the default is the least bound the report accepts
    code, rep = run_main(capsys, ["homology", "--space", expr])
    assert code == 0
    assert rep["D"] == top
    assert rep["matches_N"] is True


@pytest.mark.parametrize("D", ["-5", "-1"])
def test_homology_too_small_D_names_least_bound(capsys, D):
    # the least accepted bound is the top dimension, never a negative one
    msg = one_line_exit(capsys, ["homology", "--space", "sphere:1", "--D", D])
    assert msg == ("homology: weight bound D=%s is too small for dimension 1: "
                   "need D >= 1" % D)


def one_line_exit(capsys, argv):
    """Run ``argv``; it must exit with a one-line message and print nothing."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    msg = exc.value.code
    assert isinstance(msg, str) and "\n" not in msg
    assert capsys.readouterr().out == ""
    return msg


# every known leak (ROADMAP item 1, still open): the space, D, and the weight
# and first leaked label that its refusal names
LEAKS = [
    ("product:(sphere:3,sphere:1)", 4, 7, "((1, '[*]x[j1]@y'), (8,), ())"),
    ("product:(sphere:1,sphere:3)", 4, 7, "((1, '[j1]x[*]@x'), (8,), ())"),
    ("product:(sphere:3,delta:1)", 4, 7, "((1, '[*]x[0.1]@y'), (8,), ())"),
    ("product:(delta:1,sphere:3)", 4, 7, "((1, '[0.1]x[*]@x'), (8,), ())"),
    ("product:(sphere:3,delta:1)", 5, 8, "((1, '[*]x[0.1]@y'), (9,), ())"),
    ("product:(quotient:(delta:3,boundary:3),sphere:1)", 4, 7,
     "((1, '[*]x[j1]@y'), (8,), ())"),
    ("product:(quotient:(delta:4,boundary:4),delta:1)", 5, 8,
     "((1, '[*]x[0.1]@y'), (9,), ())"),
]


def test_a_leaking_product_is_refused_naming_its_first_leaked_label(capsys):
    # a weight-0 fibre integral on a collapsed face leaves G_{D+3}; the line
    # names the first leaked label of the first column in the basis order
    # the refusal was written for
    for expr, D, W, label in LEAKS:
        msg = one_line_exit(capsys, ["homology", "--space", expr, "--D", str(D)])
        assert msg == ("homology: boundary left the truncation at weight %d: %s"
                       % (W, label)), expr


@pytest.mark.parametrize("expr", ["delta:-1", "boundary:-1",
                                  "product:(delta:1,delta:-1)"])
def test_homology_rejects_negative_dimension(capsys, expr):
    msg = one_line_exit(capsys, ["homology", "--space", expr])
    assert msg == "homology: simplex dimension must be >= 0, got -1"


@pytest.mark.parametrize("expr", ["delta:1_0", "sphere:+1", "delta:\u0661",
                                  "delta:1.5"])
def test_homology_rejects_bad_dimension(capsys, expr):
    msg = one_line_exit(capsys, ["homology", "--space", expr])
    assert msg == ("homology: bad dimension in %r: expected an optional '-' "
                   "and ASCII digits" % expr)


def test_homology_degree_slice(capsys):
    code, rep = run_main(capsys, ["homology", "--space", "sphere:1",
                                  "--D", "3", "--degrees", "1:1"])
    assert code == 0
    assert rep["stable_image_dims"] == [1]
    code, rep = run_main(capsys, ["homology", "--space", "sphere:1",
                                  "--D", "3", "--degrees", "0"])
    assert code == 0
    assert rep["stable_image_dims"] == [1]
    assert rep["dims_GD"] == [3]


@pytest.mark.parametrize("spec", ["3:7", "1:0", "0:2", "-1", "x", "1:", ":1",
                                  "0:1:1", " 1", ""])
def test_homology_degrees_are_validated(capsys, spec):
    msg = one_line_exit(capsys, ["homology", "--space", "sphere:1",
                                 "--D", "3", "--degrees", spec])
    assert msg == ("homology: --degrees must be lo:hi or n with "
                   "0 <= lo <= hi <= 1, got %r" % spec)


FROZEN = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "expected.json")


def test_homology_stdout_matches_frozen_bytes(capsys):
    # the benchmark's frozen homology responses, read only
    with open(FROZEN) as fh:
        frozen = json.load(fh)["homology"]
    assert len(frozen) == 19
    for key, want in sorted(frozen.items()):
        assert main(key.split()) == 0, key
        assert capsys.readouterr().out == want, key


def _local_keys(X, W):
    """The local keys ``(m, exps, S)`` of the labels of degree >= 1 in ``G_W``."""
    return {(m, e, S) for m in range(1, X.top_dim + 1) if X.nd_refs(m)
            for d in range(1, m + 1)
            for S in itertools.combinations(range(1, m + 1), d)
            for e in itertools.product(range(W - d + 1), repeat=m)
            if sum(e) <= W - d}


def test_homology_from_cached_kernels_matches_frozen_bytes(capsys):
    # the frozen requests again, in reverse order, from an empty kernel cache
    with open(FROZEN) as fh:
        frozen = json.load(fh)["homology"]
    philocal._monomial_boundary.cache_clear()
    phiglobal._pushed_boundary.cache_clear()
    keys = set()
    for key, want in sorted(frozen.items(), reverse=True):
        assert main(key.split()) == 0, key
        assert capsys.readouterr().out == want, key
        _, _, space, _, D = key.split()
        keys |= _local_keys(build(space), int(D) + 3)
    assert philocal._monomial_boundary.cache_info().currsize == len(keys)


def test_repeated_main_calls_share_no_state(capsys):
    _, rep = run_main(capsys, ["verify", "--suite", "theta"])
    _, rep = run_main(capsys, ["verify", "--suite", "ez"])
    assert [r["suite"] for r in rep["suites"]] == ["ez"]
    _, rep = run_main(capsys, ["homology", "--space", "delta:2", "--D", "5"])
    assert rep["D"] == 5
    _, rep = run_main(capsys, ["homology", "--space", "delta:2"])
    assert rep["D"] == 2
    assert cli._build_parser() is cli._build_parser()


def test_pair_unit_value(capsys, tmp_path):
    chain = write(tmp_path, "chain.json", EDGE_CHAIN)
    form = write(tmp_path, "form.json", EDGE_FORM)
    code, rep = run_main(capsys, ["pair", "--chain", chain, "--form", form])
    assert code == 0
    assert rep["value"] == "1/1"
    assert rep["cochain_valid"] is True


def test_pair_degree_mismatch_is_zero(capsys, tmp_path):
    chain = write(tmp_path, "chain.json", EDGE_CHAIN)
    form = write(tmp_path, "form.json", CONSTANT_FORM)
    code, rep = run_main(capsys, ["pair", "--chain", chain, "--form", form])
    assert code == 0
    assert rep["value"] == "0/1"


def test_pair_rejects_mixed_spaces(tmp_path):
    chain = write(tmp_path, "chain.json", EDGE_CHAIN)
    other = dict(EDGE_FORM, space="delta:2")
    form = write(tmp_path, "form.json", other)
    with pytest.raises(SystemExit):
        main(["pair", "--chain", chain, "--form", form])


def test_pair_writes_an_exact_value_past_the_int_digit_limit(capsys, tmp_path):
    # t1^8000 t2^8000 on delta:2 paired with 1 is 8000!^2 / 16002!, whose
    # denominator has more digits than "%d" writes
    X = build("delta:2")
    chain = dict(EDGE_CHAIN, space="delta:2", degree=0, terms=[
        {"simplex": [2, "0.1.2"], "exps": [8000, 8000], "wedge": [], "coeff": "1"}])
    form = dict(CONSTANT_FORM, space="delta:2", values=[
        {"simplex": list(ref), "terms": [{"exps": [0] * ref[0], "wedge": [], "coeff": "1"}]}
        for ref in X.all_nd_refs()])
    code, rep = run_main(capsys, ["pair", "--chain", write(tmp_path, "c.json", chain),
                                  "--form", write(tmp_path, "f.json", form)])
    want = Fraction(math.factorial(8000) ** 2, math.factorial(16002))
    p, q = rep["value"].split("/")
    assert code == 0 and len(q) > 4300
    assert (Decimal(p), Decimal(q)) == (want.numerator, want.denominator)


def test_product_writes_exact_coefficients_past_the_int_digit_limit(capsys, tmp_path):
    a, b = "7" * 4000, "-" + "3" * 4000
    left = write(tmp_path, "left.json", mutate(EDGE_CHAIN, ("terms", 0, "coeff"), a))
    right = write(tmp_path, "right.json", mutate(EDGE_CHAIN, ("terms", 0, "coeff"), b))
    unit = write(tmp_path, "unit.json", EDGE_CHAIN)
    _, want = run_main(capsys, ["product", "--left", unit, "--right", unit])
    code, rep = run_main(capsys, ["product", "--left", left, "--right", right])
    answer, texts = write(tmp_path, "answer.json", rep), [t["coeff"] for t in rep["terms"]]
    assert code == 0 and len(want["terms"]) == len(rep["terms"]) == 2
    for got, unit_term in zip(rep["terms"], want["terms"]):
        p, q = got.pop("coeff").split("/")
        assert Decimal(p) == int(a) * int(b) * Fraction(unit_term.pop("coeff"))
        assert q == "1" and got == unit_term
    # the answer reads back exactly as an operand: times a point, it is itself
    point = write(tmp_path, "point.json", dict(EDGE_CHAIN, space="delta:0", degree=0, terms=[
        {"simplex": [0, "0"], "exps": [], "wedge": [], "coeff": "1"}]))
    code, back = run_main(capsys, ["product", "--left", answer, "--right", point])
    assert code == 0 and [t["coeff"] for t in back["terms"]] == texts


def test_product_of_edges(capsys, tmp_path):
    left = write(tmp_path, "left.json", EDGE_CHAIN)
    right = write(tmp_path, "right.json", EDGE_CHAIN)
    code, rep = run_main(capsys, ["product", "--left", left,
                                  "--right", right])
    assert code == 0
    assert rep["degree"] == 2
    assert rep["terms"] == [
        {"simplex": [2, "[0.1]x[0.1]@xy"], "exps": [0, 0], "wedge": [1, 2],
         "coeff": "1/1"},
        {"simplex": [2, "[0.1]x[0.1]@yx"], "exps": [0, 0], "wedge": [1, 2],
         "coeff": "-1/1"},
    ]


MISSING = object()


def mutate(doc, path, value):
    doc = copy.deepcopy(doc)
    *outer, last = path
    target = doc
    for key in outer:
        target = target[key]
    if value is MISSING:
        del target[last]
    else:
        target[last] = value
    return doc


def _bad_fields(prefix, fields):
    return [(prefix + path, bad, name)
            for path, name, bads in fields for bad in (MISSING,) + bads]


# wedge=[] is well formed on the edge but one entry short of the degree
_TERM = [(("exps",), "exps", (0, [0.0], ["0"], [-1], [], [0, 0])),
         (("wedge",), "wedge", ("1", [True], [5], [0], [1, 1], [])),
         (("coeff",), "coeff", (1, None, ["1/1"]))]
_SIMPLEX = [(("simplex",), "simplex", (5, [1], [1, "0.1", 2], ["1", "0.1"],
                                      [1, "x"], [2, "0.1"]))]
_HEAD = [(("space",), "space", (5, ["delta:1"])),
         (("degree",), "degree", ("1", 1.0, [1]))]

BAD_CHAINS = (_bad_fields((), _HEAD + [(("terms",), "terms", ({}, "x"))])
              + [(("terms", 0), 5, "simplex")]
              + _bad_fields(("terms", 0), _SIMPLEX + _TERM))
BAD_FORMS = (_bad_fields((), _HEAD + [(("values",), "values", ({}, 3))])
             + _bad_fields(("values", 0), _SIMPLEX
                           + [(("terms",), "terms", ("x",))])
             + _bad_fields(("values", 0, "terms", 0), _TERM))


def _message_head(field, bad):
    """How the one-line message for a bad ``field`` value begins."""
    verb = "have 1 entries" if (field, bad) == ("wedge", []) else "be"
    return "operand field %r must %s" % (field, verb)


def _case_id(case):
    path, bad, _ = case
    return "/".join(map(str, path)) + ("=missing" if bad is MISSING else "=%r" % (bad,))


@pytest.mark.parametrize("case", BAD_CHAINS, ids=_case_id)
def test_chain_operand_shape_is_validated(capsys, tmp_path, case):
    path, bad, field = case
    chain = write(tmp_path, "chain.json", mutate(EDGE_CHAIN, path, bad))
    form = write(tmp_path, "form.json", EDGE_FORM)
    edge = write(tmp_path, "edge.json", EDGE_CHAIN)
    for argv in (["pair", "--chain", chain, "--form", form],
                 ["product", "--left", edge, "--right", chain]):
        msg = one_line_exit(capsys, argv)
        assert msg.startswith(argv[0] + ": " + _message_head(field, bad)), msg


@pytest.mark.parametrize("case", BAD_FORMS, ids=_case_id)
def test_form_operand_shape_is_validated(capsys, tmp_path, case):
    path, bad, field = case
    chain = write(tmp_path, "chain.json", EDGE_CHAIN)
    form = write(tmp_path, "form.json", mutate(EDGE_FORM, path, bad))
    msg = one_line_exit(capsys, ["pair", "--chain", chain, "--form", form])
    assert msg.startswith("pair: " + _message_head(field, bad)), msg


def test_pair_rejects_operands_on_different_spaces(tmp_path):
    chain = write(tmp_path, "chain.json", EDGE_CHAIN)
    form = write(tmp_path, "form.json", dict(EDGE_FORM, space="delta:2"))
    proc = subprocess.run(
        [sys.executable, "-m", "simplicial_derham.cli", "pair",
         "--chain", chain, "--form", form],
        capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("pair: operand field 'space' must be the same in both "
                           "operands, got \"delta:1\" and \"delta:2\"\n")


@pytest.mark.parametrize("coeff", ["0.5", "1e3", "1/0", "1/-2", "one", ""])
def test_operands_reject_bad_rationals(capsys, tmp_path, coeff):
    bad = write(tmp_path, "chain.json",
                mutate(EDGE_CHAIN, ("terms", 0, "coeff"), coeff))
    form = write(tmp_path, "form.json", EDGE_FORM)
    for argv in (["pair", "--chain", bad, "--form", form],
                 ["product", "--left", bad, "--right", bad]):
        msg = one_line_exit(capsys, argv)
        assert msg.startswith(argv[0] + ": bad rational %r" % coeff), msg


_VERTEX = {"id": "a", "faces": []}
# delta:1 as homology_oracle.to_jsonable writes it
EDGE_SPACE = {"dims": 1, "simplices": {
    "0": [_VERTEX, {"id": "b", "faces": []}],
    "1": [{"id": "e", "faces": [{"surj": [0], "base": "b"},
                                {"surj": [0], "base": "a"}]}]}}
_FACE = ("simplices", "1", 0, "faces", 0)

BAD_SPACE_FILES = [
    ([], "dims"),
    (mutate(EDGE_SPACE, ("dims",), "x"), "dims"),
    (mutate(EDGE_SPACE, ("dims",), True), "dims"),
    (mutate(EDGE_SPACE, ("dims",), 2), "dims"),
    # a huge bound is refused up front, not looped over
    ({"dims": 10 ** 7, "simplices": {"0": [_VERTEX]}}, "dims"),
    (mutate(EDGE_SPACE, ("simplices",), []), "simplices"),
    (mutate(EDGE_SPACE, ("simplices", "1"), {}), "simplices"),
    (mutate(EDGE_SPACE, ("simplices", "7"), [_VERTEX]), "simplices"),
    (mutate(EDGE_SPACE, ("simplices", "01"), []), "simplices"),
    (mutate(EDGE_SPACE, ("simplices", "0", 0), 5), "id"),
    (mutate(EDGE_SPACE, ("simplices", "0", 0, "faces"), MISSING), "faces"),
    (mutate(EDGE_SPACE, _FACE + ("surj",), []), "surj"),
    (mutate(EDGE_SPACE, _FACE + ("surj",), [True]), "surj"),
    (mutate(EDGE_SPACE, _FACE + ("surj",), [1, 0]), "surj"),
    (mutate(EDGE_SPACE, _FACE + ("base",), 0), "base"),
]


@pytest.mark.parametrize("doc,field", BAD_SPACE_FILES)
def test_space_file_shape_is_validated(capsys, tmp_path, doc, field):
    path = write(tmp_path, "space.json", doc)
    msg = one_line_exit(capsys, ["homology", "--space", "file:" + path])
    assert msg.startswith("homology: space file field %r must be" % field), msg


@pytest.mark.parametrize("doc,want", [
    (EDGE_SPACE, [1, 0]),
    ({"dims": 0, "simplices": {"0": [_VERTEX]}}, [1]),
    ({"dims": 0, "simplices": {}}, [0]),
    ({"dims": 2, "simplices": {"0": [_VERTEX], "2": [
        {"id": "s", "faces": [{"surj": [0, 0], "base": "a"}] * 3}]}}, [1, 0, 1]),
])
def test_space_file_accepted(capsys, tmp_path, doc, want):
    # degree keys may be omitted when they hold no cell
    path = write(tmp_path, "space.json", doc)
    code, rep = run_main(capsys, ["homology", "--space", "file:" + path])
    assert code == 0
    assert rep["stable_image_dims"] == want and rep["matches_N"] is True


@pytest.mark.parametrize("command,content", [
    ("homology", "not json"), ("homology", "[" * 100000),
    ("pair", "not json"), ("pair-space", "not json"),
    ("product", "not json"), ("product", b"\xff\xfe"),
])
def test_non_json_file_is_named(capsys, tmp_path, command, content):
    bad = tmp_path / "bad.json"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content)
    bad = str(bad)
    chain = write(tmp_path, "chain.json", EDGE_CHAIN)
    form = write(tmp_path, "form.json", EDGE_FORM)
    # operands that parse but live on the bad space file
    chain_on_bad = write(tmp_path, "c.json", dict(EDGE_CHAIN, space="file:" + bad))
    form_on_bad = write(tmp_path, "f.json", dict(EDGE_FORM, space="file:" + bad))
    argv, kind = {
        "homology": (["homology", "--space", "file:" + bad], "space"),
        "pair": (["pair", "--chain", bad, "--form", form], "operand"),
        "pair-space": (["pair", "--chain", chain_on_bad, "--form", form_on_bad],
                       "space"),
        "product": (["product", "--left", chain, "--right", bad], "operand"),
    }[command]
    msg = one_line_exit(capsys, argv)
    assert msg.startswith("%s: %s file %r is not JSON: " % (argv[0], kind, bad)), msg
    if content == "not json":
        assert msg.endswith(": Expecting value: line 1 column 1 (char 0)"), msg


def test_verify_exit_codes(capsys):
    code, rep = run_main(capsys, ["verify", "--suite", "shuffles",
                                  "--suite", "integration",
                                  "--cases", "40"])
    assert code == 0
    assert rep["pass"] is True
    assert {r["suite"] for r in rep["suites"]} == {"shuffles", "integration"}


def test_verify_rejects_negative_cases(capsys):
    msg = one_line_exit(capsys, ["verify", "--suite", "shuffles",
                                 "--cases", "-3"])
    assert msg.startswith("verify: --cases must be a nonnegative integer"), msg
    assert msg.endswith("got -3"), msg


def test_verify_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense"])


def test_verify_failing_check_reports_first_witness(capsys, monkeypatch):
    # a failing check stops at its first witness and counts the cases run
    monkeypatch.setattr(verify, "shuffle_count", lambda parts: -1)
    code, rep = run_main(capsys, ["verify", "--suite", "shuffles"])
    assert code == 1 and rep["pass"] is False
    *passed, failed = rep["suites"][0]["checks"]
    assert all(c["pass"] and "counterexample" not in c for c in passed)
    assert failed == {"name": "operadic composition bijective (n+m+p<=6)",
                      "cases": 1, "pass": False,
                      "counterexample": "n=0 m=0 p=0"}


def test_verify_runs_every_check_at_least_once(capsys):
    # --cases 1 used to let three checks pass on "cases": 0
    code, rep = run_main(capsys, ["verify", "--suite", "all", "--cases", "1"])
    assert code == 0 and rep["pass"] is True
    checks = [c for suite in rep["suites"] for c in suite["checks"]]
    assert len(checks) >= 30
    assert all(c["cases"] >= 1 for c in checks), [
        c["name"] for c in checks if not c["cases"]]


def test_verify_check_with_no_case_fails(capsys, monkeypatch):
    # an identity that ran on nothing is reported as failing, not passing
    monkeypatch.setattr(verify, "enumerate_shuffles", lambda parts: iter(()))
    code, rep = run_main(capsys, ["verify", "--suite", "shuffles"])
    assert code == 1 and rep["pass"] is False
    assert rep["suites"][0]["checks"][1] == {
        "name": "joint injectivity", "cases": 0, "pass": False,
        "counterexample": "no case ran"}


def counting_builders(monkeypatch):
    """Empty the verify memos; return the lists that ``build`` and
    ``product`` append to from now on (names, and factor-name pairs)."""
    from simplicial_derham import colimit, sset

    build, product, built, made = verify.build, sset.product, [], []

    def counting_build(expr):
        built.append(expr)
        return build(expr)

    def counting_product(X, Y, name=None):
        made.append((X.name, Y.name))
        return product(X, Y, name)

    monkeypatch.setattr(verify, "build", counting_build)
    for module in (sset, verify, colimit):
        monkeypatch.setattr(module, "product", counting_product)
    verify._space.cache_clear()
    verify._product.cache_clear()
    return built, made


def test_ez_suite_builds_each_corpus_space_once(monkeypatch):
    # the space memo lives for the process: one build per builder name, a
    # corpus product from the two factor spaces, however often ez runs
    built, made = counting_builders(monkeypatch)
    for seed in (7, 1):
        assert verify.run_suite("ez", seed=seed)["pass"]
    assert sorted(built) == sorted(n for n in verify.CORPUS if not n.startswith("product:"))
    assert sorted(made) == [("delta:1", "delta:1"), ("sphere:1", "sphere:1")]
    assert [verify._space(n).name for n in verify.CORPUS] == list(verify.CORPUS)


def test_suites_build_each_product_once_per_pair(monkeypatch):
    # the memos live for the process: monoidal, colimit and ez at two seeds
    # build each space and each product of two spaces at most once in all
    built, made = counting_builders(monkeypatch)
    counts = {}
    for seed in (7, 1):
        for suite in ("monoidal", "colimit", "ez"):
            before = len(made)
            assert verify.run_suite(suite, seed=seed)["pass"]
            counts[seed, suite] = len(made) - before
    assert len(set(made)) == len(made) and len(set(built)) == len(built)
    # the new (X, Y) each call draws; ez's corpus products were drawn before
    assert counts == {(7, "monoidal"): 9, (7, "colimit"): 5, (7, "ez"): 0,
                      (1, "monoidal"): 0, (1, "colimit"): 2, (1, "ez"): 0}
    # all 16 pairs of colimit's four spaces, which contain monoidal's three
    assert len(made) == 16


def test_verify_refuses_cases_above_the_bound(capsys, monkeypatch):
    # 50 times the largest suite default; larger values ran until killed
    defaults = [inspect.signature(fn).parameters["cases"].default
                for fn in verify.REGISTRY.values()]
    assert verify.MAX_CASES == 50 * max(defaults) == 10000

    def no_suite(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "run_suite", no_suite)
    for cases in (verify.MAX_CASES + 1, 10 ** 21):
        msg = one_line_exit(capsys, ["verify", "--suite", "theta",
                                     "--cases", str(cases)])
        assert msg == ("verify: --cases must be a nonnegative integer, at most "
                       "10000 (0 means each suite's default), got %d" % cases)


SEED7_SHA256 = "3176a39e454e78fb4b28acb4eccf87a0317b201c2c6ceca3238b54a7580fadc0"
SEED11_SHA256 = "a56ca1cfd8155cc1a3f217aa10c3a6c107192e211c9f800d4ed685e39959e24e"
SEED1_SHA256 = "c8cdf6dbe5a08b2feca71bf5910cb2c2298e5e8d04e9acf58b1e0be1cf5ea834"


def test_verify_all_repeats_byte_identically_in_one_process(capsys):
    # the shuffle and composition caches and the verify memos of spaces,
    # products and key pools live as long as the process: no request may
    # see another's state
    def digest(seed):
        assert main(["verify", "--suite", "all", "--seed", str(seed)]) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    assert digest(11) == SEED11_SHA256
    assert digest(7) == SEED7_SHA256
    assert digest(1) == SEED1_SHA256
    assert digest(7) == SEED7_SHA256


def test_verify_all_seed7_sha256(capsys):
    assert main(["verify", "--suite", "all", "--seed", "7"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == SEED7_SHA256


@pytest.mark.parametrize("seed,digest", [
    (1, SEED1_SHA256),
    (2, "cbd1a94deb9df024784d67dacc98e09e797e3826973528ccdb51105a41657500"),
    (3, "e3f764134910c94923f379c5c3a4e56f24f1344d70203e8d512752ed3ae110f0"),
])
def test_verify_all_sha256_at_more_seeds(capsys, seed, digest):
    # pins the random draw order of the generators and the colimit loops
    assert main(["verify", "--suite", "all", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_verify_byte_stable(capsys):
    argv = ["verify", "--suite", "adjunction", "--cases", "25", "--seed", "7"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_out_file_written(capsys, tmp_path):
    target = tmp_path / "report.json"
    code = main(["homology", "--space", "delta:1", "--D", "2",
                 "--out", str(target)])
    printed = capsys.readouterr().out
    assert code == 0
    assert json.loads(target.read_text()) == json.loads(printed)


def test_out_file_in_missing_directory_exits_1(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    msg = one_line_exit(capsys, ["homology", "--space", "delta:1",
                                 "--out", str(target)])
    assert msg == ("homology: cannot write --out %s: No such file or directory"
                   % target)


def test_out_file_on_a_directory_exits_1(capsys, tmp_path):
    msg = one_line_exit(capsys, ["verify", "--suite", "shuffles",
                                 "--out", str(tmp_path)])
    assert msg == "verify: cannot write --out %s: Is a directory" % tmp_path


def test_out_is_refused_before_any_assembly(capsys, tmp_path, monkeypatch):
    built = []
    monkeypatch.setattr(phiglobal, "truncated_complex",
                        lambda X, W: built.append(W))
    for target, why in [(tmp_path, "Is a directory"),
                        (tmp_path / "missing" / "x.json",
                         "No such file or directory")]:
        msg = one_line_exit(capsys, ["homology", "--space", "sphere:2",
                                     "--out", str(target)])
        assert msg == "homology: cannot write --out %s: %s" % (target, why)
    assert built == []
    assert list(tmp_path.iterdir()) == []


def test_a_failed_run_leaves_the_out_file_as_it_was(capsys, tmp_path):
    kept = tmp_path / "kept.json"
    kept.write_text("earlier report\n")
    fresh = tmp_path / "fresh.json"
    for target in (kept, fresh):
        msg = one_line_exit(capsys, ["homology", "--space", "nosuch",
                                     "--out", str(target)])
        assert msg == "homology: bad expression 'nosuch'"
    assert kept.read_text() == "earlier report\n"
    assert not fresh.exists()


def test_unknown_suite_exits_1_with_the_command_prefix(capsys):
    msg = one_line_exit(capsys, ["verify", "--suite", "shuffles", "--suite", "nosuch"])
    assert msg == ("verify: unknown suite 'nosuch'; known: %s"
                   % ", ".join(sorted(verify.REGISTRY)))


_HUGE = "99999999999999999999"
_LONG = "1" * 5000  # more digits than int() converts


def nested(depth):
    """A product of points nested ``depth`` levels deep on the left."""
    return "product:(" * depth + "delta:0" + ",delta:0)" * depth


# one row per kind of malformed input: the argv (a dict stands for an
# operand file holding it, bytes for one holding them verbatim) and what
# the one-line message names
MALFORMED = [
    (["homology", "--space", "nosuch"], "bad expression 'nosuch'"),
    (["homology", "--space", "delta:2", "--D", "1"], "weight bound D=1 is too small"),
    (["homology", "--space", "delta:1", "--D", _HUGE],
     "weight bound D=%s needs G_{D+3} of 2%s7 labels, over the limit of 1000000"
     % (_HUGE, "0" * 19)),
    (["homology", "--space", "sphere:" + _HUGE],
     "'sphere:%s' would build more than 1000000 cells" % _HUGE),
    (["homology", "--space", "delta:" + _LONG],
     "'delta:111...111 (5000 digits)' would build more than 1000000 cells"),
    (["homology", "--space", "product:(delta:1,delta:%s)" % _LONG],
     "'delta:111...111 (5000 digits)' would build more than 1000000 cells"),
    (["homology", "--space", "delta:-" + _LONG],
     "'delta:-111...111 (5000 digits)': dimension must be >= 0"),
    (["homology", "--space", "product:(delta:6,delta:6)"],
     "'product:(delta:6,delta:6)' would build more than 1000000 cells"),
    (["pair", "--chain", mutate(EDGE_CHAIN, ("degree",), "1"), "--form", EDGE_FORM],
     "operand field 'degree' must be an integer"),
    (["product", "--left", EDGE_CHAIN, "--right", mutate(EDGE_CHAIN, ("terms",), MISSING)],
     "operand field 'terms' must be a list"),
    (["pair", "--chain", mutate(EDGE_CHAIN, ("degree",), 2), "--form", EDGE_FORM],
     "operand field 'wedge' must have 2 entries"),
    (["homology", "--space", "delta:2", "--degrees", "2:1"], "--degrees must be lo:hi"),
    (["pair", "--chain", mutate(EDGE_CHAIN, ("terms", 0, "coeff"), "1/0"),
      "--form", EDGE_FORM], "bad rational '1/0'"),
    (["homology", "--space", "delta:1", "--degrees", _LONG],
     "--degrees must be lo:hi or n with 0 <= lo <= hi <= 1, got '111...111 (5000 characters)'"),
    (["pair", "--chain", mutate(EDGE_CHAIN, ("terms", 0, "coeff"), "1" * 20001), "--form",
      EDGE_FORM], "bad rational '111...111 (20001 characters)': expected p or p/q with "
     "integer p, q of at most 20000 digits each"),
    (["verify", "--suite", "nosuch"], "unknown suite 'nosuch'"),
    (["pair", "--chain", json.dumps(EDGE_CHAIN).replace('"degree": 1', '"degree": ' + _LONG)
      .encode(), "--form", EDGE_FORM],
     "holds an integer of more than 4300 digits"),
    (["homology", "--space", nested(1000)], "expression nests more than 500 levels deep"),
    (["homology", "--space", "product:(file:a(b.json,delta:0)"],
     "the parentheses of a product or quotient do not balance"),
    (["homology", "--space", "product:(delta:1),(delta:1)"],
     "the parentheses of a product or quotient do not balance"),
    (["homology", "--space", "product:(delta:1%s)" % (" " * 3000)],
     "expected two comma-separated arguments: 'del...    (3007 characters)'"),
    (["homology", "--space", "quotient:(delta:1,%s)" % ("x" * 300)],
     "bad expression 'xxx...xxx (300 characters)'"),
    (["homology", "--space", "x" * 300 + ":1"], "unknown builder 'xxx...xxx (300 characters)'"),
    (["homology", "--space", "quotient:(quotient:(delta:1,delta:%s),delta:2)" % ("0" * 300)],
     "(0, '0') is not a cell of quo...00) (325 characters)"),
    (["homology", "--space", "product:(delta:6,delta:%s6)" % ("0" * 300)],
     "'pro...06) (325 characters)' would build more than 1000000 cells"),
    (["homology", "--space", "delta:%s30" % ("0" * 300)],
     "'del...030 (308 characters)' would build more than 1000000 cells"),
    (["homology", "--space", "delta:" + "x" * 300],
     "bad dimension in 'del...xxx (306 characters)'"),
]


@pytest.mark.parametrize("argv,names", MALFORMED, ids=[
    "expression", "small-D", "over-budget-D", "huge-dimension", "long-dimension",
    "long-dimension-in-product", "long-negative-dimension", "over-budget-product",
    "mistyped-field", "missing-field", "mismatched-degrees", "degree-slice",
    "rational", "long-degree-slice", "long-rational", "suite", "long-json-integer",
    "deep-nesting", "unbalanced-file-path", "negative-depth", "long-arguments",
    "long-bad-expression", "long-builder", "long-quotient-name", "long-product-name",
    "long-padded-dimension", "long-bad-dimension"])
def test_malformed_input_exits_1_with_one_line(capsys, tmp_path, monkeypatch, argv, names):
    # no basis is listed, no cube is built and no product cell is made for
    # an input that is refused; the line echoes no input at full length
    from simplicial_derham import sset

    for module, name in ((phiglobal, "_bases"), (sset, "cube"), (sset, "_paths")):
        monkeypatch.setattr(module, name, lambda *args: pytest.fail("work began"))
    argv = [write(tmp_path, "operand%d.json" % i, a) if isinstance(a, (dict, bytes)) else a
            for i, a in enumerate(argv)]
    msg = one_line_exit(capsys, argv)
    assert msg.startswith("%s: " % argv[0]) and names in msg, msg
    assert len(msg) < 200, msg


def test_nesting_up_to_the_limit_is_built(capsys):
    # one level more is refused by the table above; at the limit the build
    # recurses, on the left or the right, under the test runner's frames
    from simplicial_derham.sset import MAX_NESTING

    assert MAX_NESTING == 500
    for expr in (nested(500), "product:(delta:0," * 500 + "delta:0" + ")" * 500):
        code, rep = run_main(capsys, ["homology", "--space", expr, "--D", "1"])
        assert code == 0 and rep["dims_GD"] == [1] and rep["matches_N"] is True
    msg = one_line_exit(capsys, ["homology", "--space", nested(501)])
    assert msg == "homology: expression nests more than 500 levels deep"


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "simplicial_derham.cli", "verify",
         "--suite", "shuffles", "--suite", "delta-squared",
         "--cases", "30"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["pass"] is True


def test_closed_stdout_exits_1_with_one_line(tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "simplicial_derham.cli", "verify",
         "--suite", "theta", "--seed", "7", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == "verify: stdout was closed before the report was written\n"
    assert json.loads(out.read_text())["pass"] is True
