"""Command-line interface: operands, reports, exit codes, stability."""

import copy
import hashlib
import itertools
import json
import os
import subprocess
import sys

import pytest

from simplicial_derham import cli, phiglobal, verify
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
    path = tmp_path / name
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
    phiglobal._local_boundary.cache_clear()
    phiglobal._pushed_boundary.cache_clear()
    keys = set()
    for key, want in sorted(frozen.items(), reverse=True):
        assert main(key.split()) == 0, key
        assert capsys.readouterr().out == want, key
        _, _, space, _, D = key.split()
        keys |= _local_keys(build(space), int(D) + 3)
    assert phiglobal._local_boundary.cache_info().currsize == len(keys)


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
# delta:1 as to_jsonable writes it
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


def test_ez_suite_builds_each_corpus_space_once(monkeypatch):
    build, built = verify.build, []

    def counting_build(expr):
        built.append(expr)
        return build(expr)

    monkeypatch.setattr(verify, "build", counting_build)
    assert verify.run_suite("ez")["pass"]
    assert sorted(built) == sorted(verify.CORPUS)


def test_suites_build_each_product_once_per_pair(monkeypatch):
    from simplicial_derham import colimit, sset

    product, made = sset.product, []

    def counting_product(X, Y, name=None):
        made.append((X.name, Y.name))
        return product(X, Y, name)

    for module in (sset, verify, colimit):
        monkeypatch.setattr(module, "product", counting_product)
    counts = {}
    for suite in ("monoidal", "colimit", "ez"):
        del made[:]
        assert verify.run_suite(suite, seed=7)["pass"]
        assert len(set(made)) == len(made), suite
        counts[suite] = len(made)
    # one product per distinct (X, Y) that the seed-7 call draws
    assert counts == {"monoidal": 9, "colimit": 13, "ez": 2}


SEED7_SHA256 = "3176a39e454e78fb4b28acb4eccf87a0317b201c2c6ceca3238b54a7580fadc0"
SEED11_SHA256 = "a56ca1cfd8155cc1a3f217aa10c3a6c107192e211c9f800d4ed685e39959e24e"


def test_verify_all_repeats_byte_identically_in_one_process(capsys):
    # the shuffle and composition caches live as long as the process: no
    # request may see another's state, the bench command included
    def digest(seed):
        assert main(["verify", "--suite", "all", "--seed", str(seed)]) == 0
        return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    assert digest(11) == SEED11_SHA256
    assert digest(7) == SEED7_SHA256
    code, rep = run_main(capsys, ["bench", "--suite", "all"])
    assert code == 0 and rep["pass"]
    assert digest(7) == SEED7_SHA256


def test_verify_all_seed7_sha256(capsys):
    assert main(["verify", "--suite", "all", "--seed", "7"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == SEED7_SHA256


@pytest.mark.parametrize("seed,digest", [
    (1, "c8cdf6dbe5a08b2feca71bf5910cb2c2298e5e8d04e9acf58b1e0be1cf5ea834"),
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


def test_bench_reports_times(capsys):
    code, rep = run_main(capsys, ["bench", "--suite", "shuffles"])
    assert code == 0
    row, = rep["suites"]
    assert row["suite"] == "shuffles"
    assert isinstance(row["elapsed_ms"], int)


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
