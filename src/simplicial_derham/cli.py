"""Command-line surface: homology pipelines, pairings, products, verification.

Operand files are JSON.  A chain operand is

    {"space": "delta:1", "degree": 1,
     "terms": [{"simplex": [1, "0.1"], "exps": [0], "wedge": [1],
                "coeff": "1/1"}]}

where ``space`` is a builder expression (``delta:n | boundary:n | sphere:k
| product:(a,b) | quotient:(a,sub) | file:path``), ``simplex`` is the
``[dimension, id]`` reference of a nondegenerate simplex, ``exps`` the
monomial exponents in the simplex coordinates ``t_1..t_n``, and ``wedge``
the strictly increasing dual-wedge index subset.  A form operand gives a
polynomial form on every nondegenerate simplex:

    {"space": "delta:1", "degree": 1,
     "values": [{"simplex": [1, "0.1"],
                 "terms": [{"exps": [0], "wedge": [1], "coeff": "1/1"}]}]}

with ``wedge`` now indexing ``ds`` factors.  Simplices omitted from
``values`` carry the zero form.  All rationals are ``"p/q"`` strings;
floats never appear in any input or output.  Reports are emitted with
sorted keys so byte-identical runs are reproducible for a fixed seed.
"""

import argparse
import functools
import json
import os
import re
import sys
import time

from .rationals import Q, qstr, qparse
from .polyforms import FormElt
from .phiglobal import (PhiChain, CochainForm, global_pair, validate_cochain,
                        homology_report)
from .monoidal import mu_phi
from .sset import build, field_error, load_json, product, typed_field
from .verify import REGISTRY, run_suite, DEFAULT_SEED


def _emit(report, out):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text, flush=True)


_KINDS = {int: "an integer", str: "a string", list: "a list"}


def _field(doc, name, kind):
    """``doc[name]`` if it is a ``kind``; a missing or mistyped field raises ValueError."""
    return typed_field("operand", doc, name, kind, _KINDS[kind])


def _int_list(doc, name):
    value = _field(doc, name, list)
    if any(type(v) is not int for v in value):
        raise field_error("operand", name, "a list of integers")
    return tuple(value)


def _monomial(doc, m, d):
    """The ``(exps, wedge)`` of a term of degree ``d`` on an ``m``-simplex."""
    exps = _int_list(doc, "exps")
    if len(exps) != m or any(v < 0 for v in exps):
        raise ValueError("operand field 'exps' must be a list of %d nonnegative "
                         "integers, one per coordinate of the simplex, got %s"
                         % (m, json.dumps(list(exps))))
    wedge = _int_list(doc, "wedge")
    if any(not 1 <= i <= m for i in wedge) or wedge != tuple(sorted(set(wedge))):
        raise ValueError("operand field 'wedge' must be strictly increasing "
                         "inside 1..%d, got %s" % (m, json.dumps(list(wedge))))
    if len(wedge) != d:
        raise ValueError("operand field 'wedge' must have %d entries, one per "
                         "degree of the operand, got %s"
                         % (d, json.dumps(list(wedge))))
    return exps, wedge


def _simplex(doc, X):
    value = _field(doc, "simplex", list)
    if len(value) != 2 or type(value[0]) is not int:
        raise ValueError("operand field 'simplex' must be a [dimension, id] pair")
    ref = (value[0], str(value[1]))
    if not X.has_ref(ref):
        raise ValueError("operand field 'simplex' must be a nondegenerate "
                         "simplex of the space, got %s" % json.dumps(value))
    return ref


def _parse_chain(doc, X=None):
    space = _field(doc, "space", str)
    if X is None:
        X = build(space)
    d = _field(doc, "degree", int)
    terms = {}
    for t in _field(doc, "terms", list):
        ref = _simplex(t, X)
        key = (ref, _monomial(t, ref[0], d))
        terms[key] = terms.get(key, Q(0)) + qparse(_field(t, "coeff", str))
    return space, PhiChain(X, d, {k: c for k, c in terms.items() if c})


def _parse_form(doc, X=None):
    space = _field(doc, "space", str)
    if X is None:
        X = build(space)
    d = _field(doc, "degree", int)
    values = {}
    for v in _field(doc, "values", list):
        ref = _simplex(v, X)
        n = ref[0]
        elt = values.get(ref, FormElt.zero(n))
        for t in _field(v, "terms", list):
            elt = elt + FormElt.monomial(n, *_monomial(t, n, d),
                                         qparse(_field(t, "coeff", str)))
        values[ref] = elt
    return space, CochainForm(X, d, values)


def _chain_terms_jsonable(chain):
    out = []
    for (ref, (e, S)), q in chain.sorted_terms():
        out.append({"simplex": [ref[0], ref[1]], "exps": list(e),
                    "wedge": list(S), "coeff": qstr(q)})
    return out


def _degree_range(spec, top):
    """``lo:hi`` or ``n`` (meaning ``n:n``) with ``0 <= lo <= hi <= top``."""
    m = re.fullmatch(r"([0-9]+)(?::([0-9]+))?", spec)
    if not m or not int(m[1]) <= int(m[2] or m[1]) <= top:
        raise ValueError("--degrees must be lo:hi or n with 0 <= lo <= hi <= %d, "
                         "got %r" % (top, spec))
    return int(m[1]), int(m[2] or m[1])


def cmd_homology(args):
    X = build(args.space)
    top = X.top_dim
    lo, hi = (0, top) if args.degrees is None else _degree_range(args.degrees, top)
    D = top if args.D is None else args.D
    try:
        rep = homology_report(X, D, name=args.space)
    except RuntimeError as err:
        return {"complex": args.space, "D": D, "error": str(err),
                "matches_N": False}, 1
    for key in ("dims_GD", "stable_image_dims"):
        rep[key] = rep[key][lo:hi + 1]
    return rep, 0 if rep["matches_N"] else 1


def cmd_verify(args):
    if args.cases < 0:
        raise ValueError("--cases must be a nonnegative integer (0 means each "
                         "suite's default), got %d" % args.cases)
    reports = [run_suite(n, seed=args.seed, cases=args.cases or None)
               for n in _expand_suites(args.suite)]
    ok = all(r["pass"] for r in reports)
    body = {"command": "verify", "seed": args.seed, "pass": ok,
            "suites": reports}
    return body, 0 if ok else 1


def cmd_pair(args):
    cdoc = load_json(args.chain, "operand")
    fdoc = load_json(args.form, "operand")
    cspace = _field(cdoc, "space", str)
    fspace = _field(fdoc, "space", str)
    if cspace != fspace:
        raise SystemExit("operands live on different spaces: %r vs %r"
                         % (cspace, fspace))
    X = build(cspace)
    _, chain = _parse_chain(cdoc, X)
    _, form = _parse_form(fdoc, X)
    violation = validate_cochain(form)
    value = global_pair(chain, form)
    rep = {"command": "pair", "space": cspace, "chain_degree": chain.d,
           "form_degree": form.d, "value": qstr(value),
           "cochain_valid": violation is None}
    if violation is not None:
        rep["cochain_violation"] = {"simplex": list(violation[0]),
                                    "face": violation[1]}
    return rep, 0


def cmd_product(args):
    lspace, left = _parse_chain(load_json(args.left, "operand"))
    rspace, right = _parse_chain(load_json(args.right, "operand"))
    P = product(left.X, right.X)
    out = mu_phi(P, left, right)
    rep = {"command": "product",
           "space": "product:(%s,%s)" % (lspace, rspace),
           "degree": out.d, "terms": _chain_terms_jsonable(out)}
    return rep, 0


def cmd_bench(args):
    rows = []
    ok = True
    for name in _expand_suites(args.suite):
        t0 = time.perf_counter()
        rep = run_suite(name, seed=args.seed)
        ms = int(round((time.perf_counter() - t0) * 1000))
        ok = ok and rep["pass"]
        rows.append({"suite": name, "pass": rep["pass"], "cases": rep["cases"],
                     "elapsed_ms": ms})
    return {"command": "bench", "seed": args.seed, "pass": ok,
            "suites": rows}, 0 if ok else 1


@functools.lru_cache(maxsize=None)
def _build_parser():
    p = argparse.ArgumentParser(
        prog="simplicial-derham",
        description="Exact rational de Rham chains on finite simplicial sets.")
    sub = p.add_subparsers(dest="command", required=True)

    h = sub.add_parser("homology", help="stabilized dual-form homology vs "
                                        "simplicial homology")
    h.add_argument("--space", required=True, help="builder expression")
    h.add_argument("--D", type=int, default=None,
                   help="weight truncation bound (default: the space's top "
                        "dimension, the least accepted)")
    h.add_argument("--degrees", help="degree slice lo:hi, or n for n:n")
    h.add_argument("--out", default="")
    h.set_defaults(run=cmd_homology)

    v = sub.add_parser("verify", help="run named identity suites")
    v.add_argument("--suite", action="append", required=True,
                   help="suite name or 'all' (repeatable)")
    v.add_argument("--cases", type=int, default=0)
    v.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v.add_argument("--out", default="")
    v.set_defaults(run=cmd_verify)

    pr = sub.add_parser("pair", help="pair a chain operand against a form "
                                     "operand")
    pr.add_argument("--chain", required=True)
    pr.add_argument("--form", required=True)
    pr.add_argument("--out", default="")
    pr.set_defaults(run=cmd_pair)

    pd = sub.add_parser("product", help="product of two chain operands on "
                                        "the product space")
    pd.add_argument("--left", required=True)
    pd.add_argument("--right", required=True)
    pd.add_argument("--out", default="")
    pd.set_defaults(run=cmd_product)

    b = sub.add_parser("bench", help="time the verification suites")
    b.add_argument("--suite", action="append", default=None,
                   help="suite names (default: all)")
    b.add_argument("--seed", type=int, default=DEFAULT_SEED)
    b.add_argument("--out", default="")
    b.set_defaults(run=cmd_bench)
    return p


def _expand_suites(names):
    if names is None:
        return tuple(sorted(REGISTRY))
    out = []
    for n in names:
        if n == "all":
            out.extend(sorted(REGISTRY))
        else:
            out.append(n)
    for n in out:
        if n not in REGISTRY:
            raise SystemExit("unknown suite %r; known: %s"
                             % (n, ", ".join(sorted(REGISTRY))))
    return tuple(out)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        rep, code = args.run(args)
    except (ValueError, OSError, KeyError) as exc:
        # bad operands and bad expressions get a message, not a traceback
        raise SystemExit("%s: %s" % (args.command, exc))
    try:
        _emit(rep, args.out)
    except BrokenPipeError:
        # the reader left; point stdout at devnull so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("%s: stdout was closed before the report was written"
              % args.command, file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
