"""Span tracing of the program's layers, installed from outside the program.

``Tracer.install`` replaces each public function named in ``SPANS`` by a
wrapper that records a span (name, start, end, parent span, request).  A
function is wrapped where it is defined and under every other module
attribute of the package that holds it, because a name brought in with
``from ... import`` is looked up in the importing module: ``cli`` calls
``homology_report`` and ``phiglobal`` calls ``rank_of_vectors`` and
``delta`` through their own module globals.  The suite functions in
``verify.REGISTRY`` get one span each.

A span's self time is its duration minus the time its child spans cover,
including the wrappers' own bookkeeping, so the bookkeeping is charged to
no layer.  Spans are kept in memory in flat arrays and written out once,
after the last request.

Besides spans, the wrappers take exact counts where the work happens:
input nonzeros of ``rank``, repeated ``rank_of_vectors`` inputs within one
request, distinct ``delta`` inputs within one request (one request is
one CLI process, so this bounds the hit ratio of any cache the program
keeps), basis sizes and boundary nonzeros of
every truncation built, and verification cases.
"""

import functools
import importlib
import json
import pkgutil
import sys
from array import array
from collections import Counter
from time import perf_counter

from workloads import SUITES

PACKAGE = "simplicial_derham"


def _rank_input(tr, args):
    M = args[0]
    rows = M.rows if hasattr(M, "rows") else M
    tr.counts["linalg.rank.input_nnz"] += sum(len(r) for r in rows)


def _rank_of_vectors_input(tr, args):
    key = hash(tuple(frozenset(v.items()) for v in args[0]))
    if key in tr.ranked:
        tr.counts["linalg.rank_of_vectors.repeats"] += 1
    tr.ranked.add(key)


def _delta_input(tr, args):
    a = args[0]
    tr.delta_inputs.add((a.n, a.m, frozenset(
        (J, frozenset(beta.terms.items())) for J, beta in a.comps.items())))


def _truncation_sizes(tr, args, C):
    sizes = [len(b) for b in C.bases]
    nnz = [sum(len(r) for r in M.rows) for M in C.d[1:]]
    tr.truncations.append({"request": tr.request_id, "weight": args[1],
                           "basis": sizes, "boundary_nnz": nnz})
    tr.counts["phiglobal.basis_size"] += sum(sizes)
    tr.counts["phiglobal.boundary_nnz"] += sum(nnz)


def _suite_cases(tr, args, report):
    tr.counts["verify.cases"] += report["cases"]


# span name -> (defining module, attribute path, hook on the arguments,
#               hook on the arguments and result)
SPANS = {
    "cli.main": ("cli", "main", None, None),
    "phiglobal.homology_report": ("phiglobal", "homology_report", None, None),
    "phiglobal.truncated_complex": ("phiglobal", "truncated_complex", None,
                                    _truncation_sizes),
    "phiglobal.phi_boundary": ("phiglobal", "phi_boundary", None, None),
    "phiglobal.canonicalize_term": ("phiglobal", "canonicalize_term", None,
                                    None),
    "philocal.delta": ("philocal", "delta", _delta_input, None),
    "polyforms.ThetaElt.pushforward": ("polyforms", "ThetaElt.pushforward",
                                       None, None),
    "linalg.rank": ("linalg", "rank", _rank_input, None),
    "linalg.rank_of_vectors": ("linalg", "rank_of_vectors",
                               _rank_of_vectors_input, None),
    "linalg.kernel_basis": ("linalg", "kernel_basis", None, None),
    "linalg.QMatrix.mul": ("linalg", "QMatrix.mul", None, None),
    "sset.build": ("sset", "build", None, None),
    "sset.chain_complex": ("sset", "SSet.chain_complex", None, None),
    "sset.product": ("sset", "product", None, None),
    "monoidal.mu_phi": ("monoidal", "mu_phi", None, None),
}

# Called too often for a span to be cheap; only the calls are counted.
COUNTED = {"sset.SSet.apply_map.calls": ("sset", "SSet.apply_map")}

# Per-layer metrics by kind: call counts, self times, exact counts, ratios.
CALLS = ("linalg.rank", "linalg.rank_of_vectors", "linalg.kernel_basis",
         "phiglobal.truncated_complex", "phiglobal.phi_boundary",
         "phiglobal.canonicalize_term", "philocal.delta",
         "polyforms.ThetaElt.pushforward", "sset.chain_complex",
         "sset.product", "monoidal.mu_phi")
SELF = ("linalg.rank", "linalg.rank_of_vectors", "linalg.kernel_basis",
        "linalg.QMatrix.mul", "phiglobal.truncated_complex",
        "phiglobal.phi_boundary", "phiglobal.canonicalize_term",
        "phiglobal.homology_report", "philocal.delta",
        "polyforms.ThetaElt.pushforward", "sset.build", "sset.product",
        "monoidal.mu_phi", "cli.main") + tuple("verify." + s for s in SUITES)
COUNTS = ("linalg.rank.input_nnz", "phiglobal.basis_size",
          "phiglobal.boundary_nnz", "sset.SSet.apply_map.calls",
          "verify.cases")
RATIOS = ("linalg.rank_of_vectors.repeat_ratio", "philocal.delta.distinct_ratio",
          "trace.coverage_ratio")


def metric_units():
    """Every per-layer metric this module reports, with its unit.

    ``trace.overhead_ratio`` is added by ``run.py``, which sees both the
    traced and the untraced passes.
    """
    units = {}
    for name in CALLS:
        units[name + ".calls"] = "count"
    for name in SELF:
        units[name + ".self_s"] = "s"
    for name in COUNTS:
        units[name] = "count"
    for name in RATIOS:
        units[name] = "ratio"
    return units


def _resolve(owner, path):
    *outer, last = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, last


class Tracer:
    """Spans and counts of one process; install once, before the requests."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.covered = array("d")
        self.stack = []
        self.request_id = -1
        self.counts = Counter()
        self.ranked = set()
        self.delta_inputs = set()
        self.delta_distinct = 0
        self.truncations = []

    def begin_request(self, request_id):
        """Start a request: repeats and distinct inputs count per request."""
        self.request_id = request_id
        self.ranked = set()
        self.delta_distinct += len(self.delta_inputs)
        self.delta_inputs = set()

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so that each call records one span named ``name``."""
        nid = len(self.names)
        self.names.append(name)
        tr = self
        stack, covered = self.stack, self.covered

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            if before is not None:
                before(tr, args)
            idx = len(tr.start)
            parent = stack[-1] if stack else -1
            tr.name.append(nid)
            tr.parent.append(parent)
            tr.request.append(tr.request_id)
            tr.start.append(0.0)
            tr.end.append(0.0)
            covered.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tr.start[idx] = t0
                tr.end[idx] = t1
            if after is not None:
                after(tr, args, result)
            if parent >= 0:
                covered[parent] += perf_counter() - enter
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the program's layers; report on stderr any not found."""
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(PACKAGE + "." + info.name)
        missing = []
        wrapped = {}  # id(original) -> (original, wrapper)
        plan = [(name, mod, path, self.span, (before, after))
                for name, (mod, path, before, after) in SPANS.items()]
        plan += [(name, mod, path, self.counter, ())
                 for name, (mod, path) in COUNTED.items()]
        for name, mod, path, make, hooks in plan:
            try:
                owner, attr = _resolve(sys.modules[PACKAGE + "." + mod], path)
                original = getattr(owner, attr)
            except (KeyError, AttributeError):
                missing.append(name)
                continue
            wrapper = make(name, original, *hooks)
            wrapped[id(original)] = (original, wrapper)
            setattr(owner, attr, wrapper)
        verify = sys.modules.get(PACKAGE + ".verify")
        for suite, fn in sorted(getattr(verify, "REGISTRY", {}).items()):
            wrapper = self.span("verify." + suite, fn, None, _suite_cases)
            wrapped[id(fn)] = (fn, wrapper)
            verify.REGISTRY[suite] = wrapper
        # rebind every alias made by ``from ... import`` in the package
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        if missing:
            print("tracing: not found in the program: %s" % ", ".join(missing),
                  file=sys.stderr)

    def self_times(self):
        """Self time and call count per span name."""
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for nid, s, e, c in zip(self.name, self.start, self.end, self.covered):
            self_s[nid] += e - s - c
            calls[nid] += 1
        return ({n: self_s[i] for i, n in enumerate(self.names)},
                {n: calls[i] for i, n in enumerate(self.names)})

    def metrics(self, wall_s):
        """Per-layer metrics of this process, named as in ``metric_units``."""
        self_s, calls = self.self_times()
        out = {}
        for name in CALLS:
            out[name + ".calls"] = calls.get(name, 0)
        for name in SELF:
            out[name + ".self_s"] = self_s.get(name, 0.0)
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        rov = calls.get("linalg.rank_of_vectors", 0)
        out["linalg.rank_of_vectors.repeat_ratio"] = (
            self.counts["linalg.rank_of_vectors.repeats"] / rov if rov else 0.0)
        ndelta = calls.get("philocal.delta", 0)
        out["philocal.delta.distinct_ratio"] = (
            (self.delta_distinct + len(self.delta_inputs)) / ndelta
            if ndelta else 0.0)
        out["trace.coverage_ratio"] = sum(self_s.values()) / wall_s
        return out

    def write(self, path):
        """Write every span as columns of one JSON document."""
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "request", "covered"],
            "spans": [list(self.name), list(self.start), list(self.end),
                      list(self.parent), list(self.request),
                      list(self.covered)],
            "counts": dict(self.counts),
            "truncations": self.truncations,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
