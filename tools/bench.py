"""Time each suite and each homology row in a fresh process, at two source trees.

    python tools/bench.py --parent DIR --change DIR

Each run is a new interpreter with ``PYTHONHASHSEED=0`` and the tree's
``src`` on ``PYTHONPATH``.  The child imports the CLI, times one request
(a row's argv) through ``cli.main`` with ``time.perf_counter`` and reports
that time, its own ``ru_maxrss``, a hash of the report it printed and the
report's verification cases.  Both trees are compiled to bytecode first,
as an installed CLI would be.  ``RUNS`` runs per side alternate parent and
change, row by row; both trees must print the same report.

Two row tables are run, each written to its own file in the current
directory in one schema: ``BENCH_verify.json`` (one ``verify --suite NAME
--seed 7`` row per suite, with the report's ``cases``) and
``BENCH_homology.json`` (one ``homology`` row per fixed (space, D), with
the labels and the nonzeros of ``G_{D+3}``, counted by one more, untimed
child at the change).  Each file holds the medians per row and their sums,
every run, the Python version and the number of CPUs.  The parent tree
must be a git checkout: its commit is recorded as ``parent``.  A child
that fails, or two trees that print different reports, stop the harness
with one line naming the tree or the row.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SUITES = ["adjunction", "colimit", "delta-squared", "ez", "integration", "monoidal",
          "pushforward", "shuffles", "theta"]
TORUS3 = "product:(product:(sphere:1,sphere:1),sphere:1)"
TORUS4 = "product:(product:(sphere:1,sphere:1),product:(sphere:1,sphere:1))"
HOMOLOGY = [("3-torus", TORUS3, 3), ("sphere:4", "sphere:4", 4),
            ("S2xS2", "product:(sphere:2,sphere:2)", 4), ("4-torus", TORUS4, 4),
            ("delta:5", "delta:5", 5), ("delta:6", "delta:6", 6)]
TABLES = {
    "BENCH_verify.json": {name: ["verify", "--suite", name, "--seed", "7"] for name in SUITES},
    "BENCH_homology.json": {name: ["homology", "--space", space, "--D", str(D)]
                            for name, space, D in HOMOLOGY},
}
RUNS = 5

TIMED = """
import contextlib, io, json, resource, sys, time
from simplicial_derham import cli
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[1:])
wall = time.perf_counter() - start
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
import hashlib  # only now: loading it costs megabytes of RSS
print(json.dumps({"code": code, "wall_s": wall, "maxrss_kb": maxrss,
                  "report_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                  "cases": sum(s["cases"] for s in json.loads(out.getvalue()).get("suites", []))}))
"""

SIZES = """
import json, sys
from simplicial_derham.cli import _build_parser
from simplicial_derham.phiglobal import truncated_complex
from simplicial_derham.sset import build
args = _build_parser().parse_args(sys.argv[1:])
G = truncated_complex(build(args.space), args.D + 3)
print(json.dumps({"labels": sum(map(len, G.bases)),
                  "nnz": sum(len(row) for M in G.d[1:] for row in M.rows)}))
"""


def _run(tree, what, cmd, env=None):
    """The stdout of ``cmd``; if it fails, exit with one line naming ``tree`` and ``what``."""
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode:
        last = (proc.stderr.strip().splitlines() or ["no message"])[-1]
        raise SystemExit("bench: %s: %s exited %d: %s" % (tree, what, proc.returncode, last))
    return proc.stdout


def child(tree, code, argv):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(tree, "src"))
    return json.loads(_run(tree, " ".join(argv), [sys.executable, "-c", code, *argv], env))


def bench(trees, rows):
    """The document of one row table: medians, sizes and every run per side."""
    out, runs = {}, {side: {} for side in trees}
    for name, argv in rows.items():
        for _ in range(RUNS):
            for side, tree in trees.items():
                runs[side].setdefault(name, []).append(child(tree, TIMED, argv))
        got = [r for side in trees for r in runs[side][name]]
        if len({r["report_sha256"] for r in got}) != 1 or {r["code"] for r in got} != {0}:
            raise SystemExit("bench: %s: the two trees disagree" % name)
        row = {"argv": argv}
        if argv[0] == "homology":
            row.update(child(trees["change"], SIZES, argv))
        else:
            row["cases"] = got[0]["cases"]
        for side in trees:
            row[side + "_s"] = round(statistics.median(
                r["wall_s"] for r in runs[side][name]), 4)
            row[side + "_maxrss_mb"] = round(statistics.median(
                r["maxrss_kb"] for r in runs[side][name]) / 1024, 1)
        out[name] = row
        print(name, json.dumps(row), file=sys.stderr)
    return {
        "rows": out,
        "total_s": {side: round(sum(row[side + "_s"] for row in out.values()), 4)
                    for side in trees},
        "runs_s": {side: [{name: round(rs[i]["wall_s"], 4) for name, rs in by_row.items()}
                          for i in range(RUNS)]
                   for side, by_row in runs.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    for tree in trees.values():
        _run(tree, "compileall", [sys.executable, "-m", "compileall", "-q",
                                  os.path.join(tree, "src")])
    head = {
        "what": "median wall time and ru_maxrss of one `simplicial-derham ARGV` request "
                "per row, timed around cli.main in a fresh process per run "
                "(PYTHONHASHSEED=0), parent and change alternating; written by "
                "tools/bench.py",
        "runs_per_side": RUNS,
        "parent": _run(args.parent, "git rev-parse",
                       ["git", "-C", args.parent, "rev-parse", "--short", "HEAD"]).strip(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }
    for path, rows in TABLES.items():
        doc = {**head, **bench(trees, rows)}
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
