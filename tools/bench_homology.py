"""Time one ``homology`` request per fresh process, at two source trees.

    python tools/bench_homology.py --parent DIR --change DIR [--out FILE]

Each run is a new interpreter with ``PYTHONHASHSEED=0`` and the tree's
``src`` on ``PYTHONPATH``.  The child imports the CLI, times one
``homology --space S --D D`` request through ``cli.main`` with
``time.perf_counter`` and reports that time, its own ``ru_maxrss`` and a
hash of the report it printed.  Both trees are compiled to bytecode first,
as an installed CLI would be.  ``RUNS`` runs per side alternate parent
and change, row by row; both trees must print the same report.  One more, untimed child at the
change counts the labels and the nonzeros of ``G_{D+3}``.  The result is
written as JSON (``BENCH_homology.json`` by default) with the fields of
``BENCH_verify.json``: the medians per row and their sums, every run, the
Python version and the number of CPUs.  The parent tree must be a git
checkout: its commit is recorded as ``parent``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

TORUS3 = "product:(product:(sphere:1,sphere:1),sphere:1)"
TORUS4 = "product:(product:(sphere:1,sphere:1),product:(sphere:1,sphere:1))"
ROWS = [("3-torus", TORUS3, 3), ("sphere:4", "sphere:4", 4),
        ("S2xS2", "product:(sphere:2,sphere:2)", 4), ("4-torus", TORUS4, 4),
        ("delta:5", "delta:5", 5), ("delta:6", "delta:6", 6)]
RUNS = 5

TIMED = """
import contextlib, io, json, resource, sys, time
from simplicial_derham import cli
argv = ["homology", "--space", sys.argv[1], "--D", sys.argv[2]]
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = cli.main(argv)
wall = time.perf_counter() - start
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
import hashlib  # only now: loading it costs megabytes of RSS
print(json.dumps({"code": code, "wall_s": wall, "maxrss_kb": maxrss,
                  "report_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}))
"""

SIZES = """
import json, sys
from simplicial_derham.phiglobal import truncated_complex
from simplicial_derham.sset import build
G = truncated_complex(build(sys.argv[1]), int(sys.argv[2]) + 3)
print(json.dumps({"labels": sum(map(len, G.bases)),
                  "nnz": sum(len(row) for M in G.d[1:] for row in M.rows)}))
"""


def child(tree, code, space, D):
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", code, space, str(D)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="source tree of the parent commit")
    parser.add_argument("--change", required=True, help="source tree of the change")
    parser.add_argument("--out", default="BENCH_homology.json")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(tree, "src")],
                       check=True)
    rows, runs = {}, {side: {} for side in trees}
    for name, space, D in ROWS:
        for _ in range(RUNS):
            for side, tree in trees.items():
                runs[side].setdefault(name, []).append(child(tree, TIMED, space, D))
        got = {r["report_sha256"] for side in trees for r in runs[side][name]}
        if len(got) != 1 or {r["code"] for side in trees for r in runs[side][name]} != {0}:
            raise SystemExit("bench_homology: %s: the two trees disagree" % name)
        row = {"space": space, "D": D, **child(args.change, SIZES, space, D)}
        for side in trees:
            row[side + "_s"] = round(statistics.median(
                r["wall_s"] for r in runs[side][name]), 4)
            row[side + "_maxrss_mb"] = round(statistics.median(
                r["maxrss_kb"] for r in runs[side][name]) / 1024, 1)
        rows[name] = row
        print(name, json.dumps(row), file=sys.stderr)
    doc = {
        "what": "median wall time and ru_maxrss of one homology request, one fresh "
                "process per run, parent and change alternating",
        "command": "PYTHONHASHSEED=0 python -m simplicial_derham.cli homology "
                   "--space SPACE --D D",
        "runs_per_side": RUNS,
        "parent": subprocess.run(["git", "-C", args.parent, "rev-parse", "--short", "HEAD"],
                                 capture_output=True, text=True, check=True).stdout.strip(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "rows": rows,
        "total_s": {side: round(sum(row[side + "_s"] for row in rows.values()), 4)
                    for side in trees},
        "runs_s": {side: [{name: round(rs[i]["wall_s"], 4) for name, rs in by_row.items()}
                          for i in range(RUNS)]
                   for side, by_row in runs.items()},
    }
    with open(args.out, "w") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
