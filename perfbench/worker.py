"""One measured pass: a fresh process that runs a workload's request list.

Usage (``run.py`` starts it; it is not meant to be run by hand):

    python3 perfbench/worker.py --workload NAME --seed N
        [--setup-only] [--spans PATH]

The process imports the program from ``src/`` of the checkout, builds the
request list, loads the expected outputs and then stamps ``ready`` on the
system-wide monotonic clock, so the parent can compute set-up time from its
own spawn time.  It then calls ``simplicial_derham.cli.main(argv)`` once per
request, one after the other, with stdout captured.  Responses are checked
only after the last one returns.  With ``--spans`` the program's public
functions are wrapped in tracing spans first (see ``tracing.py``).  The
result is one JSON line on stdout.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import the package from ``src/`` of this checkout, and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import simplicial_derham
        from simplicial_derham import cli
    except ImportError as exc:
        raise SystemExit("cannot import simplicial_derham from %s: %s"
                         % (SRC, exc))
    where = os.path.dirname(os.path.abspath(simplicial_derham.__file__))
    if os.path.dirname(where) != SRC:
        raise SystemExit("simplicial_derham was imported from %s, not %s"
                         % (where, SRC))
    return cli


def call(cli, argv):
    """Run one CLI request; return ``(stdout, exit code, error or None)``."""
    buf = io.StringIO()
    code, error = None, None
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        error = "SystemExit: %s" % (exc.code,)
    except Exception as exc:  # a request that raises counts as failed
        code, error = 1, "%s: %s" % (type(exc).__name__, exc)
    return buf.getvalue(), code, error


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default="")
    args = ap.parse_args()

    cli = import_program()
    reqs = workloads.requests(args.workload, args.seed)
    expected = workloads.load_expected()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    tracer = None
    if args.spans:
        import tracing  # only here, so untraced set-up does not load it
        tracer = tracing.Tracer()
        tracer.install()

    responses = []
    t0 = time.perf_counter()
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.begin_request(i)
        responses.append(call(cli, req.argv))
    wall = time.perf_counter() - t0

    failures = []
    for req, (stdout, code, error) in zip(reqs, responses):
        reason = error or workloads.check(req, stdout, code, expected)
        if reason:
            failures.append({"request": req.key, "reason": reason})
    out = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(reqs),
        "failures": failures,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(wall)
        out["truncations"] = tracer.truncations
        tracer.write(args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
