"""Benchmark of the homology and verification paths of simplicial_derham.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Workloads (see ``workloads.py``): ``homology-torus3``, ``homology-corpus``
and ``verify-suites``.  Each is a fixed list of CLI requests made from the
seed and sent by one client, closed loop: the next request goes out only
after the previous reply.

Every pass is a fresh process (``worker.py``) that calls
``simplicial_derham.cli.main(argv)`` once per request, so module-level
state starts cold as it does for a CLI user.  A run makes passes until the
next one would end after ``--seconds``, and always at least one.  Before
the passes it starts a few processes that only set up, so that set-up
time is a median of several samples; a first, uncounted one compiles the
bytecode.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
each the median over the run's passes:

* ``wall_s``: first request sent to last response received;
* ``setup_s``: process start until the first request is ready (interpreter
  start, ``import simplicial_derham``, request list, expected outputs);
* ``peak_rss_mb``: ``ru_maxrss`` of a pass's process.

With ``--trace 1`` traced and untraced passes alternate, and the last line
reports the per-layer metrics of ``tracing.py`` (self times are medians
over traced passes; counts must repeat exactly across them) and
``trace.overhead_ratio``, the traced over the untraced median wall time
minus one.  Span files go to ``.bench_build/perfbench/``.

A request fails if it raises, exits non-zero, or its stdout is wrong (see
``workloads.check``); ``failed / attempted`` is the fail ratio.  ``--all``
runs every workload untraced and prints ``wall_s``, ``setup_s``,
``peak_rss_mb`` and ``fail_ratio`` by name with units.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

DEADLINE_S = 170      # one invocation must end within 180 s
SETUP_PROBES = 15

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Exact counts in the traced metrics that must repeat across traced passes.
EXACT = [name for name, unit in tracing.metric_units().items()
         if unit == "count"] + ["linalg.rank_of_vectors.repeat_ratio",
                                "philocal.delta.distinct_ratio"]


class PassError(RuntimeError):
    pass


def provenance():
    return "python %s, nproc %d, %s" % (
        platform.python_version(), len(os.sched_getaffinity(0)),
        platform.platform())


def spawn(workload, seed, deadline, extra=()):
    """Run one worker process; return its result with ``setup_s`` added."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassError("out of time before a pass of %s" % workload)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed",
           str(seed), *extra]
    # A fixed hash seed keeps set iteration order, and so timing, repeatable.
    # Bytecode is cached, as for an installed CLI; the first set-up writes it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassError("a pass of %s ran out of time" % workload)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError("worker exited %d: %s" % (
            proc.returncode, proc.stderr.strip()[-2000:]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def run_workload(workload, seed, seconds, trace):
    """Measure one workload for about ``seconds``; return the result line."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    spawn(workload, seed, deadline, ["--setup-only"])
    setups = [spawn(workload, seed, deadline, ["--setup-only"])["setup_s"]
              for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    longest_cycle = 0.0
    while True:
        cycle_start = time.monotonic()
        for runs in (plain, traced) if trace else (plain,):
            extra = []
            if runs is traced:
                os.makedirs(SPANS_DIR, exist_ok=True)
                extra = ["--spans", os.path.join(
                    SPANS_DIR, "spans-%s-seed%d-pass%d.json"
                    % (workload, seed, len(traced)))]
            runs.append(spawn(workload, seed, deadline, extra))
            print("%s pass: wall_s %.4f setup_s %.4f peak_rss_mb %.1f" % (
                "traced" if extra else "untraced", runs[-1]["wall_s"],
                runs[-1]["setup_s"], runs[-1]["peak_rss_mb"]), file=sys.stderr)
        now = time.monotonic()
        longest_cycle = max(longest_cycle, now - cycle_start)
        if now + longest_cycle - start > seconds:
            break

    passes = plain + traced
    failures = [f for p in passes for f in p["failures"]]
    for f in failures:
        print("FAILED %s: %s" % (f["request"], f["reason"]), file=sys.stderr)
    correct = not failures
    if trace:
        layers = [p["layers"] for p in traced]
        for name in EXACT:
            if len({lay[name] for lay in layers}) != 1:
                correct = False
                print("count %s differs across traced passes: %r"
                      % (name, [lay[name] for lay in layers]), file=sys.stderr)
        units = tracing.metric_units()
        values = {name: (layers[0][name] if name in EXACT else
                         statistics.median(lay[name] for lay in layers))
                  for name in units}
        units["trace.overhead_ratio"] = "ratio"
        values["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain) - 1)
    else:
        units = END_TO_END
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(setups + [p["setup_s"] for p in plain]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    return {
        "correct": correct,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and print a summary")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    print(provenance(), file=sys.stderr)
    try:
        if args.workload:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
            print(json.dumps(result))
            return
        for workload in workloads.WORKLOADS:
            result = run_workload(workload, args.seed, args.seconds, False)
            rows = [(name, m["value"], m["unit"])
                    for name, m in result["metrics"].items()]
            rows.append(("fail_ratio", result["failed"] / result["attempted"],
                         "ratio"))
            for name, value, unit in rows:
                print("%-16s %-12s %12.4f %s" % (workload, name, value, unit))
    except PassError as exc:
        sys.exit("benchmark failed: %s" % exc)


if __name__ == "__main__":
    main()
