"""Freeze the expected stdout of every request into ``expected.json``.

    python3 perfbench/freeze.py

Runs each homology request of the torus and corpus workloads and
``verify --suite all`` at seed 7 and at every seed of the pool, in this
process, and stores the homology stdout verbatim and the verification
stdout as sha256.  A response that fails the hand-written checks of
``workloads.check`` is not frozen: the script stops with the reason.
Run it only at a commit whose outputs are known to be right.
"""

import hashlib
import json
import sys

import workloads
from worker import call, import_program


def main():
    cli = import_program()
    frozen = {"homology": {}, "verify_sha256": {}}
    reqs = [workloads.homology_request(workloads.TORUS3, 3)]
    reqs += workloads.corpus_requests()
    seeds = sorted((workloads.VERIFY_DEFAULT_SEED,) + workloads.VERIFY_SEED_POOL)
    reqs += [workloads.verify_request(s) for s in seeds]
    for req in reqs:
        stdout, code, error = call(cli, req.argv)
        if req.kind == "homology":
            frozen["homology"][req.key] = stdout
        else:
            frozen["verify_sha256"][req.subject] = hashlib.sha256(
                stdout.encode()).hexdigest()
        reason = error or workloads.check(req, stdout, code, frozen)
        if reason:
            sys.exit("%s: %s" % (req.key, reason))
        print(req.key, file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
