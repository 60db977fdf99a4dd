"""Workload request lists and the correctness oracle for each request.

A workload is a fixed list of CLI argument vectors, made from the workload
seed alone.  The program under test sees only those argument vectors.

Every response is checked two ways:

* against hand-written facts that do not come from the program (Betti
  numbers of each space, ``"pass": true`` for every verification suite,
  and the published sha256 of ``verify --suite all`` at seed 7);
* against the stdout bytes frozen in ``expected.json`` by ``freeze.py``.
"""

import hashlib
import json
import os
import random
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

TORUS3 = "product:(product:(sphere:1,sphere:1),sphere:1)"

# Betti numbers over Q, written by hand; the length is top dimension + 1.
BETTI = {
    TORUS3: [1, 3, 3, 1],
    "delta:1": [1, 0],
    "delta:2": [1, 0, 0],
    "delta:3": [1, 0, 0, 0],
    "boundary:2": [1, 1],
    "boundary:3": [1, 0, 1],
    "sphere:1": [1, 1],
    "sphere:2": [1, 0, 1],
    "product:(sphere:1,sphere:1)": [1, 2, 1],
    "product:(delta:1,delta:1)": [1, 0, 0],
}

# The identity corpus of the program's ``verify`` module, kept here so the
# request list does not depend on program internals.
CORPUS = (
    "delta:1", "delta:2", "delta:3",
    "boundary:2", "boundary:3",
    "sphere:1", "sphere:2",
    "product:(sphere:1,sphere:1)",
    "product:(delta:1,delta:1)",
)

SUITES = ("adjunction", "colimit", "delta-squared", "ez", "integration",
          "monoidal", "pushforward", "shuffles", "theta")

VERIFY_DEFAULT_SEED = 7
# sha256 of ``verify --suite all`` stdout at seed 7, as published in ROADMAP.md.
VERIFY_SEED7_SHA256 = (
    "3176a39e454e78fb4b28acb4eccf87a0317b201c2c6ceca3238b54a7580fadc0")
# Extra verification seeds are drawn from this pool; expected.json holds the
# sha256 of the stdout for each of them.
VERIFY_SEED_POOL = tuple(s for s in range(64) if s != VERIFY_DEFAULT_SEED)
VERIFY_DRAWN = 3

WORKLOADS = ("homology-torus3", "homology-corpus", "verify-suites")


class Request(NamedTuple):
    argv: tuple
    kind: str      # "homology" or "verify"
    subject: str   # space expression or verification seed

    @property
    def key(self):
        return " ".join(self.argv)


def homology_request(space, D):
    return Request(("homology", "--space", space, "--D", str(D)),
                   "homology", space)


def verify_request(seed):
    return Request(("verify", "--suite", "all", "--seed", str(seed)),
                   "verify", str(seed))


def corpus_requests():
    """The 18 corpus requests, at ``D = top`` and ``D = top + 1``, unshuffled."""
    out = []
    for space in CORPUS:
        top = len(BETTI[space]) - 1
        out.append(homology_request(space, top))
        out.append(homology_request(space, top + 1))
    return out


def requests(workload, seed):
    """The request list of ``workload`` for workload seed ``seed``."""
    rng = random.Random(seed)
    if workload == "homology-torus3":
        return [homology_request(TORUS3, 3)]
    if workload == "homology-corpus":
        reqs = corpus_requests()
        rng.shuffle(reqs)
        return reqs
    if workload == "verify-suites":
        drawn = rng.sample(VERIFY_SEED_POOL, VERIFY_DRAWN)
        return [verify_request(s) for s in [VERIFY_DEFAULT_SEED] + drawn]
    raise ValueError("unknown workload %r; known: %s"
                     % (workload, ", ".join(WORKLOADS)))


def load_expected(path=EXPECTED_PATH):
    with open(path) as fh:
        return json.load(fh)


def check(req, stdout, code, expected):
    """Return ``None`` when the response is right, else a one-line reason."""
    if code != 0:
        return "exit code %r" % (code,)
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if req.kind == "homology":
        if doc.get("stable_image_dims") != BETTI[req.subject]:
            return "stable_image_dims %r, Betti numbers are %r" % (
                doc.get("stable_image_dims"), BETTI[req.subject])
        if doc.get("matches_N") is not True:
            return "matches_N is not true"
        if stdout != expected["homology"].get(req.key):
            return "stdout differs from the frozen bytes"
        return None
    suites = doc.get("suites", [])
    if doc.get("pass") is not True or not all(s.get("pass") for s in suites):
        failing = [s.get("suite") for s in suites if not s.get("pass")]
        return "verification failed in %s" % (failing or "the report")
    if sorted(s.get("suite") for s in suites) != list(SUITES):
        return "suites reported: %r" % [s.get("suite") for s in suites]
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if int(req.subject) == VERIFY_DEFAULT_SEED and digest != VERIFY_SEED7_SHA256:
        return "seed-7 sha256 %s differs from the published one" % digest
    if digest != expected["verify_sha256"].get(req.subject):
        return "sha256 %s differs from the frozen one" % digest
    return None
