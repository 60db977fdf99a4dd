"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They take about a minute: two traced corpus passes, one traced torus pass
and one corpus run in a copy of the checkout.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import run
import workloads

ROOT = run.ROOT


def worker_pass(workload, seed, spans):
    proc = subprocess.run(
        [sys.executable, run.WORKER, "--workload", workload, "--seed",
         str(seed), "--spans", str(spans)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def closed_form(cells, d, W):
    """Basis size in degree d at weight W: sum_m |X_m| C(m,d) C(W-d+m, m)."""
    return sum(n * math.comb(m, d) * math.comb(W - d + m, m)
               for m, n in enumerate(cells) if W >= d)


def cell_counts(space):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from simplicial_derham import build
    return build(space).nd_counts()


def test_request_lists_come_from_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.requests(workload, 5) == workloads.requests(workload, 5)
    corpus = workloads.requests("homology-corpus", 5)
    assert sorted(corpus) == sorted(workloads.corpus_requests())
    assert len(corpus) == 18
    assert corpus != workloads.requests("homology-corpus", 6)
    suites = workloads.requests("verify-suites", 5)
    assert suites[0].subject == "7" and len(suites) == 4
    assert suites != workloads.requests("verify-suites", 6)


def test_check_uses_hand_written_betti_numbers(monkeypatch):
    expected = workloads.load_expected()
    req = workloads.homology_request("sphere:2", 2)
    stdout = expected["homology"][req.key]
    assert workloads.check(req, stdout, 0, expected) is None
    monkeypatch.setitem(workloads.BETTI, "sphere:2", [1, 1, 1])
    assert "Betti" in workloads.check(req, stdout, 0, expected)


def test_corrupted_expected_value_makes_fail_ratio_nonzero(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=ignore)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=ignore)
    path = tmp_path / "perfbench" / "expected.json"
    frozen = json.loads(path.read_text())
    key = workloads.homology_request("delta:2", 2).key
    frozen["homology"][key] = frozen["homology"][key].replace('"D": 2', '"D": 3')
    path.write_text(json.dumps(frozen))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "homology-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 18


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-suites",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_counts_repeat_and_sizes_follow_closed_form(tmp_path):
    first = worker_pass("homology-corpus", 3, tmp_path / "a.json")
    second = worker_pass("homology-corpus", 3, tmp_path / "b.json")
    for name in run.EXACT:
        assert first["layers"][name] == second["layers"][name], name
    assert first["truncations"] == second["truncations"]
    assert first["layers"]["trace.coverage_ratio"] >= 0.9
    assert first["layers"]["linalg.rank_of_vectors.repeat_ratio"] > 0
    reqs = workloads.requests("homology-corpus", 3)
    cells = {space: cell_counts(space) for space in workloads.CORPUS}
    built = first["truncations"]
    # five truncations per report: D, D+2, D+1, D+3 and D again
    assert len(built) == 5 * len(reqs)
    for t in built:
        c = cells[reqs[t["request"]].subject]
        assert t["basis"] == [closed_form(c, d, t["weight"])
                              for d in range(len(c))]


def test_torus3_truncation_sizes(tmp_path):
    cells = cell_counts(workloads.TORUS3)
    assert [closed_form(cells, d, 6) for d in range(4)] == [890, 1554, 810, 120]
    result = worker_pass("homology-torus3", 1, tmp_path / "t.json")
    assert result["failures"] == []
    weights = [t["weight"] for t in result["truncations"]]
    assert weights == [3, 5, 4, 6, 3]
    for t in result["truncations"]:
        assert t["basis"] == [closed_form(cells, d, t["weight"])
                              for d in range(4)]
    assert result["layers"]["trace.coverage_ratio"] >= 0.9
