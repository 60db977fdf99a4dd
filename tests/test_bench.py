"""The timing harness ``tools/bench.py``: its rows and one fresh-process run."""

import importlib.util
import os

import pytest

from simplicial_derham import cli, verify

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_SPEC = importlib.util.spec_from_file_location("bench", os.path.join(ROOT, "tools", "bench.py"))
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def test_the_suite_rows_are_the_registered_suites():
    assert list(bench.TABLES["BENCH_verify.json"]) == sorted(verify.REGISTRY)


def test_every_row_is_a_command_line_of_the_cli():
    for rows in bench.TABLES.values():
        for argv in rows.values():
            args = cli._build_parser().parse_args(argv)
            assert args.command == argv[0]


def test_a_child_times_one_request_and_a_failed_one_exits_with_one_line():
    run = bench.child(ROOT, bench.TIMED, ["verify", "--suite", "theta", "--seed", "7"])
    assert run["code"] == 0 and run["cases"] > 0
    assert run["wall_s"] > 0 and run["maxrss_kb"] > 0 and len(run["report_sha256"]) == 64
    with pytest.raises(SystemExit) as exc:
        bench.child(ROOT, bench.TIMED, ["homology", "--space", "nosuch"])
    assert exc.value.code == ("bench: %s: homology --space nosuch exited 1: "
                              "homology: bad expression 'nosuch'" % ROOT)
