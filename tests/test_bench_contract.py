"""What the benchmark in perfbench/ calls must keep working.

The benchmark wraps gamehedge functions by name and runs catalogue jobs
through the CLI and the library.  A change that renames a traced function
or breaks a job the benchmark runs fails here first.  These tests only
read perfbench/.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import jobs  # noqa: E402
import worker  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


def test_every_traced_target_resolves():
    tr = Tracer()
    tr.install()
    try:
        assert tr.missing == []
        assert all(tr.wrapped[name] >= 1 for name in TARGETS)
    finally:
        tr.uninstall()


@pytest.mark.parametrize("workload,slot", [
    ("cli_desk", "oracle_3_tax"),
    ("cli_desk", "price_48_borrow_lend"),
    ("certify_paths", "hedge_star_13_perfect"),
    ("certify_paths", "robust_12_perfect_4"),
    ("sweep_deep", "european_600_nodefault"),
])
def test_benchmark_job_reports_no_problems(tmp_path, workload, slot):
    slots = jobs.load_catalogue()["workloads"][workload]["slots"]
    job = next(s["jobs"][0] for s in slots if s["name"] == slot)
    row = worker.run_one(job, str(tmp_path))
    assert row["problems"] == []
