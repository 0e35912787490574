"""Self-tests of the benchmark (not part of the repository's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_bench.py

Run from the repository root.
"""

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import jobs  # noqa: E402
import worker  # noqa: E402
from tracer import JOB, Tracer  # noqa: E402

CATALOGUE = jobs.load_catalogue()


def _job(workload, slot_prefix):
    for slot in CATALOGUE["workloads"][workload]["slots"]:
        if slot["name"].startswith(slot_prefix):
            return slot["jobs"][0]
    raise KeyError(slot_prefix)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs(workload):
    a = jobs.sequence(CATALOGUE, workload, 7)
    assert a == jobs.sequence(CATALOGUE, workload, 7)
    assert [j["id"] for j in a] != [j["id"] for j in jobs.sequence(CATALOGUE, workload, 8)]


def test_rounds_visit_every_slot_and_deal_every_variant():
    workload = "sweep_deep"
    slots = CATALOGUE["workloads"][workload]["slots"]
    variants = CATALOGUE["variants"]
    seq = jobs.sequence(CATALOGUE, workload, 3, rounds=variants)
    for r in range(variants):
        names = {j["id"].split("/")[1] for j in seq[r * len(slots):(r + 1) * len(slots)]}
        assert names == {s["name"] for s in slots}
    assert len({j["id"] for j in seq}) == len(seq)


def _recorded_output(job):
    """The output a correct run of `job` gives, rebuilt from the recorded values."""
    ref = job["reference"]
    if job["kind"] == "lib":
        values = dict(ref)
        if job["op"] == "seller_buyer":
            values.update(xi0=-1e9, zeta0=1e9)
        return {"values": values}
    report = {"price": {"seller_price": ref.get("y0"), "buyer_price": ref.get("buyer"),
                        "xi_root": -1e9, "zeta_root": 1e9},
              "hedge": {"price": ref.get("y0"), "violations": 0, "ok": True}}[job["command"]]
    return {"exit": 0, "report": report}


@pytest.mark.parametrize("workload,prefix", [("cli_desk", "price"),
                                             ("sweep_deep", "seller_buyer"),
                                             ("certify_paths", "hedge")])
def test_checker_rejects_perturbed_price(workload, prefix):
    job = _job(workload, prefix)
    good = _recorded_output(job)
    assert jobs.check(job, good) == []
    bad = copy.deepcopy(good)
    target = bad["values"] if "values" in bad else bad["report"]
    key = {"price": "seller_price", "hedge": "price"}.get(job.get("command"), "y0")
    target[key] += 1e-8
    assert any("recorded" in p for p in jobs.check(job, bad))


def test_checker_rejects_violations():
    job = _job("certify_paths", "hedge")
    bad = _recorded_output(job)
    bad["report"]["violations"] = 1
    assert jobs.check(job, bad)
    bad = _recorded_output(job)
    bad["exit"] = 3
    assert jobs.check(job, bad)


def test_checker_rejects_european_far_from_black_scholes():
    job = _job("sweep_deep", "european")
    out = {"values": {"y0": job["reference"]["y0"] + 10 * jobs.euro_bound(job)}}
    assert any("Black-Scholes" in p for p in jobs.check(job, out, with_reference=False))


def test_traced_self_times_sum_to_at_most_job_time(tmp_path):
    tr = Tracer()
    tr.install()
    try:
        rows = [worker.run_one(_job("certify_paths", prefix), str(tmp_path), tr, i)
                for i, prefix in enumerate(("hedge_star_13", "robust_12"))]
        rows.append(worker.run_one(_job("cli_desk", "oracle_3"), str(tmp_path), tr, 2))
    finally:
        tr.uninstall()
    assert not tr.missing and all(tr.wrapped.values())
    assert all(not r["problems"] for r in rows)
    names, dur, self_t, parent, job, count, aux = worker._spans(tr)
    assert (self_t >= -1e-9).all()
    for i, r in enumerate(rows):
        assert self_t[job == i].sum() <= r["seconds"] + 1e-9
        root = (names == JOB) & (job == i)
        assert abs(dur[root].sum() - r["seconds"]) < 1e-12
    metrics, info = worker.layer_metrics(tr, rows)
    assert info["self_time_excess_jobs"] == 0
    assert metrics["hedging.simulate_calls"][0] > 0 and metrics["drbsde.rule_pairs"][0] > 0


def test_missing_target_is_reported_missing_not_zero(tmp_path):
    targets = dict(Tracer().targets, **{"drbsde.gone": ("gamehedge.drbsde", "no_such", None)})
    tr = Tracer(targets)
    tr.install()
    try:
        rows = [worker.run_one(_job("cli_desk", "oracle_3"), str(tmp_path), tr, 0)]
    finally:
        tr.uninstall()
    assert tr.missing == ["drbsde.gone"]
    tr.missing = ["drbsde.solve_drbsde"]
    metrics, info = worker.layer_metrics(tr, rows)
    assert "drbsde.solve_s" not in metrics and "drbsde.solve_s" in info["missing_metrics"]


def _bench(trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "certify_paths", "--seed", "0", "--seconds", "1", "--trace",
                           str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = _bench(trace)
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
