"""Closed-loop worker: one client runs one workload's jobs, one at a time.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 --out DIR

Needs gamehedge importable (run.py puts the checkout's src/ on PYTHONPATH).
Prints one JSON object on stdout.  Both modes stop at the first end of a
round (one job from every slot) after S seconds.  Untraced, it times every
job.  Traced, it runs every job twice in a row, once untraced and once
traced, alternating which goes first: the pairs give the tracing overhead
and the traced runs the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

import gamehedge
from gamehedge import bsde, cli, drbsde, hedging, robust, scenario

import jobs
from probe import REFERENCE_S
from tracer import JOB, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE_WARM_UP = 3

# layers whose share of job time is reported per job type; shares are
# inclusive, so a nested layer also counts in its caller's share
SHARE_LAYERS = ("scenario.build", "lattice.build_lattice", "drivers.audit_driver",
                "drbsde.payoff_layers", "drbsde.solve_drbsde", "bsde.solve_bsde",
                "lattice.layer_regression", "bsde.implicit_continuation",
                "hedging.extract_strategy", "hedging.stopping_time",
                "hedging.simulate_wealth", "validation.apriori_check",
                "drbsde.dynkin_bruteforce", "robust.robust_seller_price",
                "robust.robust_certificate")


def run_cli(job: dict, work_dir: str, tr: Tracer | None, job_id: int):
    d = tempfile.mkdtemp(dir=work_dir)
    try:
        path = os.path.join(d, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(jobs.scenario_text(job))
        out_dir = os.path.join(d, "out")
        argv = [job["command"], "--scenario", path, "--out", out_dir, *job["args"]]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = tr.begin_job(job_id) if tr else time.perf_counter()
            code = cli.main(argv)
            seconds = (tr.end_job() if tr else time.perf_counter()) - t0
        report, written = None, 0
        if os.path.isdir(out_dir):
            written = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
            rp = os.path.join(out_dir, "report.json")
            if os.path.exists(rp):
                with open(rp, encoding="utf-8") as fh:
                    report = json.load(fh)
        return seconds, {"exit": code, "report": report}, written
    finally:
        shutil.rmtree(d, ignore_errors=True)


def run_lib(job: dict, tr: Tracer | None, job_id: int):
    text = jobs.scenario_text(job)
    t0 = tr.begin_job(job_id) if tr else time.perf_counter()
    built = scenario.Scenario.from_text(text).build(audit=False)
    lat, drv, pay = built.lattice, built.driver, built.payoff
    if job["op"] == "seller_buyer":
        sol = drbsde.solve_drbsde(lat, drv, pay)
        buyer = hedging.buyer_superhedge(lat, drv, pay).price
        values = {"y0": sol.y0, "buyer": buyer, "xi0": sol.xi.root, "zeta0": sol.zeta.root}
    elif job["op"] == "european":
        values = {"y0": bsde.solve_bsde(lat, drv, pay.xi).y0}
    else:
        res = robust.robust_seller_price(lat, built.family, pay, audit=False)
        values = {"y0": res.v0_via_G, "grid": res.v0_via_grid, "frozen": res.frozen_value}
    seconds = (tr.end_job() if tr else time.perf_counter()) - t0
    return seconds, {"values": {k: float(v) for k, v in values.items()}}, 0


def run_job(job: dict, work_dir: str, tr: Tracer | None = None, job_id: int = -1):
    """(seconds, output, bytes written) of one job; output carries the error if it raised."""
    try:
        if job["kind"] == "cli":
            return run_cli(job, work_dir, tr, job_id)
        return run_lib(job, tr, job_id)
    except Exception as e:  # a job that raises is counted as failed, the run goes on
        if tr:
            tr.end_job()
        return float("nan"), {"error": f"{type(e).__name__}: {e}"}, 0


def run_one(job: dict, work_dir: str, tr: Tracer | None = None, job_id: int = -1) -> dict:
    secs, out, written = run_job(job, work_dir, tr, job_id)
    row = {"id": job["id"], "op": jobs.job_op(job), "seconds": secs,
           "problems": jobs.check(job, out), "bytes": written}
    if job.get("euro") and "values" in out:
        row["euro_err"] = jobs.euro_error(job, out["values"]["y0"])
    return row


def warm_up(seq: list[dict], work_dir: str) -> None:
    """Run the job on the largest lattice once, untimed.

    A fresh process pays page faults while its heap grows to the working
    set of the largest job; a long-running client pays them once.
    """
    run_one(max(seq, key=lambda j: j["scenario"]["lattice"]["n_steps"]), work_dir)


def current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


@contextlib.contextmanager
def probe_process():
    """A fresh probe process (probe.py) next to the worker; yields a function
    that runs one probe there, on the worker's CPU, and returns its seconds."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def probe() -> float:
        proc.stdin.write(f"{current_cpu()}\n")
        proc.stdin.flush()
        return float(proc.stdout.readline())

    try:
        for _ in range(PROBE_WARM_UP):
            probe()
        yield probe
    finally:
        proc.stdin.close()
        proc.wait()


def run_phase(seq: list[dict], seconds: float, work_dir: str, round_len: int, probe):
    """Closed loop over `seq` in whole rounds, up to the first round end after `seconds`.

    After each job the probe process runs one probe; the time that takes is
    kept out of the run.  Returns the rows and the run's wall time.
    """
    warm_up(seq, work_dir)
    results = []
    paused = 0.0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        t0 = time.perf_counter()
        row = run_one(seq[len(results) % len(seq)], work_dir)
        t1 = time.perf_counter()
        row["loop_s"] = t1 - t0
        row["probe"] = probe()
        pause = time.perf_counter() - t1
        paused += pause
        deadline += pause
        results.append(row)
        if len(results) % round_len == 0 and time.perf_counter() >= deadline:
            break
    return results, time.perf_counter() - start - paused


def run_traced(seq: list[dict], seconds: float, work_dir: str, tr: Tracer, round_len: int):
    """Every job twice, untraced and traced, alternating which goes first.

    Stops at the first round end after `seconds`, as run_phase does, so the
    traced averages cover whole rounds.
    """
    warm_up(seq, work_dir)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        i = len(traced)
        job = seq[i % len(seq)]
        for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
            if not use_tracer:
                plain.append(run_one(job, work_dir))
                continue
            tr.install()
            try:
                traced.append(run_one(job, work_dir, tr, i))
            finally:
                tr.uninstall()
        if len(traced) % round_len == 0 and time.perf_counter() >= deadline:
            break
    return plain, traced


def job_times(results: list[dict]) -> list[float]:
    """Times of the jobs that ran to the end (a raising job has none)."""
    return [r["seconds"] for r in results if r["seconds"] == r["seconds"]] or [float("nan")]


def end_to_end(results: list[dict], wall: float, workload: str) -> tuple[dict, dict]:
    """End-to-end metrics in reference-machine seconds, with the wall-clock values as info.

    Each job's time is scaled by REFERENCE_S over the probe time measured
    right after it; jobs_per_s divides the job count by the scaled time of
    the whole loop (jobs plus the client's own work around them).
    """
    done = [r for r in results if r["seconds"] == r["seconds"]] or results
    scaled = [r["seconds"] * REFERENCE_S / r["probe"] for r in done]
    loop = sum(r["loop_s"] * REFERENCE_S / r["probe"] for r in results)
    pct = jobs.TAIL_PERCENTILE[workload]
    tail = jobs.percentile(scaled, pct)
    metrics = {
        "job_s_p50": (jobs.percentile(scaled, 50.0), "s"),
        "job_s_tail": (tail, "s"),
        "jobs_per_s": (len(results) / loop, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    wall_times = job_times(results)
    failed = [r for r in results if r["problems"]]
    euro = [r["euro_err"] for r in results if "euro_err" in r]
    info = {
        "jobs": len(results),
        "wall_s": wall,
        "tail_percentile": pct,
        "jobs_beyond_tail": sum(1 for t in scaled if t > tail),
        "failed_frac": len(failed) / len(results),
        "failures": [(r["id"], r["problems"]) for r in failed[:5]],
        "mix": {op: sum(1 for r in results if r["op"] == op)
                for op in sorted({r["op"] for r in results})},
        "machine_probe_s": jobs.percentile([r["probe"] for r in results], 50.0),
        "wall": {"job_s_p50": jobs.percentile(wall_times, 50.0),
                 "job_s_tail": jobs.percentile(wall_times, pct),
                 "jobs_per_s": len(results) / wall},
    }
    if euro:
        info["euro_bs_err"] = max(euro)
    return metrics, info


def _spans(tr: Tracer):
    names = np.array(tr.names)
    start = np.array(tr.start)
    dur = np.array(tr.end) - start
    parent = np.array(tr.parent, dtype=np.int64)
    child = np.zeros(len(dur))
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return (names, dur, dur - child, parent, np.array(tr.job),
            np.array(tr.count, dtype=float), np.array(tr.aux, dtype=float))


def layer_metrics(tr: Tracer, results: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics per traced job, plus the layer shares per job type."""
    names, dur, self_t, parent, job, count, aux = _spans(tr)
    n_jobs = len(results)

    def sel(name):
        return names == name

    def per_job(x):
        return float(x) / n_jobs

    def ratio(a, b):
        return float(a) / float(b) if b else 0.0

    picard = sel("bsde.implicit_continuation")
    solve = sel("drbsde.solve_drbsde")
    sim = sel("hedging.simulate_wealth")
    seller = sel("robust.robust_seller_price")
    audits = sel("drivers.audit_driver")
    member = solve & np.isin(parent, np.nonzero(seller)[0])
    # computed, not measured: 8 per-node float64 arrays per solve (y, z, k, dA,
    # dA', continuation, xi, zeta) and one float64 per path per time level
    m = {
        "drivers.audit_s": (per_job(dur[audits].sum()), "s/job", ["drivers.audit_driver"]),
        "drivers.audit_calls": (per_job(audits.sum()), "count/job", ["drivers.audit_driver"]),
        "drivers.audit_contexts": (per_job(count[audits].sum()), "count/job",
                                   ["drivers.audit_driver"]),
        "cli.self_s": (per_job(self_t[sel("cli.main")].sum()), "s/job", ["cli.main"]),
        "cli.bytes_written": (per_job(sum(r["bytes"] for r in results)), "B/job", []),
        "scenario.parse_s": (per_job(dur[sel("scenario.from_text")].sum()), "s/job",
                             ["scenario.from_text"]),
        "scenario.build_self_s": (per_job(self_t[sel("scenario.build")].sum()), "s/job",
                                  ["scenario.build"]),
        "validation.apriori_s": (per_job(dur[sel("validation.apriori_check")].sum()), "s/job",
                                 ["validation.apriori_check"]),
        "drbsde.bruteforce_s": (per_job(dur[sel("drbsde.dynkin_bruteforce")].sum()), "s/job",
                                ["drbsde.dynkin_bruteforce"]),
        "drbsde.rule_pairs": (per_job(count[sel("drbsde.dynkin_bruteforce")].sum()),
                              "count/job", ["drbsde.dynkin_bruteforce"]),
        "lattice.build_s": (per_job(dur[sel("lattice.build_lattice")].sum()), "s/job",
                            ["lattice.build_lattice"]),
        "lattice.regression_s": (per_job(dur[sel("lattice.layer_regression")].sum()), "s/job",
                                 ["lattice.layer_regression"]),
        "lattice.regression_calls": (per_job(sel("lattice.layer_regression").sum()),
                                     "count/job", ["lattice.layer_regression"]),
        "bsde.picard_s": (per_job(dur[picard].sum()), "s/job", ["bsde.implicit_continuation"]),
        "bsde.picard_calls": (per_job(picard.sum()), "count/job",
                              ["bsde.implicit_continuation"]),
        "bsde.picard_iters": (per_job(count[picard].sum()), "count/job",
                              ["bsde.implicit_continuation"]),
        "bsde.iters_per_call": (ratio(count[picard].sum(), picard.sum()), "count",
                                ["bsde.implicit_continuation"]),
        "bsde.solve_s": (per_job(dur[sel("bsde.solve_bsde")].sum()), "s/job",
                         ["bsde.solve_bsde"]),
        "drbsde.solve_s": (per_job(dur[solve].sum()), "s/job", ["drbsde.solve_drbsde"]),
        "drbsde.solve_calls": (per_job(solve.sum()), "count/job", ["drbsde.solve_drbsde"]),
        "drbsde.self_s": (per_job(self_t[solve].sum()), "s/job", ["drbsde.solve_drbsde"]),
        "drbsde.payoff_layers_s": (per_job(dur[sel("drbsde.payoff_layers")].sum()), "s/job",
                                   ["drbsde.payoff_layers"]),
        "drbsde.nodes_per_s": (ratio(count[solve].sum(), dur[solve].sum()), "1/s",
                               ["drbsde.solve_drbsde"]),
        "drbsde.field_bytes_computed": (per_job(8 * 8 * count[solve].sum()), "B/job",
                                        ["drbsde.solve_drbsde"]),
        "robust.seller_s": (per_job(dur[seller].sum()), "s/job",
                            ["robust.robust_seller_price"]),
        "robust.self_s": (per_job(self_t[seller].sum()), "s/job",
                          ["robust.robust_seller_price"]),
        "robust.member_solves": (per_job(member.sum()), "count/job",
                                 ["robust.robust_seller_price", "drbsde.solve_drbsde"]),
        "robust.certificate_s": (per_job(dur[sel("robust.robust_certificate")].sum()), "s/job",
                                 ["robust.robust_certificate"]),
        "hedging.simulate_s": (per_job(dur[sim].sum()), "s/job", ["hedging.simulate_wealth"]),
        "hedging.simulate_calls": (per_job(sim.sum()), "count/job",
                                   ["hedging.simulate_wealth"]),
        "hedging.paths": (per_job(count[sim].sum()), "count/job", ["hedging.simulate_wealth"]),
        "hedging.paths_per_s": (ratio(count[sim].sum(), dur[sim].sum()), "1/s",
                                ["hedging.simulate_wealth"]),
        "hedging.trajectory_bytes_computed": (per_job(8 * (count * aux)[sim].sum()), "B/job",
                                              ["hedging.simulate_wealth"]),
        "hedging.extract_s": (per_job(dur[sel("hedging.extract_strategy")].sum()), "s/job",
                              ["hedging.extract_strategy"]),
        "hedging.stopping_s": (per_job(dur[sel("hedging.stopping_time")].sum()), "s/job",
                               ["hedging.stopping_time"]),
        "trace.unattributed_s": (per_job(self_t[sel(JOB)].sum()), "s/job", []),
    }
    metrics = {k: (v, unit) for k, (v, unit, needs) in m.items()
               if not any(t in tr.missing for t in needs)}
    missing = sorted(k for k, (_, _, needs) in m.items() if any(t in tr.missing for t in needs))

    ops = [r["op"] for r in results]
    job_time = np.array([r["seconds"] for r in results])
    shares = {}
    for op in sorted(set(ops)):
        ids = [i for i, o in enumerate(ops) if o == op]
        in_op = np.isin(job, ids)
        total = float(np.nansum(job_time[ids]))
        row = {name: float(dur[in_op & sel(name)].sum()) / total for name in SHARE_LAYERS
               if (in_op & sel(name)).any()}
        row["cli.main(self)"] = float(self_t[in_op & sel("cli.main")].sum()) / total
        row["unattributed"] = float(self_t[in_op & sel(JOB)].sum()) / total
        shares[op] = {"jobs": len(ids), "job_s_total": total,
                      "shares": {k: v for k, v in row.items() if v}}
    info = {"missing_metrics": missing, "missing_targets": tr.missing,
            "wrapped_sites": tr.wrapped, "spans": len(names), "traced_jobs": n_jobs,
            "picard_calls_total": int(picard.sum()),
            "self_time_excess_jobs": self_time_excess(self_t, job, results),
            "shares": shares}
    return metrics, info


def self_time_excess(self_t, job, results) -> int:
    """Jobs whose traced self times add up to more than the job's own time."""
    return sum(1 for i, r in enumerate(results)
               if self_t[job == i].sum() > r["seconds"] + 1e-9)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ns = ap.parse_args(argv)

    src = os.environ.get("PERFBENCH_SRC")
    if src and not os.path.abspath(gamehedge.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"gamehedge imported from {gamehedge.__file__}, not {src}", file=sys.stderr)
        return 2
    catalogue = jobs.load_catalogue()
    seq = jobs.sequence(catalogue, ns.workload, ns.seed)
    round_len = len(catalogue["workloads"][ns.workload]["slots"])
    work_dir = tempfile.mkdtemp(prefix="work-", dir=ns.out)
    try:
        if not ns.trace:
            with probe_process() as probe:
                results, wall = run_phase(seq, ns.seconds, work_dir, round_len, probe)
            metrics, info = end_to_end(results, wall, ns.workload)
            attempted = len(results)
            failed = sum(1 for r in results if r["problems"])
        else:
            tr = Tracer()
            plain, traced = run_traced(seq, ns.seconds, work_dir, tr, round_len)
            metrics, info = layer_metrics(tr, traced)
            base = jobs.percentile(job_times(plain), 50.0)
            with_tr = jobs.percentile(job_times(traced), 50.0)
            metrics["trace.overhead_frac"] = (with_tr / base - 1.0, "frac")
            info["overhead_base"] = {"jobs": len(traced), "untraced_p50_s": base,
                                     "traced_p50_s": with_tr}
            tr.write(os.path.join(ns.out, f"spans-{ns.workload}-{ns.seed}.tsv.gz"))
            both = plain + traced
            attempted = len(both)
            failed = sum(1 for r in both if r["problems"])
            info["failures"] = [(r["id"], r["problems"]) for r in both if r["problems"]][:5]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                      "info": info}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
