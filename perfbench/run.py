"""gamehedge benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root; gamehedge is loaded from ./src.  Measures the
set-up cost in fresh interpreters, then runs the workload in a fresh worker
process for S seconds, checks every job's output, prints each metric by
name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Span files go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import jobs
from probe import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 10
TIMEOUT_MARGIN_S = 100


def _child_env(src: str) -> dict:
    env = dict(os.environ)
    env.pop("GAMEHEDGE_THREADS", None)
    env["PYTHONPATH"] = src
    env["PERFBENCH_SRC"] = src
    return env


def measure_setup(texts_path: str, env: dict, src: str) -> list[tuple[float, float]]:
    """(wall seconds, probe seconds) in SETUP_REPEATS fresh interpreters, after one
    untimed warm-up."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), texts_path],
                              env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not os.path.abspath(probe["module"]).startswith(src + os.sep):
            raise RuntimeError(f"gamehedge loaded from {probe['module']}, not {src}")
        if i:
            times.append((probe["seconds"], probe["probe"]))
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "gamehedge", "__init__.py")):
        print(f"error: no gamehedge sources under {src}", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = _child_env(src)

    seq = jobs.sequence(jobs.load_catalogue(), ns.workload, ns.seed)
    texts_path = os.path.join(out_dir, f"scenarios-{os.getpid()}.json")
    with open(texts_path, "w", encoding="utf-8") as fh:
        json.dump([jobs.scenario_text(j) for j in seq], fh)
    try:
        setup_all = measure_setup(texts_path, env, src)
    finally:
        os.remove(texts_path)

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", ns.workload,
           "--seed", str(ns.seed), "--seconds", repr(ns.seconds), "--trace", str(ns.trace),
           "--out", out_dir]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=ns.seconds + TIMEOUT_MARGIN_S)
    if proc.returncode != 0:
        print(f"error: worker exited {proc.returncode}: {proc.stderr.strip()[-4000:]}",
              file=sys.stderr)
        return 2
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = res["metrics"]
    info = res["info"]
    if not ns.trace:
        # each sample scaled by the probe its own interpreter ran after it
        metrics["setup_s"] = {"value": statistics.median(t * REFERENCE_S / p for t, p in setup_all),
                              "unit": "s"}
        info["wall"]["setup_s"] = statistics.median(t for t, _ in setup_all)

    print(f"# workload {ns.workload}  seed {ns.seed}  seconds {ns.seconds:g}  trace {ns.trace}")
    if not ns.trace:
        print(f"# times in reference-machine seconds: wall time x {REFERENCE_S} s / probe time")
    for name, m in metrics.items():
        wall = info.get("wall", {}).get(name)
        print(f"{name:34s} {m['value']:.6g} {m['unit']}"
              + (f"   (wall clock {wall:.6g} {m['unit']})" if wall is not None else ""))
    print(f"{'failed_frac':34s} {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']}/{res['attempted']} jobs)")
    if not ns.trace:
        print(f"{'setup_s wall samples':34s} {' '.join(f'{t:.4f}' for t, _ in setup_all)} s")
        print(f"{'setup_s probe samples':34s} {' '.join(f'{p:.4f}' for _, p in setup_all)} s")
        print(f"{'job_s_tail percentile':34s} p{info['tail_percentile']:g} over "
              f"{info['jobs']} jobs, {info['jobs_beyond_tail']} beyond")
        if "euro_bs_err" in info:
            print(f"{'euro_bs_err':34s} {info['euro_bs_err']:.6g} (max |y0 - Black-Scholes|)")
        print(f"{'mix':34s} {json.dumps(info['mix'], sort_keys=True)}")
        print(f"{'machine probe':34s} {info['machine_probe_s']:.5f} s median "
              f"(reference {REFERENCE_S} s)")
    else:
        ob = info["overhead_base"]
        print(f"{'trace.overhead_frac base':34s} p50 over {ob['jobs']} job pairs: "
              f"untraced {ob['untraced_p50_s']:.6g} s, traced {ob['traced_p50_s']:.6g} s")
        print(f"{'bsde.iters_per_call base':34s} {info['picard_calls_total']} Picard calls")
        for op, row in info["shares"].items():
            shares = ", ".join(f"{k} {v:.1%}" for k, v in
                               sorted(row["shares"].items(), key=lambda kv: -kv[1]))
            print(f"{'share ' + op:34s} ({row['jobs']} jobs) {shares}")
        for name in info["missing_metrics"]:
            print(f"{name:34s} MISSING (wrap target gone: {info['missing_targets']})")
        if info["self_time_excess_jobs"]:
            print(f"self times exceed job time in {info['self_time_excess_jobs']} jobs",
                  file=sys.stderr)
    for job_id, problems in info["failures"]:
        print(f"FAILED {job_id}: {'; '.join(problems)}", file=sys.stderr)

    correct = res["failed"] == 0 and not info.get("missing_metrics")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
