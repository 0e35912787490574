"""Draw the job catalogue and record its reference root prices.

    PYTHONPATH=src python3 perfbench/record.py

Run from the repository root.  Writes perfbench/catalogue.json: for every
workload, its slots, and for every slot VARIANTS jobs drawn from seed SEED.
A draw is kept only if `audit_driver` passes and the lattice lies in the
comparison region of the solving driver's constant (the documented
refusals); each kept job is then run once, must pass the independent checks
in jobs.check, and its root prices become the recorded reference.  Any job
that fails a check is reported on stderr and not kept.
"""

from __future__ import annotations

import json
import sys
import tempfile

import numpy as np

from gamehedge import audit_driver, comparison_region_ok
from gamehedge.scenario import Scenario

import jobs
import worker

AUDIT_STEPS = 60      # audit probe lattice for library jobs, whose full audit is skipped
VARIANTS = 8          # jobs per slot
SEED = 1              # draws every slot's jobs; the recorded prices belong to it
HORIZON = 0.5         # fixed, so a slot's Picard work (which depends on dt) varies little


def _r(x: float) -> float:
    return round(float(x), 4)


def _num(x: float) -> str:
    return repr(_r(x))


def draw_market(rng, lam: str) -> dict:
    r = rng.uniform(0.0, 0.06)
    sigma1 = rng.uniform(0.2, 0.5)
    theta1 = rng.uniform(-0.5, 0.5)
    sigma2 = rng.uniform(0.1, 0.4)
    if lam == "zero":
        lam_bar, theta2 = 0.0, 0.0
    else:
        lam_bar, theta2 = rng.uniform(0.05, 0.4), rng.uniform(-0.8, 0.8)
    return {"r": _r(r), "mu1": _r(r + theta1 * sigma1), "sigma1": _r(sigma1),
            "mu2": _r(sigma2 * theta1 + r - theta2 * lam_bar), "sigma2": _r(sigma2),
            "lambda_bar": _r(lam_bar), "s1_0": _r(rng.uniform(0.5, 2.0)), "s2_0": 1.0}


def draw_driver(rng, market: dict, kinds: tuple) -> dict:
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "borrow_lend":
        return {"kind": kind, "borrow_rate": _r(market["r"] + rng.uniform(0.0, 0.05))}
    if kind == "tax":
        return {"kind": kind, "tax_rate": _r(rng.uniform(0.05, 0.3))}
    return {"kind": kind}


def draw_payoff(rng, s1_0: float) -> dict:
    a = _num(rng.uniform(0.5, 2.0))
    strike = _num(rng.uniform(0.8, 1.2) * s1_0)
    b = _num(rng.uniform(0.0, 0.2))
    gap = _num(rng.uniform(0.02, 0.3))
    inner = f"S1 - {strike}" if rng.uniform() < 0.5 else f"{strike} - S1"
    xi = f"{a}*pos({inner}) + {b}"
    return {"xi": xi, "zeta": f"{xi} + {gap}"}


def ambiguity(rng, base: dict, controls: int, lo: float, hi: float) -> dict:
    grid = np.linspace(lo, hi, controls) + rng.uniform(-0.01, 0.01, controls)
    u = sorted({_r(g) for g in grid})
    return {"kind": "ambiguity", "base": base, "u_grid": u, "nu": u}


def scenario(n: int, horizon: float, market: dict, driver: dict, payoff: dict) -> dict:
    return {"lattice": {"horizon": _r(horizon), "n_steps": int(n)}, "market": market,
            "driver": driver, "payoff": payoff}


def admissible(sc: dict) -> bool:
    """Comparison region of the solving constant at the job's n; audit on a probe lattice."""
    built = Scenario.from_text(json.dumps(sc)).build(audit=False)
    c = built.family.lambda_constant if built.family else built.driver.lambda_constant
    if not comparison_region_ok(built.lattice, c):
        return False
    probe = dict(sc, lattice={"horizon": sc["lattice"]["horizon"],
                              "n_steps": min(sc["lattice"]["n_steps"], AUDIT_STEPS)})
    small = Scenario.from_text(json.dumps(probe)).build(audit=False)
    drivers = small.family.members() if small.family else [small.driver]
    return all(audit_driver(d, small.lattice).ok for d in drivers)


# slot name -> (job template, n range).  Each slot fixes what drives a job's
# cost (command, n, driver kind, whether the intensity is zero, horizon) and
# draws the rest: market, payoff, rates and controls.
def _cli(command, kind, lam, epsilon=False, controls=None):
    def make(rng, n):
        market = draw_market(rng, lam)
        driver = draw_driver(rng, market, (kind,))
        if controls:
            driver = ambiguity(rng, driver, controls, -0.3, 0.5)
        args = ["--epsilon", repr([0.005, 0.01, 0.02][int(rng.integers(3))])] if epsilon else []
        return {"kind": "cli", "command": command, "args": args,
                "scenario": scenario(n, HORIZON, market, driver,
                                     draw_payoff(rng, market["s1_0"]))}
    return make


def _lib(op, kind, lam, controls=None):
    def make(rng, n):
        market = draw_market(rng, lam)
        if op == "european":
            driver = {"kind": "perfect"}
            strike = _r(rng.uniform(0.8, 1.2) * market["s1_0"])
            call = rng.uniform() < 0.5
            xi = f"pos(S1 - {strike!r})" if call else f"pos({strike!r} - S1)"
            payoff = {"xi": xi, "zeta": f"{xi} + 0.1"}
        else:
            driver = draw_driver(rng, market, (kind,))
            if controls:
                driver = ambiguity(rng, driver, controls, -0.4, 0.6)
            payoff = draw_payoff(rng, market["s1_0"])
        job = {"kind": "lib", "op": op,
               "scenario": scenario(n, HORIZON, market, driver, payoff)}
        if op == "european":
            job["euro"] = {"type": "call" if call else "put", "strike": strike}
        return job
    return make


SLOTS = {
    "cli_desk": {
        "oracle_4_borrow_lend_nodefault": (_cli("oracle", "borrow_lend", "zero"), (4, 4)),
        "oracle_3_tax": (_cli("oracle", "tax", "positive"), (3, 3)),
        "price_44_tax_nodefault": (_cli("price", "tax", "zero"), (44, 44)),
        "price_40_perfect": (_cli("price", "perfect", "positive"), (40, 40)),
        "price_48_borrow_lend": (_cli("price", "borrow_lend", "positive"), (48, 48)),
        "price_56_tax": (_cli("price", "tax", "positive"), (56, 56)),
        "verify_44_perfect": (_cli("verify", "perfect", "positive"), (44, 44)),
        "price_64_perfect": (_cli("price", "perfect", "positive"), (64, 64)),
        "price_72_borrow_lend": (_cli("price", "borrow_lend", "positive"), (72, 72)),
        "verify_56_tax": (_cli("verify", "tax", "positive"), (56, 56)),
        "price_84_tax": (_cli("price", "tax", "positive"), (84, 84)),
        "price_100_perfect": (_cli("price", "perfect", "positive"), (100, 100)),
        "verify_72_borrow_lend": (_cli("verify", "borrow_lend", "positive"), (72, 72)),
    },
    "sweep_deep": {
        "european_600_nodefault": (_lib("european", "perfect", "zero"), (600, 600)),
        "european_1000": (_lib("european", "perfect", "positive"), (1000, 1000)),
        "seller_buyer_1200_perfect": (_lib("seller_buyer", "perfect", "positive"), (1200, 1200)),
        "european_1400": (_lib("european", "perfect", "positive"), (1400, 1400)),
        "seller_buyer_1200_perfect_nodefault": (_lib("seller_buyer", "perfect", "zero"),
                                                (1200, 1200)),
        "seller_buyer_800_borrow_lend": (_lib("seller_buyer", "borrow_lend", "positive"),
                                         (800, 800)),
        "seller_buyer_900_tax": (_lib("seller_buyer", "tax", "positive"), (900, 900)),
        "seller_buyer_1000_tax": (_lib("seller_buyer", "tax", "positive"), (1000, 1000)),
        "seller_buyer_1100_perfect": (_lib("seller_buyer", "perfect", "positive"), (1100, 1100)),
        "seller_buyer_1400_borrow_lend": (_lib("seller_buyer", "borrow_lend", "positive"),
                                          (1400, 1400)),
        "robust16_150_tax": (_lib("robust", "tax", "positive", controls=16), (150, 150)),
    },
    "certify_paths": {
        "hedge_star_13_perfect": (_cli("hedge", "perfect", "positive"), (13, 13)),
        "hedge_star_14_borrow_lend": (_cli("hedge", "borrow_lend", "positive"), (14, 14)),
        "hedge_star_15_tax": (_cli("hedge", "tax", "positive"), (15, 15)),
        "hedge_star_16_perfect": (_cli("hedge", "perfect", "positive"), (16, 16)),
        "hedge_eps_14_tax": (_cli("hedge", "tax", "positive", epsilon=True), (14, 14)),
        "hedge_eps_16_borrow_lend": (_cli("hedge", "borrow_lend", "positive", epsilon=True),
                                     (16, 16)),
        "robust_12_perfect_4": (_cli("robust", "perfect", "positive", controls=4), (12, 12)),
        "robust_13_tax_3": (_cli("robust", "tax", "positive", controls=3), (13, 13)),
        "robust_14_borrow_lend_3": (_cli("robust", "borrow_lend", "positive", controls=3),
                                    (14, 14)),
    },
}

REFERENCE_KEYS = {"price": ("y0", "buyer"), "verify": ("y0",), "oracle": ("y0",),
                  "hedge": ("y0",), "robust": ("y0", "grid", "frozen"),
                  "seller_buyer": ("y0", "buyer"), "european": ("y0",),
                  "robust_lib": ("y0", "grid", "frozen")}


def record(variants: int, seed: int, work_dir: str) -> dict:
    rng = np.random.default_rng(seed)
    out = {"seed": seed, "variants": variants, "workloads": {}}
    for workload, slots in SLOTS.items():
        rows = []
        for slot, (make, (n_lo, n_hi)) in slots.items():
            kept, refused, failed, seconds = [], 0, 0, 0.0
            while len(kept) < variants:
                job = make(rng, int(rng.integers(n_lo, n_hi + 1)))
                if not admissible(job["scenario"]):
                    refused += 1
                    continue
                job["id"] = f"{workload}/{slot}/{len(kept)}"
                secs, result, _ = worker.run_job(job, work_dir)
                problems = jobs.check(job, result, with_reference=False)
                if problems:
                    failed += 1
                    print(f"FAILED {job['id']}: {problems}\n  {json.dumps(job)}",
                          file=sys.stderr)
                    continue
                values = jobs.root_values(job, result)
                job["reference"] = {k: values[k] for k in REFERENCE_KEYS[jobs.job_op(job)]}
                if job.get("euro"):
                    n = job["scenario"]["lattice"]["n_steps"]
                    job["euro"]["scaled_error"] = (jobs.euro_error(job, values["y0"]) * n
                                                   / job["scenario"]["market"]["s1_0"])
                kept.append(job)
                seconds += secs
            print(f"{workload}/{slot}: kept {len(kept)}, refused {refused}, failed {failed}, "
                  f"mean {seconds / len(kept):.3f} s", file=sys.stderr)
            rows.append({"name": slot, "n_range": [n_lo, n_hi], "refused": refused,
                         "failed": failed, "jobs": kept})
        out["workloads"][workload] = {"slots": rows}
    return out


def main() -> int:
    with tempfile.TemporaryDirectory(dir=".") as work_dir:
        cat = record(VARIANTS, SEED, work_dir)
    with open(jobs.CATALOGUE, "w", encoding="utf-8") as fh:
        json.dump(cat, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
