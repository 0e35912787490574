"""Workloads, seeded job sequences and independent output checks.

Standard library only: the parent process and the set-up probe load this
module without importing gamehedge.

The job catalogue (catalogue.json, written by record.py) holds every job a
run can draw, grouped per workload into slots.  A run is a sequence of
rounds; each round visits every slot once, in a seeded order, and takes a
seeded variant from it.  That keeps the mix of job types and sizes the same
from seed to seed while the concrete jobs differ.
"""

from __future__ import annotations

import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOGUE = os.path.join(HERE, "catalogue.json")

WORKLOADS = ("cli_desk", "sweep_deep", "certify_paths")

# Percentile reported as job_s_tail: the highest one that leaves at least
# ten jobs beyond it in a run of the baseline at this run length.
TAIL_PERCENTILE = {"cli_desk": 75.0, "sweep_deep": 70.0, "certify_paths": 90.0}

ROUNDS = 40             # rounds drawn per run; runs wrap around if they get through all
PRICE_TOL = 1e-10       # recorded root prices, absolute
SELLER_BUYER_TOL = 1e-12
ROBUST_TOL = 1e-10      # |frozen - v0_via_G| and v0_via_G >= v0_via_grid - tol
ORACLE_TOL = 1e-10
EURO_CONST = 0.1        # |y0 - Black-Scholes| <= EURO_CONST * s1_0 / n


def load_catalogue() -> dict:
    with open(CATALOGUE, encoding="utf-8") as fh:
        return json.load(fh)


def sequence(catalogue: dict, workload: str, seed: int, rounds: int = ROUNDS) -> list[dict]:
    """The seed's job order: `rounds` rounds, one variant of every slot each.

    Each slot deals its variants from a seeded shuffled deck, so a run uses
    every variant once before it repeats one.
    """
    slots = catalogue["workloads"][workload]["slots"]
    rng = random.Random(f"{workload}:{seed}")
    decks = [[] for _ in slots]
    out = []
    for _ in range(rounds):
        order = list(range(len(slots)))
        rng.shuffle(order)
        for s in order:
            if not decks[s]:
                decks[s] = list(slots[s]["jobs"])
                rng.shuffle(decks[s])
            out.append(decks[s].pop())
    return out


def norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def black_scholes(kind: str, s0: float, strike: float, r: float, sigma: float,
                  horizon: float) -> float:
    vol = sigma * math.sqrt(horizon)
    d1 = (math.log(s0 / strike) + (r + 0.5 * sigma * sigma) * horizon) / vol
    d2 = d1 - vol
    disc = strike * math.exp(-r * horizon)
    if kind == "call":
        return s0 * norm_cdf(d1) - disc * norm_cdf(d2)
    return disc * norm_cdf(-d2) - s0 * norm_cdf(-d1)


def euro_error(job: dict, y0: float) -> float:
    """|y0 - Black-Scholes| for a European job (S1 does not jump at default)."""
    e = job["euro"]
    mkt = job["scenario"]["market"]
    bs = black_scholes(e["type"], mkt["s1_0"], e["strike"], mkt["r"], mkt["sigma1"],
                       job["scenario"]["lattice"]["horizon"])
    return abs(y0 - bs)


def euro_bound(job: dict) -> float:
    sc = job["scenario"]
    return EURO_CONST * sc["market"]["s1_0"] / sc["lattice"]["n_steps"]


def _close(a, b, tol) -> bool:
    return a is not None and b is not None and abs(float(a) - float(b)) <= tol


def check(job: dict, out: dict, *, with_reference: bool = True) -> list[str]:
    """Problems found in one job's output; empty when the job is correct.

    `out` is what the worker saw: for CLI jobs the exit code and report.json,
    for library jobs the root values.  The reference comparison uses the
    root prices recorded in the catalogue, never bytes, so a report-schema
    change that keeps the prices is not a failure.
    """
    if "error" in out:
        return [f"raised {out['error']}"]
    problems = []
    values = root_values(job, out)
    if values is None:
        return ["output missing or unreadable"]
    if job["kind"] == "cli":
        if out.get("exit") != 0:
            problems.append(f"exit code {out.get('exit')}")
        rep = out["report"]
        cmd = job["command"]
        if cmd in ("hedge", "verify", "oracle", "robust") and rep.get("ok") is not True:
            problems.append("report not ok")
        if cmd == "hedge" and rep.get("violations") != 0:
            problems.append(f"{rep.get('violations')} violations")
        if cmd == "robust":
            if any(c.get("violations") != 0 or c.get("ok") is not True
                   for c in rep.get("certificates", [])):
                problems.append("robust certificate violated")
        if cmd == "oracle" and not (rep.get("gap_saddle", 1.0) < ORACLE_TOL
                                    and rep.get("gap_value", 1.0) < ORACLE_TOL):
            problems.append("oracle gap")
    op = job_op(job)
    if op in ("price", "seller_buyer", "verify"):
        xi0, y0, zeta0 = values["xi0"], values["y0"], values["zeta0"]
        if not xi0 <= y0 <= zeta0:
            problems.append(f"root {y0!r} outside [{xi0!r}, {zeta0!r}]")
    if "buyer" in values and not values["y0"] >= values["buyer"] - SELLER_BUYER_TOL:
        problems.append(f"seller {values['y0']!r} < buyer {values['buyer']!r}")
    if op in ("robust", "robust_lib"):
        if not abs(values["frozen"] - values["y0"]) <= ROBUST_TOL:
            problems.append("frozen control does not reproduce v0_via_G")
        if not values["y0"] >= values["grid"] - ROBUST_TOL:
            problems.append("v0_via_G below the grid maximum")
    if op == "european" and euro_error(job, values["y0"]) > euro_bound(job):
        problems.append(f"Black-Scholes error {euro_error(job, values['y0']):.3g} "
                        f"above {euro_bound(job):.3g}")
    if with_reference:
        for key, ref in job["reference"].items():
            if not _close(values.get(key), ref, PRICE_TOL):
                problems.append(f"{key} {values.get(key)!r} != recorded {ref!r}")
    return problems


def job_op(job: dict) -> str:
    if job["kind"] == "cli":
        return job["command"]
    return {"robust": "robust_lib"}.get(job["op"], job["op"])


def root_values(job: dict, out: dict) -> dict | None:
    """The root prices of a job's output, by the names the catalogue records."""
    if job["kind"] != "cli":
        return out.get("values")
    rep = out.get("report")
    if not isinstance(rep, dict):
        return None
    try:
        cmd = job["command"]
        if cmd == "price":
            return {"y0": rep["seller_price"], "buyer": rep["buyer_price"],
                    "xi0": rep["xi_root"], "zeta0": rep["zeta_root"]}
        if cmd == "verify":
            detail = next(c["detail"] for c in rep["checks"]
                          if c["name"] == "root_between_barriers")
            return {"xi0": detail[0], "y0": detail[1], "zeta0": detail[2]}
        if cmd == "oracle":
            return {"y0": rep["y0"]}
        if cmd == "hedge":
            return {"y0": rep["price"]}
        if cmd == "robust":
            return {"y0": rep["v0_via_G"], "grid": rep["v0_via_grid"],
                    "frozen": rep["frozen_value"]}
    except (KeyError, StopIteration, TypeError, IndexError):
        return None
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of a nonempty sample."""
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def scenario_text(job: dict) -> str:
    return json.dumps(job["scenario"], sort_keys=True, indent=2) + "\n"
