"""Untimed convergence report: price against n for fixed claims.

    PYTHONPATH=src python3 perfbench/convergence.py > perfbench/CONVERGENCE.md

Run from the repository root.  Prints a Markdown report with two tables:

1. A European call on S1 in the perfect market against the closed-form
   Black-Scholes price at n in {100, 200, 400, 800, 1600}, for a zero and a
   positive default intensity (S1 does not jump at default, so the closed
   form holds for both), with the order of convergence fitted by least
   squares on log |err| against log n.
2. The game claim of the README quick start (perfect market, so seller and
   buyer prices coincide) with Richardson extrapolation 2 V(2n) - V(n) on
   even n, which would cancel a c/n error term.  The slow drift that
   remains is recorded as an open question.
"""

from __future__ import annotations

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from gamehedge import solve_bsde, solve_drbsde  # noqa: E402
from gamehedge.scenario import Scenario  # noqa: E402

import jobs  # noqa: E402

MARKET = {"r": 0.03, "mu1": 0.09, "sigma1": 0.35, "mu2": 0.10, "sigma2": 0.2,
          "lambda_bar": 0.3, "s1_0": 1.0, "s2_0": 1.0}
HORIZON = 0.5
STRIKE = 0.95
GAME = {"xi": "pos(S1 - 0.95)", "zeta": "pos(S1 - 0.95) + 0.04"}
EURO_N = (100, 200, 400, 800, 1600)
GAME_N = (50, 100, 200, 400, 800, 1600, 3200, 4000)


def built(n: int, lam: float, payoff: dict):
    sc = {"lattice": {"horizon": HORIZON, "n_steps": n},
          "market": dict(MARKET, lambda_bar=lam), "driver": {"kind": "perfect"},
          "payoff": payoff}
    return Scenario.from_text(json.dumps(sc)).build(audit=False)


def fitted_order(ns, errs) -> float:
    """Slope of -log |err| against log n, by least squares."""
    xs = [math.log(n) for n in ns]
    ys = [-math.log(abs(e)) for e in errs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def european_table() -> list[str]:
    bs = jobs.black_scholes("call", MARKET["s1_0"], STRIKE, MARKET["r"], MARKET["sigma1"],
                            HORIZON)
    lines = [f"Black-Scholes call, K = {STRIKE}, T = {HORIZON}, r = {MARKET['r']}, "
             f"sigma1 = {MARKET['sigma1']}: {bs!r}", "",
             "| lambda | n | y0 | y0 - BS | n * abs(err) |", "|---|---|---|---|---|"]
    orders = []
    for lam in (0.0, MARKET["lambda_bar"]):
        errs = []
        for n in EURO_N:
            b = built(n, lam, {"xi": f"pos(S1 - {STRIKE})", "zeta": f"pos(S1 - {STRIKE}) + 0.1"})
            errs.append(solve_bsde(b.lattice, b.driver, b.payoff.xi).y0 - bs)
            lines.append(f"| {lam} | {n} | {bs + errs[-1]:.10f} | {errs[-1]:.3e} | "
                         f"{n * abs(errs[-1]):.4f} |")
        orders.append(f"lambda = {lam}: {fitted_order(EURO_N, errs):.2f}")
    lines += ["", "Fitted order (1 means O(1/n)): " + "; ".join(orders) + ".  n |err| stays "
              "bounded while err changes sign with the strike's position between nodes, the "
              "usual odd/even and strike-placement oscillation of binomial prices."]
    return lines


def game_table() -> list[str]:
    price = {}
    for n in GAME_N:
        b = built(n, MARKET["lambda_bar"], GAME)
        price[n] = solve_drbsde(b.lattice, b.driver, b.payoff).y0
    lines = ["| n | V(n) | Richardson 2 V(2n) - V(n) |", "|---|---|---|"]
    for n in GAME_N:
        rich = f"{2 * price[2 * n] - price[n]:.8f}" if 2 * n in price else ""
        lines.append(f"| {n} | {price[n]:.8f} | {rich} |")
    lines += ["", f"Open question: V(n) falls from {price[GAME_N[0]]:.5f} at n = {GAME_N[0]} to "
              f"{price[GAME_N[-1]]:.5f} at n = {GAME_N[-1]}, and the Richardson values still "
              "move in the fourth decimal, so the error is not a clean c/n term (the early "
              "exercise and cancellation boundaries are one candidate).  Not explained yet."]
    return lines


def main() -> int:
    print("# Convergence report (untimed)\n")
    print("Generated by `perfbench/convergence.py`; perfect market, README market "
          "parameters.\n")
    print("## European call against Black-Scholes\n")
    print("\n".join(european_table()))
    print("\n## Game claim of the README quick start\n")
    print(f"xi = {GAME['xi']}, zeta = {GAME['zeta']}, lambda = {MARKET['lambda_bar']}.\n")
    print("\n".join(game_table()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
