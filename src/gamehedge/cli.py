"""Command-line front end.

    gamehedge price  --scenario s.json [--out DIR]
    gamehedge hedge  --scenario s.json [--out DIR] [--epsilon E] [--x0-override X]
    gamehedge robust --scenario s.json [--out DIR]
    gamehedge verify --scenario s.json [--out DIR] [--seed N]
    gamehedge oracle --scenario s.json [--out DIR] [--max-oracle-steps N]

Exit codes: 0 success, 1 parse or audit failure, 2 solver failure,
3 verification failure (an invariant the run was asked to certify does
not hold).  Errors are emitted as one JSON object on stderr.  All outputs
are deterministic: identical scenario and flags give byte-identical
files.

Every solve is one backward sweep (`bsde.backward_sweep`); `robust`
solves all grid models in one sweep, a column per model on a trailing
batch axis, each column's Picard iteration converging on its own.

Files written to --out (default '.'): report.json always; price.csv for
price; strategy.csv and stopping.csv for hedge; alphas.csv and
worst_alpha.csv for robust.  CSV: header row, '.' decimal separator,
newline line endings, floats in shortest round-trip form.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .drbsde import dynkin_bruteforce, solve_drbsde
from .errors import (
    AuditFailure,
    BarrierViolation,
    DensityNotPositive,
    EmptyGrid,
    InvalidParams,
    MismatchedInstances,
    NegativeDividend,
    NoContraction,
    NuOutOfRange,
    PicardDivergence,
    PreconditionViolated,
    ScenarioError,
    TooLarge,
    UnknownNode,
)
from .hedging import buyer_superhedge, extract_strategy, simulate_wealth, stopping_time
from .robust import robust_buyer_price, robust_certificate, robust_seller_price
from .scenario import BuiltScenario, Scenario
from .validation import EstimateParams, apriori_check

ORACLE_TOL = 1e-10

_PARSE_ERRORS = (ScenarioError, AuditFailure, BarrierViolation, InvalidParams,
                 NuOutOfRange, EmptyGrid, NegativeDividend, OSError)
_SOLVER_ERRORS = (NoContraction, PicardDivergence, DensityNotPositive, TooLarge,
                  UnknownNode, MismatchedInstances, PreconditionViolated)


def _emit_error(e: Exception) -> None:
    payload = {"error": type(e).__name__, "message": str(e)}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: str, header: list[str], blocks) -> None:
    """Header row, then each block: rows already joined, newline-terminated."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            fh.write(block)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _node_rows(lattice, fields, fmt=repr):
    """One block of CSV rows per layer, in canonical node order: step asc,
    alive before defaulted, j asc.  Each row is step, j, status and fmt of
    every field's value; the default repr of a Python float equals
    `_fmt` of the float64 it came from.
    """
    for k in range(lattice.n_steps + 1):
        for defaulted in (False, True):
            cols = [f.layer(k, defaulted).tolist() for f in fields]
            size = len(cols[0]) if cols else 0
            status = "1" if defaulted else "0"
            prefixes = [f"{k},{j},{status}" for j in range(size)]
            rows = zip(prefixes, *(map(fmt, c) for c in cols))
            yield "".join(",".join(row) + "\n" for row in rows)


def _cmd_price(ns, built: BuiltScenario) -> int:
    lattice, p = built.lattice, built.payoff
    sol = solve_drbsde(lattice, built.driver, p)
    if built.family is not None:
        buyer = robust_buyer_price(lattice, built.family, p, audit=False)
    else:
        buyer = buyer_superhedge(lattice, built.driver, p).price
    _write_csv(os.path.join(ns.out, "price.csv"),
               ["step", "j", "default_status", "Y", "Z", "K", "dA", "dA_prime"],
               _node_rows(lattice, [sol.y, sol.z, sol.k, sol.da, sol.dap]))
    report = {
        "command": "price",
        "seller_price": float(sol.y0),
        "buyer_price": float(buyer),
        "xi_root": float(sol.xi.root),
        "zeta_root": float(sol.zeta.root),
        "picard_iterations": int(sol.iterations),
        "n_steps": int(lattice.n_steps),
    }
    _write_json(os.path.join(ns.out, "report.json"), report)
    print(f"seller price {_fmt(sol.y0)}  buyer price {_fmt(buyer)}")
    return 0


def _cmd_hedge(ns, built: BuiltScenario) -> int:
    lattice, d, p = built.lattice, built.driver, built.payoff
    sol = solve_drbsde(lattice, d, p)
    strat = extract_strategy(sol, lattice.mp)
    if ns.epsilon is not None:
        rule = stopping_time(sol, p, "sigma_eps", eps=float(ns.epsilon))
        rule_kind = "sigma_eps"
    else:
        rule = stopping_time(sol, p, "sigma_star")
        rule_kind = "sigma_star"
    x0 = float(ns.x0_override) if ns.x0_override is not None else float(sol.y0)
    rep = simulate_wealth(x0, strat, d, lattice, rule,
                          tol=float(built.options["tolerance"]), reference=sol.y)
    _write_csv(os.path.join(ns.out, "strategy.csv"),
               ["step", "j", "default_status", "phi1", "phi2"],
               _node_rows(lattice, [strat.phi1, strat.phi2]))
    _write_csv(os.path.join(ns.out, "stopping.csv"),
               ["step", "j", "default_status", "stop"],
               _node_rows(lattice, [rule.flags], lambda v: str(int(v))))
    report = {
        "command": "hedge",
        "price": float(sol.y0),
        "x0": x0,
        "rule": rule_kind,
        "epsilon": None if ns.epsilon is None else float(ns.epsilon),
        "n_paths": int(rep.n_paths),
        "violations": int(rep.violations),
        "min_slack_xi": rep.worst_xi_slack,
        "stop_slack": rep.worst_stop_slack,
        "min_slack_reference": rep.worst_ref_slack,
        "tolerance": float(rep.tol),
        "ok": bool(rep.ok),
    }
    _write_json(os.path.join(ns.out, "report.json"), report)
    print(f"x0 {_fmt(x0)}  paths {rep.n_paths}  violations {rep.violations}")
    return 0 if rep.ok else 3


def _cmd_robust(ns, built: BuiltScenario) -> int:
    if built.family is None:
        _emit_error(ScenarioError("robust needs an ambiguity driver"))
        return 1
    lattice, fam, p = built.lattice, built.family, built.payoff
    result = robust_seller_price(lattice, fam, p, audit=False)
    certs = robust_certificate(lattice, fam, p, result,
                               tol=float(built.options["tolerance"]))
    _write_csv(os.path.join(ns.out, "alphas.csv"),
               ["index", "alpha", "price"],
               (f"{i},{_fmt(a)},{_fmt(v)}\n" for i, (a, v) in
                enumerate(zip(fam.u_grid, result.per_alpha))))
    alpha_txt = [_fmt(a) for a in fam.u_grid]
    _write_csv(os.path.join(ns.out, "worst_alpha.csv"),
               ["step", "j", "default_status", "alpha_index", "alpha"],
               _node_rows(lattice, [result.worst_alpha],
                          lambda v: f"{v},{alpha_txt[v]}"))
    cert_rows = [{
        "alpha": float(a),
        "violations": int(r.violations),
        "min_slack_xi": r.worst_xi_slack,
        "stop_slack": r.worst_stop_slack,
        "ok": bool(r.ok),
    } for a, r in zip(fam.u_grid, certs)]
    all_ok = all(row["ok"] for row in cert_rows)
    report = {
        "command": "robust",
        "v0_via_G": float(result.v0_via_G),
        "v0_via_grid": float(result.v0_via_grid),
        "frozen_value": float(result.frozen_value),
        "argmax_ties": int(result.ties),
        "per_alpha": [float(v) for v in result.per_alpha],
        "certificates": cert_rows,
        "ok": all_ok,
    }
    _write_json(os.path.join(ns.out, "report.json"), report)
    print(f"robust price {_fmt(result.v0_via_G)}  "
          f"grid max {_fmt(result.v0_via_grid)}  certificates "
          f"{'ok' if all_ok else 'VIOLATED'}")
    return 0 if all_ok else 3


def _audit_payload(rep) -> dict:
    return {
        "declared_constant": float(rep.declared_constant),
        "max_ratio": float(rep.max_ratio),
        "gamma_min": None if rep.gamma_min is None else float(rep.gamma_min),
        "royer_ok": bool(rep.royer_ok),
        "k_independent_after_default": bool(rep.k_independent_after_default),
        "ok": bool(rep.ok),
    }


def _node_min(lattice, f, g=None) -> float:
    """Smallest value of f, or of f - g, over all nodes, in node order."""
    return min(float(np.min(f.layer(k, dflt) if g is None
                            else f.layer(k, dflt) - g.layer(k, dflt)))
               for k in range(lattice.n_steps + 1) for dflt in (False, True)
               if f.layer(k, dflt).size)


def _cmd_verify(ns, built: BuiltScenario) -> int:
    lattice, d, p = built.lattice, built.driver, built.payoff
    tol = float(built.options["tolerance"])
    audits = [_audit_payload(r) for r in built.audits]

    sol = solve_drbsde(lattice, d, p)
    scale = 1.0 + max(abs(float(sol.xi.root)), abs(float(sol.zeta.root)),
                      abs(float(sol.y0)))
    checks = []

    def check(name, ok, detail):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    # stability bound under a seeded generator shift
    rng = np.random.default_rng(ns.seed)
    amp = float(rng.uniform(0.1, 0.5))
    freq = float(rng.uniform(0.5, 3.0))
    off = float(rng.uniform(-0.2, 0.2))
    lam_max = float(np.max(lattice.lam)) if lattice.lam.size else 0.0
    c = max(d.lambda_constant, math.sqrt(lam_max))
    d1 = dataclasses.replace(d, lambda_constant=c)
    d2 = d1.shifted(lambda ctx: amp * math.cos(freq * ctx.t) + off)
    sol1 = solve_drbsde(lattice, d1, p)
    sol2 = solve_drbsde(lattice, d2, p)
    ap = apriori_check(sol1, sol2, d1, d2, EstimateParams.for_constant(c))
    apriori = {
        "applies": bool(ap.applies),
        "max_violation": float(ap.max_violation),
        "nodewise_ok": bool(ap.nodewise_ok),
        "norm_y_sq": float(ap.norm_y_sq),
        "norm_f_sq": float(ap.norm_f_sq),
        "norm_y_ok": bool(ap.norm_y_ok),
        "ok": bool(ap.ok),
        "shift": {"amplitude": amp, "frequency": freq, "offset": off},
    }

    # comparison properties around the base solve
    up = solve_drbsde(lattice, d1.shifted(lambda ctx: 0.1), p)
    worst = _node_min(lattice, up.y, sol1.y)
    check("driver_monotonicity", worst >= -tol * scale, worst)

    bump = 0.05
    pb = type(p)(xi=lambda t, s, dflt: p.xi(t, s, dflt) + bump,
                 zeta=lambda t, s, dflt: p.zeta(t, s, dflt) + bump)
    upb = solve_drbsde(lattice, d, pb)
    worst_b = _node_min(lattice, upb.y, sol.y)
    check("barrier_monotonicity", worst_b >= -tol * scale, worst_b)

    check("root_between_barriers",
          sol.xi.root <= sol.y0 <= sol.zeta.root,
          [float(sol.xi.root), float(sol.y0), float(sol.zeta.root)])

    xi_min = _node_min(lattice, sol.xi)
    if d.zero_at_zero and xi_min >= 0.0:
        y_min = _node_min(lattice, sol.y)
        check("price_nonnegative", y_min >= -tol * scale, y_min)
    else:
        check("price_nonnegative_skipped", True,
              "needs g(0,0,0) = 0 and nonnegative payoffs")

    # reflecting increments act only on contact and never together
    sing, on_xi, on_zeta = 0.0, True, True
    for k in range(lattice.n_steps + 1):
        for dflt in (False, True):
            da = sol.da.layer(k, dflt)
            dap = sol.dap.layer(k, dflt)
            y = sol.y.layer(k, dflt)
            sing = max(sing, float(np.max(np.abs(da * dap), initial=0.0)))
            on_xi = on_xi and bool(np.all(y[da > 0] == sol.xi.layer(k, dflt)[da > 0]))
            on_zeta = on_zeta and bool(
                np.all(y[dap > 0] == sol.zeta.layer(k, dflt)[dap > 0]))
    check("mutual_singularity", sing == 0.0, sing)
    check("push_only_on_contact", on_xi and on_zeta, [on_xi, on_zeta])

    audits_ok = all(a["ok"] for a in audits)
    checks_ok = all(cc["ok"] for cc in checks)
    overall = audits_ok and bool(ap.ok) and checks_ok
    report = {
        "command": "verify",
        "audits": audits,
        "apriori": apriori,
        "checks": checks,
        "seed": int(ns.seed),
        "ok": overall,
    }
    _write_json(os.path.join(ns.out, "report.json"), report)
    print(f"audits {'ok' if audits_ok else 'FAILED'}  "
          f"stability {'ok' if ap.ok else 'FAILED'}  "
          f"properties {'ok' if checks_ok else 'FAILED'}")
    return 0 if overall else 3


def _cmd_oracle(ns, built: BuiltScenario) -> int:
    lattice, d, p = built.lattice, built.driver, built.payoff
    max_steps = (int(ns.max_oracle_steps) if ns.max_oracle_steps is not None
                 else int(built.options["max_oracle_steps"]))
    sol = solve_drbsde(lattice, d, p)
    dyn = dynkin_bruteforce(lattice, d, p, max_steps=max_steps)
    gap_saddle = abs(dyn.sup_inf - dyn.inf_sup)
    gap_value = abs(dyn.inf_sup - sol.y0)
    ok = gap_saddle < ORACLE_TOL and gap_value < ORACLE_TOL
    report = {
        "command": "oracle",
        "y0": float(sol.y0),
        "sup_inf": float(dyn.sup_inf),
        "inf_sup": float(dyn.inf_sup),
        "gap_saddle": float(gap_saddle),
        "gap_value": float(gap_value),
        "n_rules": int(dyn.n_rules),
        "n_pairs": int(dyn.n_pairs),
        "tolerance": ORACLE_TOL,
        "ok": ok,
    }
    _write_json(os.path.join(ns.out, "report.json"), report)
    print(f"saddle gap {_fmt(gap_saddle)}  value gap {_fmt(gap_value)}  "
          f"{'ok' if ok else 'VIOLATED'}")
    return 0 if ok else 3


_COMMANDS = {
    "price": _cmd_price,
    "hedge": _cmd_hedge,
    "robust": _cmd_robust,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def _arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gamehedge",
                                 description="Game-option pricing on a "
                                             "defaultable lattice")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--scenario", required=True)
        sp.add_argument("--out", default=".")
        sp.add_argument("--seed", type=int, default=0)
        if name == "hedge":
            sp.add_argument("--epsilon", type=float, default=None)
            sp.add_argument("--x0-override", dest="x0_override", type=float,
                            default=None)
        if name == "oracle":
            sp.add_argument("--max-oracle-steps", dest="max_oracle_steps",
                            type=int, default=None)
    return ap


def main(argv=None) -> int:
    ns = _arg_parser().parse_args(argv)
    try:
        sc = Scenario.from_file(ns.scenario)
        built = sc.build()
        os.makedirs(ns.out, exist_ok=True)
    except _PARSE_ERRORS as e:
        _emit_error(e)
        return 1
    except _SOLVER_ERRORS as e:
        _emit_error(e)
        return 2
    try:
        return _COMMANDS[ns.command](ns, built)
    except _PARSE_ERRORS as e:
        _emit_error(e)
        return 1
    except _SOLVER_ERRORS as e:
        _emit_error(e)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
