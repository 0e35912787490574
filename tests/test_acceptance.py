"""Acceptance suite: ten gate criteria, one test and one summary line each.

Each criterion draws its own seeded corpus from instances.py, so every run
checks the same instances.  Tolerances are the stated gates, not looser.
"""

import dataclasses
import time

import numpy as np

from gamehedge import (
    AuditFailure,
    EstimateParams,
    PayoffSpec,
    apriori_check,
    buyer_superhedge,
    comparison_region_ok,
    default_ambiguity_family,
    dynkin_bruteforce,
    extract_strategy,
    make_builtin_driver,
    robust_certificate,
    robust_seller_price,
    simulate_wealth,
    solve_bsde,
    solve_drbsde,
    stopping_time,
)

from instances import (
    draw_payoff,
    perturbation_pair,
    random_instance,
    skorokhod_exact,
)
from interchange_oracle import interchange_check
from linear_oracle import linear_price_oracle


def _nodewise_min_gap(lattice, hi, lo):
    return min(float(np.min(hi.layer(k, dflt) - lo.layer(k, dflt)))
               for k in range(lattice.n_steps + 1)
               for dflt in (False, True)
               if lo.layer(k, dflt).size)


def _tilt_family(rng, inst, n_alpha):
    grid = tuple(sorted(float(a) for a in
                        rng.uniform(-0.5, 0.6, size=n_alpha)))
    return default_ambiguity_family(inst.driver, lambda t, a: a, grid,
                                    inst.lattice)


def test_criterion_01_dynkin_fairness():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    worst_saddle = worst_value = 0.0
    for _ in range(100):
        inst = random_instance(rng, n_lo=2, n_hi=3)
        sol = solve_drbsde(inst.lattice, inst.driver, inst.payoff)
        dyn = dynkin_bruteforce(inst.lattice, inst.driver, inst.payoff)
        worst_saddle = max(worst_saddle, abs(dyn.sup_inf - dyn.inf_sup))
        worst_value = max(worst_value, abs(dyn.inf_sup - sol.y0))
    elapsed = time.monotonic() - start
    assert worst_saddle < 1e-10
    assert worst_value < 1e-10
    assert elapsed < 60.0
    print(f"PASS: criterion 1 dynkin fairness, 100 instances, "
          f"saddle gap {worst_saddle:.3e}, value gap {worst_value:.3e}, "
          f"{elapsed:.1f}s")


def test_criterion_02_linear_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        inst = random_instance(rng, n_lo=2, n_hi=8,
                               kinds=("perfect",))
        terminal = inst.payoff.xi
        y0 = solve_bsde(inst.lattice, inst.driver, terminal).y0
        ref = linear_price_oracle(inst.lattice, inst.mp, terminal)
        worst = max(worst, abs(y0 - ref))
    assert worst < 1e-10
    print(f"PASS: criterion 2 linear oracle, 100 instances, "
          f"max gap {worst:.3e}")


def test_criterion_03_superhedge_certificate():
    rng = np.random.default_rng(103)
    worst_xi = worst_stop = np.inf
    total_paths = 0
    for _ in range(40):
        inst = random_instance(rng, n_lo=4, n_hi=10)
        sol = solve_drbsde(inst.lattice, inst.driver, inst.payoff)
        strat = extract_strategy(sol, inst.lattice.mp)
        rule = stopping_time(sol, inst.payoff, "sigma_star")
        rep = simulate_wealth(sol.y0, strat, inst.driver, inst.lattice, rule,
                              tol=1e-12)
        assert rep.violations == 0
        worst_xi = min(worst_xi, rep.worst_xi_slack)
        worst_stop = min(worst_stop, rep.worst_stop_slack)
        total_paths += rep.n_paths
    assert worst_xi >= -1e-12 and worst_stop >= -1e-12
    print(f"PASS: criterion 3 super-hedge, 40 instances, "
          f"{total_paths} paths, worst slacks {worst_xi:.3e} / {worst_stop:.3e}")


def test_criterion_04_epsilon_superhedge():
    rng = np.random.default_rng(104)
    worst = np.inf
    for _ in range(20):
        inst = random_instance(rng, n_lo=4, n_hi=9)
        sol = solve_drbsde(inst.lattice, inst.driver, inst.payoff)
        strat = extract_strategy(sol, inst.lattice.mp)
        for eps in (0.1, 0.01):
            rule = stopping_time(sol, inst.payoff, "sigma_eps", eps=eps)
            rep = simulate_wealth(sol.y0, strat, inst.driver, inst.lattice,
                                  rule, tol=1e-12)
            assert rep.violations == 0  # stop slack already carries +eps
            worst = min(worst, rep.worst_stop_slack)
    assert worst >= -1e-12
    print(f"PASS: criterion 4 eps-super-hedge, 20 instances x eps in "
          f"{{0.1, 0.01}}, worst adjusted slack {worst:.3e}")


def test_criterion_05_robust_duality():
    rng = np.random.default_rng(105)
    worst_dom = np.inf
    worst_frozen = 0.0
    done = 0
    while done < 25:
        inst = random_instance(rng, n_lo=2, n_hi=3)
        fam = _tilt_family(rng, inst, int(rng.integers(2, 5)))
        if not comparison_region_ok(inst.lattice, fam.lambda_constant):
            continue
        try:
            res = robust_seller_price(inst.lattice, fam, inst.payoff)
        except AuditFailure:
            continue  # tilt can push a member past jump monotonicity
        worst_dom = min(worst_dom, res.v0_via_G - res.v0_via_grid)
        worst_frozen = max(worst_frozen, abs(res.v0_via_G - res.frozen_value))
        rep = robust_certificate(inst.lattice, fam, inst.payoff, res, tol=1e-12)
        assert rep.violations == 0
        done += 1
    assert worst_dom >= -1e-12
    assert worst_frozen < 1e-10
    print(f"PASS: criterion 5 robust duality, 25 instances, "
          f"min dominance {worst_dom:.3e}, max frozen gap {worst_frozen:.3e}, "
          f"certificate clean under every adapted control")


def test_criterion_06_interchange():
    rng = np.random.default_rng(106)
    worst_gap = worst_match = 0.0
    done = 0
    while done < 50:
        inst = random_instance(rng, n_lo=2, n_hi=3)
        fam = _tilt_family(rng, inst, 2)
        if not comparison_region_ok(inst.lattice, fam.lambda_constant):
            continue
        try:
            rep = interchange_check(inst.lattice, fam, inst.payoff)
        except AuditFailure:
            continue
        worst_gap = max(worst_gap, abs(rep.sup_inf_over_alpha
                                       - rep.inf_sup_over_alpha))
        worst_match = max(worst_match, abs(rep.inf_sup_over_alpha
                                           - rep.v0_via_G))
        done += 1
    assert worst_gap < 1e-10
    assert worst_match < 1e-10
    print(f"PASS: criterion 6 interchange, 50 instances, "
          f"max order gap {worst_gap:.3e}, max match gap {worst_match:.3e}")


def test_criterion_07_buyer_duality():
    rng = np.random.default_rng(107)
    worst_linear = 0.0
    for _ in range(40):
        inst = random_instance(rng, n_lo=2, n_hi=6)
        hedge = buyer_superhedge(inst.lattice, inst.driver, inst.payoff)
        mirrored = solve_drbsde(inst.lattice, inst.driver,
                                inst.payoff.reflected(inst.lattice))
        assert hedge.price == -mirrored.y0  # same reflected computation
        if inst.kind == "perfect":
            seller = solve_drbsde(inst.lattice, inst.driver, inst.payoff).y0
            worst_linear = max(worst_linear, abs(hedge.price - seller))
    assert worst_linear < 1e-12
    print(f"PASS: criterion 7 buyer duality, 40 instances, reflection exact, "
          f"max linear buyer-seller gap {worst_linear:.3e}")


def test_criterion_08_apriori_boundary():
    rng = np.random.default_rng(108)
    worst = -np.inf
    for _ in range(40):
        lattice, d1, d2, payoff = perturbation_pair(rng)
        sol1 = solve_drbsde(lattice, d1, payoff)
        sol2 = solve_drbsde(lattice, d2, payoff)
        ep = EstimateParams.for_constant(d1.lambda_constant)
        rep = apriori_check(sol1, sol2, d1, d2, ep)
        assert rep.applies
        assert rep.nodewise_ok, f"violation {rep.max_violation}"
        assert rep.norm_y_ok
        worst = max(worst, rep.max_violation)
    print(f"PASS: criterion 8 boundary estimate eta=1/C^2 beta=3C^2+2C, "
          f"40 pairs, zero violations, max lhs-rhs {worst:.3e}")


def test_criterion_09_comparison_suite():
    rng = np.random.default_rng(109)
    worst = np.inf
    for _ in range(30):
        inst = random_instance(rng, n_lo=2, n_hi=7, nonnegative=True)
        lattice, d, p = inst.lattice, inst.driver, inst.payoff
        sol = solve_drbsde(lattice, d, p)
        scale = 1.0 + abs(sol.y0)
        # generator monotonicity
        up = solve_drbsde(lattice, d.shifted(lambda ctx: 0.25), p)
        worst = min(worst, _nodewise_min_gap(lattice, up.y, sol.y) / scale)
        # barrier monotonicity
        bump = PayoffSpec(xi=lambda t, s, dd: p.xi(t, s, dd) + 0.3,
                          zeta=lambda t, s, dd: p.zeta(t, s, dd) + 0.3)
        upb = solve_drbsde(lattice, d, bump)
        worst = min(worst, _nodewise_min_gap(lattice, upb.y, sol.y) / scale)
        # nonnegativity: g(0,0,0) = 0 and payoffs >= 0
        assert d.zero_at_zero
        y_min = min(float(np.min(sol.y.layer(k, dflt)))
                    for k in range(lattice.n_steps + 1)
                    for dflt in (False, True) if sol.y.layer(k, dflt).size)
        worst = min(worst, y_min / scale)
        # root between the barriers, exact by construction of the projection
        assert sol.xi.root <= sol.y0 <= sol.zeta.root
    assert worst >= -1e-12
    print(f"PASS: criterion 9 comparison suite, 30 instances, "
          f"worst scaled margin {worst:.3e}")


def test_criterion_10_skorokhod_exact():
    rng = np.random.default_rng(110)
    solves = 0
    for _ in range(60):
        inst = random_instance(rng, n_lo=2, n_hi=8, gap_lo=0.02, gap_hi=0.6)
        sol = solve_drbsde(inst.lattice, inst.driver, inst.payoff)
        assert skorokhod_exact(sol)
        solves += 1
    assert solves == 60
    print(f"PASS: criterion 10 skorokhod structure, {solves} solves, "
          f"complementarity and contact exact")
