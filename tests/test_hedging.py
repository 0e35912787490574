import dataclasses
import math

import certificate_oracle
import numpy as np
import pytest

from gamehedge import (
    Driver,
    InvalidParams,
    LatticeParams,
    MarketParams,
    NoContraction,
    NodeField,
    PayoffSpec,
    buyer_superhedge,
    build_lattice,
    enumerate_stopping_rules,
    extract_strategy,
    integrands_of,
    make_builtin_driver,
    simulate_wealth,
    solve_drbsde,
    stopped_pair_values,
    stopping_time,
)
from rule_oracle import rule_from_flags, sigma_bar_rule


def make_market(r=0.0, mu1=0.0, sigma1=0.3, mu2=0.1, sigma2=0.2,
                lambda_bar=0.0, s1_0=1.0, s2_0=1.0):
    return MarketParams(r=r, mu1=mu1, sigma1=sigma1, mu2=mu2, sigma2=sigma2,
                        lambda_bar=lambda_bar, s1_0=s1_0, s2_0=s2_0)


def binding_instance(n_steps=6):
    """Both barriers engage somewhere; default channel active."""
    mp = make_market(r=0.03, mu1=0.09, sigma1=0.35, lambda_bar=0.3, mu2=0.1)
    lattice = build_lattice(LatticeParams(horizon=1.0, n_steps=n_steps), mp)
    d = make_builtin_driver("perfect", mp)

    def xi(t, s1, defaulted):
        return np.maximum(s1 - 0.95, 0.0)

    def zeta(t, s1, defaulted):
        return np.maximum(s1 - 0.95, 0.0) + 0.04

    p = PayoffSpec(xi=xi, zeta=zeta)
    return lattice, d, p


def test_strategy_closed_forms():
    mp = make_market(sigma1=1.0, sigma2=1.0, lambda_bar=0.2, mu2=0.14)
    lattice = build_lattice(LatticeParams(horizon=1.0, n_steps=1), mp)
    d = make_builtin_driver("perfect", mp)
    p = PayoffSpec(xi=lambda t, s1, defaulted: 0.0 * s1,
                   zeta=lambda t, s1, defaulted: 1.0 + 0.0 * s1)
    sol = solve_drbsde(lattice, d, p)
    sol.z.alive[0][0] = 0.0
    sol.k.alive[0][0] = -1.0
    strat = extract_strategy(sol, mp)
    assert strat.phi2.alive[0][0] == 1.0
    assert strat.phi1.alive[0][0] == -1.0

    # zero integrands give the flat portfolio
    sol.z.alive[0][0] = 0.0
    sol.k.alive[0][0] = 0.0
    flat = extract_strategy(sol, mp)
    assert flat.phi1.alive[0][0] == 0.0 and flat.phi2.alive[0][0] == 0.0


def test_strategy_round_trip():
    lattice, d, p = binding_instance()
    sol = solve_drbsde(lattice, d, p)
    strat = extract_strategy(sol, lattice.mp)
    for k in range(lattice.n_steps):
        for defaulted in (False, True):
            z, kk = integrands_of(strat, lattice.mp, k, defaulted)
            z0 = sol.z.layer(k, defaulted)
            k0 = sol.k.layer(k, defaulted)
            assert np.array_equal(kk, k0)
            assert np.all(np.abs(z - z0) <= 1e-14 * (1.0 + np.abs(z0)))
            # defaulted book holds nothing in the defaultable asset
            if defaulted:
                assert not strat.phi2.layer(k, defaulted).any()


def test_sigma_star_certificate():
    lattice, d, p = binding_instance()
    sol = solve_drbsde(lattice, d, p)
    strat = extract_strategy(sol, lattice.mp)
    rule = stopping_time(sol, p, "sigma_star")
    rep = simulate_wealth(sol.y0, strat, d, lattice, rule, reference=sol.y)
    assert rep.violations == 0
    assert rep.worst_xi_slack >= -1e-12
    assert rep.worst_stop_slack >= -1e-12
    assert rep.worst_ref_slack >= -1e-12
    n = lattice.n_steps
    assert rep.n_paths == 2 ** n + n * 2 ** (n - 1)
    # every enumerated path stops by the horizon
    paths = certificate_oracle.simulate_wealth(sol.y0, strat, d, lattice, rule)
    assert paths.n_paths == rep.n_paths and np.all(paths.stop_step >= 0)


def test_sigma_eps_certificates():
    lattice, d, p = binding_instance()
    sol = solve_drbsde(lattice, d, p)
    strat = extract_strategy(sol, lattice.mp)
    for eps in (0.1, 0.01):
        rule = stopping_time(sol, p, "sigma_eps", eps=eps)
        rep = simulate_wealth(sol.y0, strat, d, lattice, rule)
        assert rep.violations == 0
        assert rep.worst_stop_slack >= -1e-12  # slack already includes +eps


def test_sigma_bar_certificate():
    lattice, d, p = binding_instance()
    sol = solve_drbsde(lattice, d, p)
    strat = extract_strategy(sol, lattice.mp)
    rule = sigma_bar_rule(sol, p)
    rep = simulate_wealth(sol.y0, strat, d, lattice, rule, reference=sol.y)
    assert rep.violations == 0
    assert rep.worst_ref_slack >= -1e-12


def test_deficit_breaks_the_hedge():
    mp = make_market(r=0.02, mu1=0.05, sigma1=0.3, lambda_bar=0.25, mu2=0.11)
    lattice = build_lattice(LatticeParams(horizon=1.0, n_steps=5), mp)
    d = make_builtin_driver("perfect", mp)
    T, dt = 1.0, lattice.dt

    def xi(t, s1, defaulted):
        if t > T - 0.5 * dt:
            return np.maximum(s1 - 1.0, 0.0)
        return -1e6 + 0.0 * s1

    p = PayoffSpec(xi=xi, zeta=lambda t, s1, defaulted: 1e6 + 0.0 * s1)
    sol = solve_drbsde(lattice, d, p)
    strat = extract_strategy(sol, lattice.mp)
    rule = stopping_time(sol, p, "sigma_star")
    good = simulate_wealth(sol.y0, strat, d, lattice, rule)
    assert good.violations == 0
    short = simulate_wealth(sol.y0 - 1e-3, strat, d, lattice, rule)
    assert short.violations >= 1


def test_nan_wealth_is_not_ok():
    lattice, d, p = binding_instance()
    sol = solve_drbsde(lattice, d, p)
    strat = extract_strategy(sol, lattice.mp)
    for x0 in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParams, match="x0 must be finite"):
            simulate_wealth(x0, strat, d, lattice, stopping_time(sol, p, "sigma_star"))
    # a NaN that enters through the strategy: the root sits on zeta, so only
    # a rule that holds to expiry lets it reach the successors
    phi1 = strat.phi1.copy()
    phi1.alive[0][0] = np.nan
    poisoned = dataclasses.replace(strat, phi1=phi1)
    hold = rule_from_flags(lattice, NodeField.zeros(lattice), p)
    rep = simulate_wealth(sol.y0, poisoned, d, lattice, hold, reference=sol.y)
    assert rep.violations >= 1 and not rep.ok
    assert math.isnan(rep.worst_xi_slack)


def test_price_between_barriers():
    lattice, d, p = binding_instance()
    sol = solve_drbsde(lattice, d, p)
    xi, zeta = p.layers(lattice)
    assert xi.root <= sol.y0 <= zeta.root


def test_stopping_kinds_and_validation():
    mp = make_market(lambda_bar=0.2, mu2=0.14)
    lattice = build_lattice(LatticeParams(horizon=1.0, n_steps=3), mp)
    d = make_builtin_driver("perfect", mp)

    # upper barrier clamps at the root: cancel immediately
    tight = PayoffSpec(xi=lambda t, s1, defaulted: 0.0 * s1,
                       zeta=lambda t, s1, defaulted: 0.0 * s1)
    sol = solve_drbsde(lattice, d, tight)
    rule = stopping_time(sol, tight, "sigma_star")
    assert rule.flags.alive[0][0]
    rule = stopping_time(sol, tight, "tau_star")
    assert rule.flags.alive[0][0]

    # threshold wider than the band: sigma_eps fires at once
    band = PayoffSpec(xi=lambda t, s1, defaulted: 0.0 * s1,
                      zeta=lambda t, s1, defaulted: 0.5 + 0.0 * s1)
    sol = solve_drbsde(lattice, d, band)
    rule = stopping_time(sol, band, "sigma_eps", eps=2.0)
    assert rule.flags.alive[0][0]

    # never-binding upper barrier: equality only at expiry
    loose = PayoffSpec(xi=lambda t, s1, defaulted: 0.0 * s1,
                       zeta=lambda t, s1, defaulted: 1e6 + 0.0 * s1)
    sol = solve_drbsde(lattice, d, loose)
    rule = stopping_time(sol, loose, "sigma_star")
    for k in range(lattice.n_steps):
        assert not rule.flags.alive[k].any()
        assert not rule.flags.defaulted[k].any()
    assert rule.flags.alive[lattice.n_steps].all()

    with pytest.raises(InvalidParams):
        stopping_time(sol, loose, "sigma_eps")
    for eps in (-0.1, 0.0, np.nan, np.inf):
        with pytest.raises(InvalidParams, match="sigma_eps needs a finite eps > 0"):
            stopping_time(sol, loose, "sigma_eps", eps=eps)
    with pytest.raises(InvalidParams):
        stopping_time(sol, loose, "whenever")


def test_saddle_point_bracket():
    mp = make_market(r=0.01, mu1=0.04, sigma1=0.3, lambda_bar=0.3, mu2=0.1)
    lattice = build_lattice(LatticeParams(horizon=0.75, n_steps=3), mp)
    d = make_builtin_driver("perfect", mp)

    def xi(t, s1, defaulted):
        return np.maximum(s1 - 0.97, 0.0)

    def zeta(t, s1, defaulted):
        return np.maximum(s1 - 0.97, 0.0) + 0.03

    p = PayoffSpec(xi=xi, zeta=zeta)
    sol = solve_drbsde(lattice, d, p)
    binds = any(sol.da.alive[k].any() or sol.dap.alive[k].any() or
                sol.da.defaulted[k].any() or sol.dap.defaulted[k].any()
                for k in range(lattice.n_steps))
    assert binds
    tau = stopping_time(sol, p, "tau_star")
    sigma = stopping_time(sol, p, "sigma_star")
    rules = enumerate_stopping_rules(lattice)
    vs_sigma = stopped_pair_values(lattice, d, p, rules, [sigma.flags])
    vs_tau = stopped_pair_values(lattice, d, p, [tau.flags], rules)
    assert float(vs_sigma.max()) <= sol.y0 + 1e-10
    assert float(vs_tau.min()) >= sol.y0 - 1e-10


def test_buyer_linear_equals_seller():
    lattice, d, p = binding_instance()
    sol = solve_drbsde(lattice, d, p)
    buyer = buyer_superhedge(lattice, d, p)
    assert abs(buyer.price - sol.y0) < 1e-12
    xi, _ = p.layers(lattice)
    assert buyer.price >= xi.root


def test_buyer_below_seller_for_convex_cost():
    mp = make_market(r=0.02, mu1=0.05, sigma1=0.3, lambda_bar=0.2, mu2=0.11)
    lattice = build_lattice(LatticeParams(horizon=1.0, n_steps=5), mp)
    d = make_builtin_driver("borrow_lend", mp, borrow_rate=0.06)

    def xi(t, s1, defaulted):
        return np.maximum(s1 - 0.95, 0.0)

    def zeta(t, s1, defaulted):
        return np.maximum(s1 - 0.95, 0.0) + 0.05

    p = PayoffSpec(xi=xi, zeta=zeta)
    seller = solve_drbsde(lattice, d, p)
    buyer = buyer_superhedge(lattice, d, p)
    assert buyer.price <= seller.y0 + 1e-12


def test_buyer_certificate_on_mirrored_problem():
    lattice, d, p = binding_instance(n_steps=5)
    buyer = buyer_superhedge(lattice, d, p)
    q = p.reflected(lattice)
    mirrored = solve_drbsde(lattice, d, q)
    rep = simulate_wealth(-buyer.price, buyer.strategy, d, lattice, buyer.rule,
                          reference=mirrored.y)
    assert rep.violations == 0
    assert rep.worst_ref_slack >= -1e-12


def test_no_contraction_guard():
    lattice, _, p = binding_instance(n_steps=3)
    sol = solve_drbsde(lattice, make_builtin_driver("perfect", lattice.mp), p)
    strat = extract_strategy(sol, lattice.mp)
    rule = stopping_time(sol, p, "sigma_star")
    wild = Driver(fn=lambda ctx, y, z, k: 0.0 * y, lambda_constant=1e6)
    with pytest.raises(NoContraction):
        simulate_wealth(sol.y0, strat, wild, lattice, rule)
