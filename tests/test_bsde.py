import math

import numpy as np
import pytest

from gamehedge import LatticeParams, MarketParams, Node, build_lattice
from gamehedge.bsde import (
    comparison_region_ok,
    implicit_continuation,
    solve_bsde,
    terminal_layers,
)
from gamehedge.drivers import Driver, make_builtin_driver
from gamehedge.errors import (
    InvalidParams,
    NoContraction,
    PicardDivergence,
    TooLarge,
)
from linear_oracle import DensityNotPositive, linear_price_oracle
from transition_oracle import transitions


def market(**kw):
    base = dict(r=0.02, mu1=0.05, sigma1=0.3, mu2=-0.1, sigma2=0.2,
                lambda_bar=0.4, s1_0=1.0, s2_0=1.0)
    base.update(kw)
    return MarketParams(**base)


def lattice_for(mp, n_steps=4, horizon=1.0):
    return build_lattice(LatticeParams(horizon=horizon, n_steps=n_steps), mp)


def zero_driver():
    return Driver(lambda ctx, y, z, k: 0.0, lambda_constant=0.0, zero_at_zero=True)


def forward_replay_error(lattice, d, sol):
    """Explicit forward stepping along every path; worst |V - Y| at arrival."""
    dt = lattice.dt
    worst = 0.0
    stack = [(Node(0, 0, False), sol.y.root)]
    while stack:
        node, v = stack.pop()
        if node.step == sol.terminal_step:
            continue
        ctx = lattice.step_context(node.step, node.defaulted)
        zv = sol.z.at(node)
        kv = sol.k.at(node)
        g = float(d(ctx, v, zv, kv)) if np.isscalar(d(ctx, v, zv, kv)) else float(np.asarray(d(ctx, v, zv, kv)).ravel()[node.j])
        for tr in transitions(lattice, node):
            v2 = v - g * dt + zv * tr.dw + kv * tr.dm
            worst = max(worst, abs(v2 - sol.y.at(tr.node)))
            stack.append((tr.node, v2))
    return worst


def test_zero_driver_constant_terminal():
    lat = lattice_for(market())
    sol = solve_bsde(lat, zero_driver(), 2.5)
    for k in range(lat.n_steps + 1):
        assert np.allclose(sol.y.alive[k], 2.5, atol=1e-14)
        if lat.defaulted_size(k):
            assert np.allclose(sol.y.defaulted[k], 2.5, atol=1e-14)
    for k in range(lat.n_steps):
        assert np.allclose(sol.z.alive[k], 0.0, atol=1e-14)
        assert np.allclose(sol.k.alive[k], 0.0, atol=1e-14)


def test_pure_discounting():
    r = 0.04
    lat = lattice_for(market(r=r), n_steps=5)
    d = Driver(lambda ctx, y, z, k: -ctx.r * y, lambda_constant=r)
    sol = solve_bsde(lat, d, 1.0)
    assert sol.y0 == pytest.approx((1 + r * lat.dt) ** -5, rel=1e-12)


def test_nonnegativity_with_zero_at_zero_driver():
    mp = market()
    lat = lattice_for(mp)
    d = make_builtin_driver("tax", mp, tax_rate=0.2)
    assert comparison_region_ok(lat, d.lambda_constant)
    rng = np.random.default_rng(17)
    terminal = lambda t, s1, defaulted: np.abs(s1 - 1.0) + (0.5 if defaulted else 0.0)
    sol = solve_bsde(lat, d, terminal)
    for k in range(lat.n_steps + 1):
        assert np.all(sol.y.alive[k] >= -1e-13)
        assert np.all(sol.y.defaulted[k] >= -1e-13)


def test_comparison_in_driver_and_terminal():
    mp = market()
    lat = lattice_for(mp)
    d2 = make_builtin_driver("perfect", mp)
    d1 = d2.shifted(lambda ctx: 0.05)
    assert comparison_region_ok(lat, d1.lambda_constant)
    t2 = lambda t, s1, defaulted: np.maximum(s1 - 0.9, 0.0)
    t1 = lambda t, s1, defaulted: np.maximum(s1 - 0.9, 0.0) + 0.1
    s1 = solve_bsde(lat, d1, t1)
    s2 = solve_bsde(lat, d2, t2)
    for k in range(lat.n_steps + 1):
        assert np.all(s1.y.alive[k] - s2.y.alive[k] >= -1e-12)
        assert np.all(s1.y.defaulted[k] - s2.y.defaulted[k] >= -1e-12)


def test_flow_property():
    mp = market()
    lat = lattice_for(mp, n_steps=6)
    d = make_builtin_driver("perfect", mp)
    terminal = lambda t, s1, defaulted: np.maximum(1.2 - s1, 0.0)
    full = solve_bsde(lat, d, terminal)
    mid = 3
    partial = solve_bsde(lat, d, (full.y.alive[mid], full.y.defaulted[mid]),
                         terminal_step=mid)
    for k in range(mid + 1):
        assert np.array_equal(partial.y.alive[k], full.y.alive[k])
        assert np.array_equal(partial.y.defaulted[k], full.y.defaulted[k])


def test_wealth_consistency():
    mp = market()
    lat = lattice_for(mp, n_steps=5)
    d = make_builtin_driver("perfect", mp)
    terminal = lambda t, s1, defaulted: np.maximum(s1 - 1.0, 0.0) + (0.2 if defaulted else 0.0)
    sol = solve_bsde(lat, d, terminal)
    assert forward_replay_error(lat, d, sol) < 1e-12


def test_oracle_plain_expectation():
    # theta1 = theta2 = 0, r = 0: the deflator collapses to the path measure
    mp = market(r=0.0, mu1=0.0, mu2=0.0)
    lat = lattice_for(mp, n_steps=3)
    terminal = lambda t, s1, defaulted: s1 + (1.0 if defaulted else 0.0)
    term_a, term_d = terminal_layers(lat, terminal)

    probs_a = {0: 1.0}
    probs_d = {}
    for step in range(lat.n_steps):
        q = float(lat.q[step])
        na, nd = {}, {}
        for j, p in probs_a.items():
            na[j + 1] = na.get(j + 1, 0.0) + p * 0.5 * (1 - q)
            na[j] = na.get(j, 0.0) + p * 0.5 * (1 - q)
            nd[j] = nd.get(j, 0.0) + p * q
        for j, p in probs_d.items():
            nd[j + 1] = nd.get(j + 1, 0.0) + p * 0.5
            nd[j] = nd.get(j, 0.0) + p * 0.5
        probs_a, probs_d = na, nd
    expect = sum(p * term_a[j] for j, p in probs_a.items())
    expect += sum(p * term_d[j] for j, p in probs_d.items())

    assert linear_price_oracle(lat, mp, terminal) == pytest.approx(expect, rel=1e-13)


def test_oracle_discounting():
    mp = market(r=0.03, mu1=0.03, mu2=0.03)
    lat = lattice_for(mp, n_steps=4)
    got = linear_price_oracle(lat, mp, 1.0)
    assert got == pytest.approx((1 + 0.03 * lat.dt) ** -4, rel=1e-12)


def test_oracle_matches_perfect_driver():
    rng = np.random.default_rng(23)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        horizon = float(rng.uniform(0.5, 1.0))
        r = float(rng.uniform(0.0, 0.05))
        sigma1 = float(rng.uniform(0.2, 0.5))
        sigma2 = float(rng.uniform(0.1, 0.4))
        mu1 = float(rng.uniform(-0.1, 0.1))
        lam = float(rng.uniform(0.1, 0.4))
        th1 = (mu1 - r) / sigma1
        th2 = float(rng.uniform(-0.8, 0.8))
        mu2 = sigma2 * th1 + r - th2 * lam
        mp = market(r=r, mu1=mu1, sigma1=sigma1, mu2=mu2, sigma2=sigma2, lambda_bar=lam)
        lat = lattice_for(mp, n_steps=n, horizon=horizon)
        a, b = float(rng.uniform(-1, 2)), float(rng.uniform(-0.5, 0.5))
        terminal = lambda t, s1, defaulted, a=a, b=b: np.maximum(s1 - a, 0.0) + b * (1.0 if defaulted else 0.0)
        d = make_builtin_driver("perfect", mp)
        lhs = solve_bsde(lat, d, terminal).y0
        rhs = linear_price_oracle(lat, mp, terminal)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_buyer_equals_seller_for_linear_driver():
    mp = market()
    lat = lattice_for(mp)
    d = make_builtin_driver("perfect", mp)
    terminal = lambda t, s1, defaulted: np.maximum(s1 - 1.0, 0.0)
    seller = solve_bsde(lat, d, terminal).y0
    # the buyer's side by reflection: the negative solve of the negated payoff
    a, dv = terminal_layers(lat, terminal)
    buyer = -solve_bsde(lat, d, (-a, -dv)).y0
    assert buyer == seller


def test_buyer_below_seller_for_convex_driver():
    mp = market()
    lat = lattice_for(mp)
    d = make_builtin_driver("borrow_lend", mp, borrow_rate=0.06)
    terminal = lambda t, s1, defaulted: np.maximum(s1 - 1.0, 0.0)
    seller = solve_bsde(lat, d, terminal).y0
    a, dv = terminal_layers(lat, terminal)
    buyer = -solve_bsde(lat, d, (-a, -dv)).y0
    assert buyer <= seller + 1e-14


def test_buyer_zero_terminal():
    mp = market()
    lat = lattice_for(mp)
    d = make_builtin_driver("tax", mp, tax_rate=0.3)
    a, dv = terminal_layers(lat, 0.0)
    assert -solve_bsde(lat, d, (-a, -dv)).y0 == 0.0


def test_no_contraction():
    lat = lattice_for(market())
    d = Driver(lambda ctx, y, z, k: 0.0, lambda_constant=5.0)
    with pytest.raises(NoContraction):
        solve_bsde(lat, d, 1.0)


def test_picard_divergence_on_lying_constant():
    lat = lattice_for(market())
    d = Driver(lambda ctx, y, z, k: 8.0 * y, lambda_constant=0.1)
    with pytest.raises(PicardDivergence):
        solve_bsde(lat, d, 1.0)


def test_density_positivity_guard():
    mp = market(r=0.0, mu1=0.9, sigma1=0.1)
    lat = lattice_for(mp, n_steps=4)
    with pytest.raises(DensityNotPositive):
        linear_price_oracle(lat, mp, 1.0)


def test_oracle_step_guard():
    mp = market()
    lat = lattice_for(mp, n_steps=13, horizon=1.0)
    with pytest.raises(TooLarge):
        linear_price_oracle(lat, mp, 1.0)


def test_terminal_shape_check():
    lat = lattice_for(market())
    with pytest.raises(InvalidParams):
        terminal_layers(lat, (np.zeros(2), np.zeros(1)))


def test_implicit_continuation_scalar_fixed_point():
    lat = lattice_for(market())
    ctx = lat.step_context(0, False)
    d = Driver(lambda ctx, y, z, k: -0.5 * y, lambda_constant=0.5)
    c, iters = implicit_continuation(ctx, d, np.array([1.0]), 0.0, 0.0, lat.dt)
    assert c[0] == pytest.approx(1.0 / (1 + 0.5 * lat.dt), rel=1e-12)
    assert iters >= 1


def test_comparison_region():
    lat = lattice_for(market())
    assert comparison_region_ok(lat, 0.5)
    assert not comparison_region_ok(lat, 5.0)
