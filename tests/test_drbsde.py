import numpy as np
import pytest

from gamehedge import (
    BarrierViolation,
    LatticeParams,
    MarketParams,
    Node,
    PayoffSpec,
    TooLarge,
    UnknownNode,
    build_lattice,
    comparison_region_ok,
    dynkin_bruteforce,
    enumerate_stopping_rules,
    make_builtin_driver,
    solve_bsde,
    solve_drbsde,
    stopped_pair_values,
)


def make_market(r=0.0, mu1=0.0, sigma1=0.3, mu2=0.1, sigma2=0.2,
                lambda_bar=0.0, s1_0=1.0, s2_0=1.0):
    return MarketParams(r=r, mu1=mu1, sigma1=sigma1, mu2=mu2, sigma2=sigma2,
                        lambda_bar=lambda_bar, s1_0=s1_0, s2_0=s2_0)


def const_band(lattice, lo, hi, terminal_fn):
    T = lattice.lp.horizon
    cut = T - 0.5 * lattice.dt

    def xi(t, s1, defaulted):
        if t > cut:
            return terminal_fn(s1)
        return lo + 0.0 * s1

    def zeta(t, s1, defaulted):
        if t > cut:
            return terminal_fn(s1)
        return hi + 0.0 * s1

    return PayoffSpec(xi=xi, zeta=zeta)


def test_one_step_hand_game():
    lattice = build_lattice(LatticeParams(horizon=1.0, n_steps=1), make_market())
    d = make_builtin_driver("perfect", make_market())
    p = const_band(lattice, 1.0, 3.0, lambda s1: 2.0 + 0.0 * s1)
    sol = solve_drbsde(lattice, d, p)
    assert sol.y0 == 2.0
    assert sol.da.alive[0][0] == 0.0 and sol.dap.alive[0][0] == 0.0

    rules = enumerate_stopping_rules(lattice)
    assert len(rules) == 2
    # canonical order: stop-at-root first
    assert rules[0].alive[0][0] and not rules[1].alive[0][0]
    matrix = stopped_pair_values(lattice, d, p, rules, rules)
    assert np.array_equal(matrix, np.array([[1.0, 1.0], [3.0, 2.0]]))

    res = dynkin_bruteforce(lattice, d, p)
    assert res.sup_inf == 2.0 and res.inf_sup == 2.0
    assert res.n_rules == 2 and res.n_pairs == 4
    # saddle: exercise waits, cancellation waits
    assert not res.tau_hat.alive[0][0] and not res.sigma_hat.alive[0][0]


def test_rule_counts():
    mp0 = make_market(lambda_bar=0.0)
    mp1 = make_market(lambda_bar=0.1)
    lat = build_lattice(LatticeParams(horizon=1.0, n_steps=2), mp1)
    assert len(enumerate_stopping_rules(lat)) == 9
    lat = build_lattice(LatticeParams(horizon=1.0, n_steps=3), mp0)
    assert len(enumerate_stopping_rules(lat)) == 18
    lat = build_lattice(LatticeParams(horizon=1.0, n_steps=3), mp1)
    assert len(enumerate_stopping_rules(lat)) == 118


def test_never_binding_matches_unreflected():
    mp = make_market(r=0.02, mu1=0.05, sigma1=0.3, lambda_bar=0.2, mu2=0.12)
    lattice = build_lattice(LatticeParams(horizon=1.0, n_steps=4), mp)
    d = make_builtin_driver("perfect", mp)
    T = lattice.lp.horizon
    cut = T - 0.5 * lattice.dt

    def payoff(t, s1, defaulted):
        return np.maximum(s1 - 1.0, 0.0)

    def xi(t, s1, defaulted):
        if t > cut:
            return payoff(t, s1, defaulted)
        return -1e6 + 0.0 * s1

    p = PayoffSpec(xi=xi, zeta=lambda t, s1, defaulted: 1e6 + 0.0 * s1)
    ref = solve_drbsde(lattice, d, p)
    plain = solve_bsde(lattice, d, payoff)
    for k in range(lattice.n_steps + 1):
        assert np.array_equal(ref.y.alive[k], plain.y.alive[k])
        assert np.array_equal(ref.y.defaulted[k], plain.y.defaulted[k])
        assert np.array_equal(ref.z.alive[k], plain.z.alive[k])
        assert np.array_equal(ref.k.alive[k], plain.k.alive[k])
        assert not ref.da.alive[k].any() and not ref.dap.alive[k].any()
        assert not ref.da.defaulted[k].any() and not ref.dap.defaulted[k].any()


def test_barrier_violation_rejected():
    lattice = build_lattice(LatticeParams(horizon=1.0, n_steps=2), make_market())
    p = const_band(lattice, 2.0, 1.0, lambda s1: 0.0 * s1)
    with pytest.raises(BarrierViolation):
        p.layers(lattice)


def test_skorokhod_and_mutual_singularity_exact():
    mp = make_market(r=0.03, mu1=0.09, sigma1=0.35, lambda_bar=0.3, mu2=0.1)
    lattice = build_lattice(LatticeParams(horizon=1.0, n_steps=6), mp)
    d = make_builtin_driver("perfect", mp)

    def xi(t, s1, defaulted):
        return np.maximum(s1 - 0.95, 0.0)

    def zeta(t, s1, defaulted):
        return np.maximum(s1 - 0.95, 0.0) + 0.04

    sol = solve_drbsde(lattice, d, PayoffSpec(xi=xi, zeta=zeta))
    bound = 0
    for k in range(lattice.n_steps + 1):
        for defaulted in (False, True):
            y = sol.y.layer(k, defaulted)
            if y.size == 0:
                continue
            da = sol.da.layer(k, defaulted)
            dap = sol.dap.layer(k, defaulted)
            lo = sol.xi.layer(k, defaulted)
            hi = sol.zeta.layer(k, defaulted)
            assert np.all(da * dap == 0.0)
            assert np.array_equal(y[da > 0], lo[da > 0])
            assert np.array_equal(y[dap > 0], hi[dap > 0])
            assert np.all(lo <= y) and np.all(y <= hi)
            bound += int((da > 0).sum() + (dap > 0).sum())
    assert bound > 0  # both constraints actually engage somewhere

    # recursion holds at the continuation value, to solver tolerance
    for k in range(lattice.n_steps):
        m_a, z_a, k_a, m_d, z_d = lattice.layer_regression(
            k, sol.y.alive[k + 1], sol.y.defaulted[k + 1])
        c = sol.continuation.alive[k]
        ctx = lattice.step_context(k, False)
        resid = c - m_a - d(ctx, c, z_a, k_a) * lattice.dt
        assert np.max(np.abs(resid)) < 1e-12 * (1.0 + np.max(np.abs(c)))


def test_dp_equals_bruteforce_randomized():
    rng = np.random.default_rng(20260816)
    checked = 0
    for trial in range(40):
        n = int(rng.integers(2, 4))
        lam = float(rng.choice([0.0, 0.15, 0.35]))
        r = float(rng.uniform(-0.02, 0.05))
        sigma1 = float(rng.uniform(0.15, 0.5))
        th1 = float(rng.uniform(-0.5, 0.5))
        th2 = float(rng.uniform(-0.6, 0.6))
        sigma2 = float(rng.uniform(0.1, 0.4))
        mp = make_market(r=r, mu1=r + th1 * sigma1, sigma1=sigma1,
                         mu2=sigma2 * th1 + r - th2 * lam, sigma2=sigma2,
                         lambda_bar=lam, s1_0=float(rng.uniform(0.5, 2.0)))
        lattice = build_lattice(LatticeParams(horizon=0.75, n_steps=n), mp)
        kind = ["perfect", "borrow_lend", "tax"][trial % 3]
        kw = {}
        if kind == "borrow_lend":
            kw["borrow_rate"] = r + 0.02
        if kind == "tax":
            kw["tax_rate"] = 0.05
        d = make_builtin_driver(kind, mp, **kw)
        if not comparison_region_ok(lattice, d.lambda_constant):
            continue
        a = float(rng.uniform(-1.0, 1.0))
        b = float(rng.uniform(-0.5, 0.5))
        gap = float(rng.uniform(0.1, 1.0))

        def xi(t, s1, defaulted, a=a, b=b):
            return a * s1 + b

        def zeta(t, s1, defaulted, a=a, b=b, gap=gap):
            return a * s1 + b + gap

        p = PayoffSpec(xi=xi, zeta=zeta)
        sol = solve_drbsde(lattice, d, p)
        res = dynkin_bruteforce(lattice, d, p)
        assert abs(res.sup_inf - res.inf_sup) < 1e-10
        assert abs(res.sup_inf - sol.y0) < 1e-10
        checked += 1
    assert checked >= 25


def test_monotone_in_barriers_and_driver():
    mp = make_market(r=0.02, mu1=0.06, sigma1=0.3, lambda_bar=0.25, mu2=0.1)
    lattice = build_lattice(LatticeParams(horizon=1.0, n_steps=5), mp)
    d = make_builtin_driver("perfect", mp)
    assert comparison_region_ok(lattice, d.lambda_constant)

    def make_spec(bump_lo, bump_hi):
        def xi(t, s1, defaulted):
            return np.maximum(s1 - 1.0, 0.0) + bump_lo

        def zeta(t, s1, defaulted):
            return np.maximum(s1 - 1.0, 0.0) + 0.5 + bump_hi

        return PayoffSpec(xi=xi, zeta=zeta)

    base = solve_drbsde(lattice, d, make_spec(0.0, 0.0))
    hi_lo = solve_drbsde(lattice, d, make_spec(0.02, 0.02))
    hi_up = solve_drbsde(lattice, d, make_spec(0.0, 0.02))
    shifted = solve_drbsde(lattice, d.shifted(lambda ctx: 0.05), make_spec(0.0, 0.0))
    for k in range(lattice.n_steps + 1):
        for defaulted in (False, True):
            y0 = base.y.layer(k, defaulted)
            assert np.all(hi_lo.y.layer(k, defaulted) >= y0 - 1e-12)
            assert np.all(hi_up.y.layer(k, defaulted) >= y0 - 1e-12)
            assert np.all(shifted.y.layer(k, defaulted) >= y0 - 1e-12)


def test_equal_barriers_degenerate():
    mp = make_market(lambda_bar=0.2, mu2=0.14)
    lattice = build_lattice(LatticeParams(horizon=0.5, n_steps=2), mp)
    d = make_builtin_driver("perfect", mp)

    def xi(t, s1, defaulted):
        return 0.3 * s1 + 0.1

    p = PayoffSpec(xi=xi, zeta=xi)
    sol = solve_drbsde(lattice, d, p)
    for k in range(lattice.n_steps + 1):
        assert np.array_equal(sol.y.alive[k], sol.xi.alive[k])
    res = dynkin_bruteforce(lattice, d, p)
    assert abs(res.sup_inf - sol.y0) < 1e-10
    assert abs(res.inf_sup - sol.y0) < 1e-10


def test_price_at_node_and_unknown_nodes():
    mp = make_market(lambda_bar=0.2, mu2=0.14)
    lattice = build_lattice(LatticeParams(horizon=1.0, n_steps=3), mp)
    d = make_builtin_driver("perfect", mp)
    p = const_band(lattice, 0.0, 2.0, lambda s1: np.minimum(s1, 2.0))
    sol = solve_drbsde(lattice, d, p)

    assert sol.y.at(Node(0, 0)) == sol.y0
    term = sol.y.at(Node(3, 2))
    assert term == sol.y.alive[3][2]
    assert sol.y.at(Node(2, 1, defaulted=True)) == sol.y.defaulted[2][1]
    # y is derived on read, z is stored: both refuse the same nodes
    for field in (sol.y, sol.z):
        for bad in (Node(4, 0), Node(1, 5), Node(2, -1), Node(0, 0, defaulted=True),
                    Node(-1, 0)):
            with pytest.raises(UnknownNode):
                field.at(bad)
    lam0 = build_lattice(LatticeParams(horizon=1.0, n_steps=3), make_market())
    sol0 = solve_drbsde(lam0, make_builtin_driver("perfect", make_market()), p)
    with pytest.raises(UnknownNode):
        sol0.y.at(Node(1, 0, defaulted=True))


def test_too_large_guards():
    mp = make_market(lambda_bar=0.1)
    p = const_band(build_lattice(LatticeParams(horizon=1.0, n_steps=2), mp),
                   0.0, 1.0, lambda s1: 0.5 + 0.0 * s1)
    d = make_builtin_driver("perfect", mp)
    big = build_lattice(LatticeParams(horizon=1.0, n_steps=5), mp)
    with pytest.raises(TooLarge, match="limited to 4 steps"):
        dynkin_bruteforce(big, d, p)
    # 4 steps pass the step bound, but with default they carry 4209 rules
    lat4 = build_lattice(LatticeParams(horizon=1.0, n_steps=4), mp)
    with pytest.raises(TooLarge, match="more than 500 stopping rules"):
        enumerate_stopping_rules(lat4)
    p4 = const_band(lat4, 0.0, 1.0, lambda s1: 0.5 + 0.0 * s1)
    with pytest.raises(TooLarge, match="more than 500 stopping rules"):
        dynkin_bruteforce(lat4, d, p4)


def test_reflected_spec_is_exact_mirror():
    mp = make_market(r=0.01, mu1=0.04, sigma1=0.3, lambda_bar=0.2, mu2=0.1)
    lattice = build_lattice(LatticeParams(horizon=1.0, n_steps=4), mp)

    def xi(t, s1, defaulted):
        return np.maximum(s1 - 1.0, 0.0)

    def zeta(t, s1, defaulted):
        return np.maximum(s1 - 1.0, 0.0) + 0.3

    p = PayoffSpec(xi=xi, zeta=zeta)
    xi_l, zeta_l = p.layers(lattice)
    q = p.reflected(lattice)
    xi_r, zeta_r = q.layers(lattice)
    for k in range(lattice.n_steps + 1):
        assert np.array_equal(xi_r.alive[k], -zeta_l.alive[k])
        assert np.array_equal(zeta_r.alive[k], -xi_l.alive[k])
        assert np.array_equal(xi_r.defaulted[k], -zeta_l.defaulted[k])
        assert np.array_equal(zeta_r.defaulted[k], -xi_l.defaulted[k])
