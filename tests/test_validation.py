import dataclasses
import math

import numpy as np
import pytest

from gamehedge import (
    EstimateParams,
    LatticeParams,
    InvalidParams,
    MarketParams,
    MismatchedInstances,
    PayoffSpec,
    PicardDivergence,
    apriori_check,
    build_lattice,
    make_builtin_driver,
    simulate_wealth,
    solve_drbsde,
)
from comparison_oracle import PreconditionViolated, ode_compare
from rule_oracle import rule_from_flags
from gamehedge.hedging import Strategy
from gamehedge.lattice import NodeField


def make_market(r=0.03, mu1=0.09, sigma1=0.35, mu2=0.1, sigma2=0.2,
                lambda_bar=0.3, s1_0=1.0, s2_0=1.0):
    return MarketParams(r=r, mu1=mu1, sigma1=sigma1, mu2=mu2, sigma2=sigma2,
                        lambda_bar=lambda_bar, s1_0=s1_0, s2_0=s2_0)


def band_spec(strike=0.95, gap=0.04):
    def xi(t, s1, defaulted):
        return np.maximum(s1 - strike, 0.0)

    def zeta(t, s1, defaulted):
        return np.maximum(s1 - strike, 0.0) + gap

    return PayoffSpec(xi=xi, zeta=zeta)


def declared_instance(n_steps=8, horizon=0.5, lambda_bar=0.3, gap=0.04):
    """Driver whose declared constant also dominates sqrt(max intensity)."""
    mp = make_market(lambda_bar=lambda_bar)
    lattice = build_lattice(LatticeParams(horizon=horizon, n_steps=n_steps), mp)
    d = make_builtin_driver("perfect", mp)
    c = max(d.lambda_constant, math.sqrt(float(np.max(lattice.lam, initial=0.0))))
    d = dataclasses.replace(d, lambda_constant=c)
    return lattice, d, band_spec(gap=gap)


# --- EstimateParams admissibility ---


def test_estimate_params_boundary_passes():
    for c in (0.2, 0.5477225575051661, 0.7, 1.3, 2.0):
        ep = EstimateParams.for_constant(c)
        assert ep.eta == pytest.approx(1.0 / c**2)
        assert ep.beta == pytest.approx(3.0 * c * c + 2.0 * c)
        # constructing the same values directly must also pass
        EstimateParams(eta=ep.eta, beta=ep.beta, lambda_constant=c)


def test_estimate_params_rejections():
    with pytest.raises(InvalidParams):
        EstimateParams(eta=0.0, beta=1.0, lambda_constant=0.5)
    with pytest.raises(InvalidParams):
        EstimateParams(eta=1.0, beta=-1.0, lambda_constant=0.5)
    with pytest.raises(InvalidParams):
        # eta above 1/C^2
        EstimateParams(eta=5.0, beta=100.0, lambda_constant=1.0)
    with pytest.raises(InvalidParams):
        # beta below 3/eta + 2C
        EstimateParams(eta=1.0, beta=2.9, lambda_constant=1.0)
    with pytest.raises(InvalidParams):
        EstimateParams.for_constant(0.0)


# --- apriori_check ---


def test_identical_instances_zero_gap():
    lattice, d, p = declared_instance()
    sol = solve_drbsde(lattice, d, p)
    ep = EstimateParams.for_constant(d.lambda_constant)
    rep = apriori_check(sol, sol, d, d, ep)
    assert rep.applies and rep.skipped_reason is None
    assert rep.max_violation <= 0.0
    assert rep.norm_y_sq == 0.0 and rep.norm_f_sq == 0.0
    assert rep.nodewise_ok and rep.norm_y_ok and rep.ok
    # boundary eta leaves the integrand bound out of scope
    assert rep.zk_ok is None and rep.zk_norm_sq is None


def test_additive_shift_boundary_bound_holds():
    rng = np.random.default_rng(20260816)
    checked = 0
    for trial in range(10):
        n = int(rng.integers(8, 13))
        lam = float(rng.uniform(0.15, 0.4))
        gap = float(rng.uniform(0.02, 0.3))
        lattice, d1, p = declared_instance(n_steps=n, lambda_bar=lam, gap=gap)
        a = float(rng.uniform(-0.6, 0.6))
        b = float(rng.uniform(0.5, 4.0))
        c0 = float(rng.uniform(-0.3, 0.3))
        d2 = d1.shifted(lambda ctx, a=a, b=b, c0=c0: a * math.cos(b * ctx.t) + c0)
        sol1 = solve_drbsde(lattice, d1, p)
        sol2 = solve_drbsde(lattice, d2, p)
        ep = EstimateParams.for_constant(d1.lambda_constant)
        rep = apriori_check(sol1, sol2, d1, d2, ep)
        assert rep.applies
        assert rep.nodewise_ok, f"trial {trial}: violation {rep.max_violation}"
        assert rep.norm_y_ok
        assert rep.ok
        assert rep.norm_f_sq > 0.0
        checked += 1
    assert checked == 10


def test_zk_bound_with_strict_eta():
    lattice, d1, p = declared_instance(n_steps=10)
    d2 = d1.shifted(lambda ctx: 0.25 - 0.1 * ctx.t)
    sol1 = solve_drbsde(lattice, d1, p)
    sol2 = solve_drbsde(lattice, d2, p)
    c = d1.lambda_constant
    eta = 0.3 / c**2
    ep = EstimateParams(eta=eta, beta=3.0 / eta + 2.0 * c, lambda_constant=c)
    rep = apriori_check(sol1, sol2, d1, d2, ep)
    assert rep.applies and rep.zk_ok is True
    assert rep.zk_norm_sq <= rep.zk_bound + rep.tol
    assert rep.nodewise_ok and rep.norm_y_ok and rep.ok


def test_barrier_perturbation_is_skipped():
    lattice, d, _ = declared_instance()
    sol1 = solve_drbsde(lattice, d, band_spec(gap=0.04))
    sol2 = solve_drbsde(lattice, d, band_spec(gap=0.08))
    ep = EstimateParams.for_constant(d.lambda_constant)
    rep = apriori_check(sol1, sol2, d, d, ep)
    assert not rep.applies
    assert "barriers" in rep.skipped_reason
    assert rep.ok  # nothing to violate; the bound does not cover this case


def test_mismatched_lattices_raise():
    lat1, d, p = declared_instance(n_steps=8)
    lat2, _, _ = declared_instance(n_steps=9)
    sol1 = solve_drbsde(lat1, d, p)
    sol2 = solve_drbsde(lat2, d, p)
    ep = EstimateParams.for_constant(d.lambda_constant)
    with pytest.raises(MismatchedInstances):
        apriori_check(sol1, sol2, d, d, ep)


def test_estimate_constant_must_cover_driver():
    lattice, d, p = declared_instance()
    sol = solve_drbsde(lattice, d, p)
    weak = EstimateParams.for_constant(d.lambda_constant / 4.0)
    with pytest.raises(InvalidParams):
        apriori_check(sol, sol, d, d, weak)


# --- ode_compare ---


def test_ode_equal_inputs_equal_paths():
    b = lambda t, y: 0.4 * math.sin(y) - 0.1 * t
    f = np.cumsum(np.concatenate(([0.0], np.linspace(-0.1, 0.1, 12))))
    rep = ode_compare(b, b, 1.3, 1.3, f, f, dt=0.05, lip=0.4)
    assert np.array_equal(rep.y1, rep.y2)
    assert rep.min_diff == 0.0 and rep.ok


def test_ode_zero_drift_constant_increment():
    n, delta = 9, 0.07
    f2 = np.zeros(n + 1)
    f1 = delta * np.arange(n + 1, dtype=float)
    b = lambda t, y: 0.0
    rep = ode_compare(b, b, 0.5, 0.2, f1, f2, dt=0.1, lip=0.0)
    gap = rep.y1 - rep.y2
    expect = 0.3 + delta * np.arange(n + 1)
    assert np.max(np.abs(gap - expect)) < 1e-14
    assert rep.ok and rep.min_diff >= 0.3


def test_ode_randomized_dominance():
    rng = np.random.default_rng(7)
    for mode in ("implicit", "explicit"):
        for _ in range(12):
            lip = float(rng.uniform(0.1, 2.0))
            dt = float(rng.uniform(0.01, 0.9 / max(lip, 1.0)))
            n = int(rng.integers(4, 30))
            a = float(rng.uniform(-lip, lip))
            c = float(rng.uniform(-0.5, 0.5))
            off = float(rng.uniform(0.0, 0.4))
            b2 = lambda t, y, a=a, c=c, lip=lip: (lip - abs(a)) * math.tanh(y) + a * y + c
            b1 = lambda t, y, b2=b2, off=off: b2(t, y) + off
            x2 = float(rng.uniform(-1.0, 1.0))
            x1 = x2 + float(rng.uniform(0.0, 0.5))
            common = rng.normal(0.0, 0.2, n + 1).cumsum()
            f2 = common
            f1 = common + rng.uniform(0.0, 0.1, n + 1).cumsum()
            rep = ode_compare(b1, b2, x1, x2, f1, f2, dt=dt, lip=lip, mode=mode)
            assert rep.ok, f"min_diff {rep.min_diff} in mode {mode}"


def test_ode_strict_gap_stays_strict():
    b = lambda t, y: -0.8 * y
    f = np.zeros(25)
    rep = ode_compare(b, b, 1.0, 0.999, f, f, dt=0.05, lip=0.8)
    assert rep.min_diff > 0.0


def test_ode_implicit_step_refuses_unconverged_iterate():
    # y -> prev + 0.99 y + df contracts by 0.99 per iteration: after the
    # 200-iteration cap the error is still 0.99^200 ~ 0.13 of the start
    b = lambda t, y: 0.99 * y / 0.1
    f = np.cumsum(np.full(4, 0.1))
    with pytest.raises(PicardDivergence):
        ode_compare(b, b, 1.0, 1.0, f, f, dt=0.1, lip=9.9)


def test_ode_precondition_errors():
    b = lambda t, y: 0.0
    f = np.zeros(5)
    with pytest.raises(PreconditionViolated):
        ode_compare(b, b, 0.0, 1.0, f, f, dt=0.1, lip=0.0)
    bad = np.array([0.0, 1.0, 0.5, 2.0, 3.0])  # gap increment dips at step 1
    with pytest.raises(PreconditionViolated) as ei:
        ode_compare(b, b, 1.0, 0.0, bad, np.zeros(5), dt=0.1, lip=0.0)
    assert ei.value.step == 1
    lo = lambda t, y: -1.0
    with pytest.raises(PreconditionViolated) as ei:
        ode_compare(lo, b, 1.0, 0.0, f, f, dt=0.1, lip=0.0)
    assert ei.value.step == 0
    with pytest.raises(PreconditionViolated):
        ode_compare(b, b, 1.0, 0.0, f, f, dt=0.5, lip=2.0)
    with pytest.raises(InvalidParams):
        ode_compare(b, b, 1.0, 0.0, f, f, dt=0.1, lip=0.0, mode="midpoint")


def test_ode_explicit_matches_wealth_path():
    """Fed one path's step data, the comparison recursion reproduces the
    simulated wealth row exactly."""
    mp = make_market()
    lattice = build_lattice(LatticeParams(horizon=0.5, n_steps=6), mp)
    d = make_builtin_driver("perfect", mp)
    p = band_spec()
    sol = solve_drbsde(lattice, d, p)
    from gamehedge import extract_strategy, integrands_of, stopping_time

    strat = extract_strategy(sol, mp)
    flags = NodeField.zeros(lattice)
    rule = rule_from_flags(lattice, flags, p)  # stop only at the horizon
    rep = simulate_wealth(sol.y0, strat, d, lattice, rule)
    n = lattice.n_steps
    # the all-up path never defaults
    zs, ks, dws, dms, s1s = [], [], [], [], []
    for k in range(n):
        z, kk = integrands_of(strat, mp, k, False)
        zs.append(float(z[k]))
        ks.append(float(kk[k]))
        q = lattice.q[k]
        dws.append(lattice.sqrt_dt)
        dms.append(-q if q > 0 else 0.0)
        s1s.append(float(lattice.s1_alive[k][k]))

    def b1(t, y):
        k = min(int(round(t / lattice.dt)), n - 1)
        ctx = lattice.step_context(k, False)
        ctx = dataclasses.replace(ctx, s1=np.array([s1s[k]]), s2=np.array([s1s[k]]))
        return -float(d(ctx, np.array([y]), np.array([zs[k]]), np.array([ks[k]]))[0])

    df = np.concatenate(([0.0], [zs[k] * dws[k] + ks[k] * dms[k] for k in range(n)]))
    f = np.cumsum(df)
    out = ode_compare(b1, b1, sol.y0, sol.y0, f, f, dt=lattice.dt,
                      lip=d.lambda_constant, mode="explicit")
    # alive node (k, k) is reached by the all-up path alone, so its minimum
    # wealth is that path's wealth; the association of the two noise adds
    # differs, so agreement is to the ulp
    all_up = np.array([rep.min_wealth.alive[k][k] for k in range(n + 1)])
    assert np.max(np.abs(out.y1 - all_up)) <= 1e-15
