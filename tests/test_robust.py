import adapted_oracle
import numpy as np
import pytest

from gamehedge import (
    AmbiguityFamily,
    AuditFailure,
    LatticeParams,
    MarketParams,
    NuOutOfRange,
    PayoffSpec,
    TooLarge,
    audit_family,
    buyer_superhedge,
    build_lattice,
    comparison_region_ok,
    default_ambiguity_family,
    dynkin_bruteforce,
    extract_strategy,
    make_builtin_driver,
    robust_certificate,
    robust_seller_price,
    simulate_wealth,
    solve_drbsde,
    stopping_time,
)
from instances import random_instance
from interchange_oracle import interchange_check


def make_market(r=0.01, mu1=0.04, sigma1=0.3, mu2=0.1, sigma2=0.2,
                lambda_bar=0.25, s1_0=1.0, s2_0=1.0):
    return MarketParams(r=r, mu1=mu1, sigma1=sigma1, mu2=mu2, sigma2=sigma2,
                        lambda_bar=lambda_bar, s1_0=s1_0, s2_0=s2_0)


def band_spec(strike=0.95, gap=0.05):
    def xi(t, s1, defaulted):
        return np.maximum(s1 - strike, 0.0)

    def zeta(t, s1, defaulted):
        return np.maximum(s1 - strike, 0.0) + gap

    return PayoffSpec(xi=xi, zeta=zeta)


def tilt_family(lattice, mp, grid):
    base = make_builtin_driver("perfect", mp)
    return default_ambiguity_family(base, lambda t, a: a, grid, lattice)


def test_singleton_grid_collapses():
    mp = make_market()
    lattice = build_lattice(LatticeParams(horizon=0.75, n_steps=3), mp)
    fam = tilt_family(lattice, mp, [0.2])
    p = band_spec()
    res = robust_seller_price(lattice, fam, p)
    assert res.v0_via_G == res.per_alpha[0]
    assert res.v0_via_grid == res.per_alpha[0]
    assert res.frozen_value == res.v0_via_G
    assert res.ties == 0 or res.v0_via_G == res.frozen_value


def test_alpha_free_family_is_flat():
    mp = make_market()
    lattice = build_lattice(LatticeParams(horizon=0.75, n_steps=3), mp)
    base = make_builtin_driver("perfect", mp)
    fam = AmbiguityFamily(u_grid=(0.0, 1.0, 2.0),
                          fn=lambda ctx, y, z, k, a: base(ctx, y, z, k) + 0.0 * a,
                          lambda_constant=base.lambda_constant)
    p = band_spec()
    res = robust_seller_price(lattice, fam, p)
    assert np.all(res.per_alpha == res.per_alpha[0])
    assert res.v0_via_G == res.per_alpha[0]
    single = solve_drbsde(lattice, base, p)
    assert res.v0_via_G == single.y0


def test_duality_and_dominance_two_alpha():
    mp = make_market()
    lattice = build_lattice(LatticeParams(horizon=0.5, n_steps=2), mp)
    fam = tilt_family(lattice, mp, [-0.3, 0.4])
    p = band_spec()
    res = robust_seller_price(lattice, fam, p)
    assert np.all(res.v0_via_G >= res.per_alpha - 1e-12)
    assert res.v0_via_G >= res.v0_via_grid - 1e-12
    assert abs(res.v0_via_G - res.frozen_value) < 1e-10


def test_duality_randomized():
    rng = np.random.default_rng(7)
    for trial in range(12):
        n = int(rng.integers(2, 4))
        lam = float(rng.uniform(0.1, 0.35))
        mp = make_market(r=float(rng.uniform(-0.01, 0.04)),
                         mu1=0.02 + float(rng.uniform(-0.05, 0.08)),
                         sigma1=float(rng.uniform(0.2, 0.45)),
                         lambda_bar=lam,
                         s1_0=float(rng.uniform(0.7, 1.4)))
        lattice = build_lattice(LatticeParams(horizon=0.75, n_steps=n), mp)
        n_alpha = int(rng.integers(2, 5))
        grid = sorted(float(a) for a in rng.uniform(-0.5, 0.6, size=n_alpha))
        fam = tilt_family(lattice, mp, grid)
        p = band_spec(strike=float(rng.uniform(0.8, 1.1)),
                      gap=float(rng.uniform(0.03, 0.3)))
        res = robust_seller_price(lattice, fam, p)
        assert np.all(res.v0_via_G >= res.per_alpha - 1e-12)
        assert abs(res.v0_via_G - res.frozen_value) < 1e-10


def test_worst_alpha_record_shapes():
    mp = make_market()
    lattice = build_lattice(LatticeParams(horizon=0.75, n_steps=3), mp)
    fam = tilt_family(lattice, mp, [-0.2, 0.0, 0.3])
    res = robust_seller_price(lattice, fam, band_spec())
    for k in range(lattice.n_steps + 1):
        w = res.worst_alpha.alive[k]
        assert w.dtype == np.int64 and w.min() >= 0 and w.max() < 3
        assert res.worst_alpha.defaulted[k].shape == (lattice.defaulted_size(k),)


def test_intensity_family_envelope_closed_form():
    mp = make_market()
    lattice = build_lattice(LatticeParams(horizon=0.75, n_steps=3), mp)
    base = make_builtin_driver("perfect", mp)
    fam = default_ambiguity_family(base, lambda t, a: a, [-0.2, 0.3], lattice)
    g = fam.sup_driver()
    ctx = lattice.step_context(1, False)
    rng = np.random.default_rng(3)
    y = rng.normal(size=ctx.s1.shape[0])
    z = rng.normal(size=y.shape)
    k = rng.normal(size=y.shape)
    fv = base(ctx, y, z, k)
    expected = np.maximum(ctx.lam * -0.2 * k + fv, ctx.lam * 0.3 * k + fv)
    assert np.array_equal(g(ctx, y, z, k), expected)


def test_nu_zero_reduces_to_base():
    mp = make_market()
    lattice = build_lattice(LatticeParams(horizon=0.75, n_steps=3), mp)
    base = make_builtin_driver("perfect", mp)
    fam = default_ambiguity_family(base, lambda t, a: 0.0 * a, [0.0, 1.0], lattice)
    p = band_spec()
    res = robust_seller_price(lattice, fam, p)
    single = solve_drbsde(lattice, base, p)
    assert res.v0_via_G == single.y0


def test_nu_out_of_range():
    mp = make_market()
    lattice = build_lattice(LatticeParams(horizon=0.75, n_steps=3), mp)
    base = make_builtin_driver("perfect", mp)
    with pytest.raises(NuOutOfRange):
        default_ambiguity_family(base, lambda t, a: a, [-1.5, 0.2], lattice)


def test_robust_certificate_under_every_model():
    mp = make_market(r=0.02, mu1=0.06, sigma1=0.35, lambda_bar=0.3)
    lattice = build_lattice(LatticeParams(horizon=1.0, n_steps=5), mp)
    fam = tilt_family(lattice, mp, [-0.25, 0.0, 0.35])
    p = band_spec(strike=0.95, gap=0.04)
    res = robust_seller_price(lattice, fam, p)
    rep = robust_certificate(lattice, fam, p, res)
    assert rep.violations == 0
    assert rep.worst_ref_slack >= -1e-12
    rule = stopping_time(res.solution, p, "sigma_eps", eps=0.05)
    rep = simulate_wealth(res.v0_via_G, extract_strategy(res.solution, lattice.mp),
                          fam.sup_driver(), lattice, rule, reference=res.solution.y)
    assert rep.violations == 0


def adapted_instances(n, n_alpha, seed):
    """Audited (lattice, family, payoff, robust result) inside the comparison region."""
    rng = np.random.default_rng(seed)
    while True:
        inst = random_instance(rng, n_lo=n, n_hi=n)
        grid = sorted(float(a) for a in rng.uniform(-0.5, 0.6, size=n_alpha))
        fam = default_ambiguity_family(inst.driver, lambda t, a: a, grid, inst.lattice)
        if not comparison_region_ok(inst.lattice, fam.lambda_constant):
            continue
        try:
            res = robust_seller_price(inst.lattice, fam, inst.payoff)
        except AuditFailure:
            continue  # a tilt can push a member past jump monotonicity
        yield inst.lattice, fam, inst.payoff, res


def slacks(rep):
    return rep.worst_xi_slack, rep.worst_stop_slack, rep.worst_ref_slack


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("n_alpha", [2, 3])
def test_envelope_sweep_equals_every_adapted_control(n, n_alpha):
    # one envelope sweep against enumerating every path and control sequence
    instances = adapted_instances(n, n_alpha, seed=100 * n + n_alpha)
    for _ in range(2):
        lattice, fam, p, res = next(instances)
        sol = res.solution
        strat = extract_strategy(sol, lattice.mp)
        star = stopping_time(sol, p, "sigma_star")
        assert slacks(robust_certificate(lattice, fam, p, res)) == \
            adapted_oracle.worst_slacks(res.v0_via_G, strat, fam, lattice, star, sol.y)
        for rule in (star, stopping_time(sol, p, "sigma_eps", eps=0.05)):
            for deficit in (0.0, 1e-9, 0.01):
                x0 = res.v0_via_G - deficit
                rep = simulate_wealth(x0, strat, fam.sup_driver(), lattice, rule,
                                      reference=sol.y)
                assert slacks(rep) == adapted_oracle.worst_slacks(x0, strat, fam, lattice,
                                                                  rule, sol.y)


def test_envelope_wealth_is_below_every_member():
    for n in (2, 3, 4):
        lattice, fam, p, res = next(adapted_instances(n, 3, seed=7 + n))
        env = robust_certificate(lattice, fam, p, res)
        strat = extract_strategy(res.solution, lattice.mp)
        rule = stopping_time(res.solution, p, "sigma_star")
        for d in fam.members():
            mem = simulate_wealth(res.v0_via_G, strat, d, lattice, rule)
            for k in range(n + 1):
                for dflt in (False, True):
                    e = env.min_wealth.layer(k, dflt)
                    reached = e < np.inf
                    assert np.all(mem.min_wealth.layer(k, dflt)[reached] >= e[reached])


def test_interchange_singleton_and_degenerate():
    mp = make_market()
    lattice = build_lattice(LatticeParams(horizon=0.5, n_steps=2), mp)
    fam = tilt_family(lattice, mp, [0.15])
    p = band_spec()
    rep = interchange_check(lattice, fam, p)
    assert rep.ok
    dyn = dynkin_bruteforce(lattice, fam.member(0), p)
    assert abs(rep.sup_inf_over_alpha - dyn.sup_inf) < 1e-10

    def xi(t, s1, defaulted):
        return 0.4 * s1 + 0.1

    degenerate = PayoffSpec(xi=xi, zeta=xi)
    rep = interchange_check(lattice, fam, degenerate)
    assert rep.ok


def test_interchange_randomized():
    rng = np.random.default_rng(11)
    for trial in range(8):
        n = int(rng.integers(2, 4))
        mp = make_market(r=float(rng.uniform(0.0, 0.03)),
                         mu1=float(rng.uniform(-0.02, 0.08)),
                         sigma1=float(rng.uniform(0.2, 0.4)),
                         lambda_bar=float(rng.uniform(0.1, 0.3)))
        lattice = build_lattice(LatticeParams(horizon=0.6, n_steps=n), mp)
        fam = tilt_family(lattice, mp, sorted(rng.uniform(-0.4, 0.5, size=2)))
        p = band_spec(strike=float(rng.uniform(0.85, 1.05)),
                      gap=float(rng.uniform(0.03, 0.2)))
        rep = interchange_check(lattice, fam, p)
        assert rep.gap <= 1e-10
        assert abs(rep.sup_inf_over_alpha - rep.v0_via_G) <= 1e-10


def test_interchange_too_large():
    mp = make_market()
    lattice = build_lattice(LatticeParams(horizon=1.0, n_steps=4), mp)
    fam = tilt_family(lattice, mp, [0.1, 0.2])
    with pytest.raises(TooLarge):
        interchange_check(lattice, fam, band_spec())


def test_robust_buyer():
    mp = make_market()
    lattice = build_lattice(LatticeParams(horizon=0.75, n_steps=3), mp)
    p = band_spec()

    # the robust buyer's price is the buyer's price under the envelope driver
    single = tilt_family(lattice, mp, [0.2])
    b = buyer_superhedge(lattice, single.sup_driver(), p).price
    direct = buyer_superhedge(lattice, single.member(0), p)
    assert b == direct.price

    fam = tilt_family(lattice, mp, [-0.3, 0.1, 0.4])
    rb = buyer_superhedge(lattice, fam.sup_driver(), p).price
    for d in fam.members():
        assert rb <= buyer_superhedge(lattice, d, p).price + 1e-12
    # wiring: buyer is the mirrored seller, sign flipped
    mirrored = robust_seller_price(lattice, fam, p.reflected(lattice))
    assert rb == -mirrored.v0_via_G
    seller = robust_seller_price(lattice, fam, p)
    assert rb <= seller.v0_via_G + 1e-12


def test_robust_buyer_audits_the_family():
    mp = make_market()
    lattice = build_lattice(LatticeParams(horizon=0.75, n_steps=3), mp)
    base = make_builtin_driver("perfect", mp)
    # the family declares a constant its own linear y term exceeds
    fam = AmbiguityFamily(u_grid=(0.0, 0.5),
                          fn=lambda ctx, y, z, k, a: 1.0 * y + base(ctx, y, z, k),
                          lambda_constant=base.lambda_constant)
    with pytest.raises(AuditFailure):
        for report in audit_family(fam, lattice):
            report.require()
    assert np.isfinite(buyer_superhedge(lattice, fam.sup_driver(), band_spec()).price)


def test_batched_member_solves_match_loop():
    mp = make_market()
    for n_steps, grid in ((3, [-0.2, 0.0, 0.2, 0.4]), (40, [-0.3, -0.1, 0.1, 0.3, 0.5])):
        lattice = build_lattice(LatticeParams(horizon=0.75, n_steps=n_steps), mp)
        fam = tilt_family(lattice, mp, grid)
        p = band_spec()
        batched = robust_seller_price(lattice, fam, p).per_alpha
        looped = np.array([solve_drbsde(lattice, d, p).y0 for d in fam.members()])
        assert batched.tobytes() == looped.tobytes()
