import numpy as np
import pytest

from gamehedge import (
    AmbiguityFamily,
    LatticeParams,
    MarketParams,
    NuOutOfRange,
    PayoffSpec,
    TooLarge,
    buyer_superhedge,
    build_lattice,
    default_ambiguity_family,
    dynkin_bruteforce,
    interchange_check,
    make_builtin_driver,
    robust_buyer_price,
    robust_certificate,
    robust_seller_price,
    solve_drbsde,
)


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
    for rep in robust_certificate(lattice, fam, p, res):
        assert rep.violations == 0
        assert rep.worst_ref_slack >= -1e-12
    for rep in robust_certificate(lattice, fam, p, res, eps=0.05):
        assert rep.violations == 0


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

    single = tilt_family(lattice, mp, [0.2])
    b = robust_buyer_price(lattice, single, p)
    direct = buyer_superhedge(lattice, single.member(0), p)
    assert b == direct.price

    fam = tilt_family(lattice, mp, [-0.3, 0.1, 0.4])
    rb = robust_buyer_price(lattice, fam, p)
    for d in fam.members():
        assert rb <= buyer_superhedge(lattice, d, p).price + 1e-12
    # wiring: buyer is the mirrored seller, sign flipped
    mirrored = robust_seller_price(lattice, fam, p.reflected(lattice))
    assert rb == -mirrored.v0_via_G
    seller = robust_seller_price(lattice, fam, p)
    assert rb <= seller.v0_via_G + 1e-12


def test_batched_member_solves_match_loop():
    mp = make_market()
    for n_steps, grid in ((3, [-0.2, 0.0, 0.2, 0.4]), (40, [-0.3, -0.1, 0.1, 0.3, 0.5])):
        lattice = build_lattice(LatticeParams(horizon=0.75, n_steps=n_steps), mp)
        fam = tilt_family(lattice, mp, grid)
        p = band_spec()
        batched = robust_seller_price(lattice, fam, p).per_alpha
        looped = np.array([solve_drbsde(lattice, d, p).y0 for d in fam.members()])
        assert batched.tobytes() == looped.tobytes()
