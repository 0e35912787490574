import numpy as np
import pytest

from gamehedge import InvalidParams, LatticeParams, MarketParams, build_lattice
from gamehedge.drivers import (
    AmbiguityFamily,
    Driver,
    audit_driver,
    audit_family,
    make_builtin_driver,
)
from gamehedge.errors import AuditFailure, EmptyGrid
from linear_oracle import theta_coefficients


def market(lam=0.4, r=0.02, mu1=0.05, sigma1=0.3, mu2=-0.1, sigma2=0.2):
    return MarketParams(r=r, mu1=mu1, sigma1=sigma1, mu2=mu2, sigma2=sigma2,
                        lambda_bar=lam, s1_0=1.0, s2_0=1.0)


def lattice_for(mp, n_steps=4, horizon=1.0):
    return build_lattice(LatticeParams(horizon=horizon, n_steps=n_steps), mp)


def test_perfect_reduces_to_discounting():
    mp = market(r=0.03, mu1=0.03, mu2=0.03, lam=0.4)
    lat = lattice_for(mp)
    d = make_builtin_driver("perfect", mp)
    ctx = lat.step_context(1, False)
    # theta1 = 0 and the jump coefficient sigma2*theta1 - mu2 + r = 0
    y = np.array([1.5, -0.3])
    got = d(ctx, y, np.array([2.0, -1.0]), np.array([0.5, 0.7]))
    assert got == pytest.approx((-0.03 * y).tolist(), abs=1e-15)


def test_perfect_royer_quotient_is_minus_theta2():
    mp = market()
    lat = lattice_for(mp)
    d = make_builtin_driver("perfect", mp)
    report = audit_driver(d, lat)
    th1, th2 = theta_coefficients(mp, 0.02, 0.4)
    assert report.gamma_min == pytest.approx(-th2, abs=1e-12)
    assert report.royer_ok
    report.require()


def test_perfect_audit_passes_with_computed_constant():
    mp = market()
    lat = lattice_for(mp)
    d = make_builtin_driver("perfect", mp)
    report = audit_driver(d, lat)
    assert report.max_ratio <= d.lambda_constant * (1 + 1e-9) + 1e-12
    assert report.k_independent_after_default


def test_royer_failure_detected():
    # jump slope -2 <= -1 must fail the monotone-difference audit
    mp = market()
    lat = lattice_for(mp)
    bad = Driver(lambda ctx, y, z, k: -2.0 * k * ctx.lam, lambda_constant=2.0)
    report = audit_driver(bad, lat)
    assert report.gamma_min == pytest.approx(-2.0, abs=1e-12)
    assert not report.royer_ok
    with pytest.raises(AuditFailure):
        report.require()


def test_post_default_k_dependence_detected():
    mp = market()
    lat = lattice_for(mp)
    leaky = Driver(lambda ctx, y, z, k: 0.1 * k, lambda_constant=1.0)
    report = audit_driver(leaky, lat)
    assert not report.k_independent_after_default
    with pytest.raises(AuditFailure):
        report.require()


def test_undeclared_constant_detected():
    mp = market(lam=0.0)
    lat = lattice_for(mp)
    d = Driver(lambda ctx, y, z, k: 3.0 * y, lambda_constant=1.0)
    report = audit_driver(d, lat)
    assert report.max_ratio == pytest.approx(3.0, abs=1e-12)
    assert not report.lipschitz_ok


def test_borrow_lend_matches_perfect_at_zero_spread():
    mp = market()
    lat = lattice_for(mp)
    base = make_builtin_driver("perfect", mp)
    spread = make_builtin_driver("borrow_lend", mp, borrow_rate=0.02)
    rng = np.random.default_rng(5)
    for step, defaulted in [(0, False), (2, False), (2, True)]:
        ctx = lat.step_context(step, defaulted)
        y, z, k = rng.normal(size=3)
        assert spread(ctx, y, z, k) == pytest.approx(base(ctx, y, z, k), abs=1e-15)


def test_borrow_lend_adds_nonnegative_cost():
    mp = market()
    lat = lattice_for(mp)
    base = make_builtin_driver("perfect", mp)
    spread = make_builtin_driver("borrow_lend", mp, borrow_rate=0.08)
    ctx = lat.step_context(1, False)
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(50, 3))
    diff = spread(ctx, pts[:, 0], pts[:, 1], pts[:, 2]) - base(ctx, pts[:, 0], pts[:, 1], pts[:, 2])
    assert np.all(diff >= -1e-15)
    assert np.any(diff > 1e-6)


def test_borrow_lend_validation():
    mp = market(r=0.05)
    with pytest.raises(InvalidParams):
        make_builtin_driver("borrow_lend", mp, borrow_rate=0.01)
    with pytest.raises(InvalidParams):
        make_builtin_driver("borrow_lend", mp)
    for rate in (float("nan"), float("inf")):
        with pytest.raises(InvalidParams, match="^borrow_rate must be finite"):
            make_builtin_driver("borrow_lend", mp, borrow_rate=rate)
    with pytest.raises(InvalidParams):
        make_builtin_driver("tax", mp, tax_rate=1.5)
    with pytest.raises(InvalidParams):
        make_builtin_driver("nope", mp)


def test_tax_audit_passes():
    mp = market()
    lat = lattice_for(mp)
    d = make_builtin_driver("tax", mp, tax_rate=0.2)
    audit_driver(d, lat).require()


def test_borrow_lend_audit_passes():
    mp = market()
    lat = lattice_for(mp)
    d = make_builtin_driver("borrow_lend", mp, borrow_rate=0.05)
    audit_driver(d, lat).require()


def test_sup_driver_of_two_lines():
    mp = market()
    lat = lattice_for(mp)
    fam = AmbiguityFamily(
        u_grid=(-0.5, 0.5),
        fn=lambda ctx, y, z, k, a: a * k * ctx.lam,
        lambda_constant=0.5 * np.sqrt(0.4),
    )
    g = fam.sup_driver()
    ctx = lat.step_context(1, False)
    k = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])
    got = g(ctx, 0.0, 0.0, k)
    assert got == pytest.approx((0.5 * np.abs(k) * ctx.lam).tolist(), abs=1e-15)


def test_singleton_family_envelope_is_member():
    mp = market()
    lat = lattice_for(mp)
    fam = AmbiguityFamily(u_grid=(0.3,), fn=lambda ctx, y, z, k, a: a * y - z,
                          lambda_constant=1.0)
    g = fam.sup_driver()
    d = fam.member(0)
    ctx = lat.step_context(0, False)
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(20, 3))
    assert np.array_equal(g(ctx, pts[:, 0], pts[:, 1], pts[:, 2]),
                          d(ctx, pts[:, 0], pts[:, 1], pts[:, 2]))


def test_envelope_dominates_members_and_argmax_breaks_ties_low():
    mp = market()
    lat = lattice_for(mp)
    fam = AmbiguityFamily(
        u_grid=(0.1, 0.1, 0.4),
        fn=lambda ctx, y, z, k, a: a * np.abs(z) - 0.05 * y,
        lambda_constant=0.5,
    )
    g = fam.sup_driver()
    ctx = lat.step_context(2, False)
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(40, 3))
    env = g(ctx, pts[:, 0], pts[:, 1], pts[:, 2])
    for d in fam.members():
        assert np.all(env - d(ctx, pts[:, 0], pts[:, 1], pts[:, 2]) >= -1e-15)
    # alpha 0.1 appears twice; at z = 0 all members tie and index 0 wins
    idx = np.argmax(fam.stacked(ctx, 1.0, 0.0, 0.5), axis=0)
    assert int(idx) == 0


def test_stacked_matches_member_calls():
    mp = market()
    lat = lattice_for(mp)
    fam = AmbiguityFamily(
        u_grid=(0.4, -0.2, 0.1),
        fn=lambda ctx, y, z, k, a: a * k * ctx.lam - 0.03 * y + 0.1 * z,
        lambda_constant=1.0,
    )
    ctx = lat.step_context(2, False)
    rng = np.random.default_rng(4)
    for shape in ((), (7,), (5, 3)):
        y, z, k = (rng.normal(size=shape) for _ in range(3))
        looped = np.stack([np.broadcast_to(d(ctx, y, z, k), np.shape(y))
                           for d in fam.members()])
        assert fam.stacked(ctx, y, z, k).tobytes() == looped.tobytes()
    # a scalar state broadcasts against an array one
    assert fam.stacked(ctx, 0.5, np.zeros(4), 1.0).shape == (3, 4)


def test_envelope_royer_at_least_family_min():
    mp = market()
    lat = lattice_for(mp)
    fam = AmbiguityFamily(
        u_grid=(-0.3, 0.2),
        fn=lambda ctx, y, z, k, a: a * k * ctx.lam - 0.01 * y,
        lambda_constant=1.0,
    )
    reports = audit_family(fam, lat)
    envelope_report = audit_driver(fam.sup_driver(), lat)
    member_min = min(r.gamma_min for r in reports)
    assert envelope_report.gamma_min >= member_min - 1e-12
    for r in reports:
        r.require()


def test_empty_grid_rejected():
    with pytest.raises(EmptyGrid):
        AmbiguityFamily(u_grid=(), fn=lambda ctx, y, z, k, a: 0.0, lambda_constant=0.0)
