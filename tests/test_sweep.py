"""The backward sweep against the per-layer reference solvers, bit for bit.

A seeded corpus covers the three builtin drivers, zero and positive
intensity, per-step rate and intensity sequences with zero entries,
solves that start below the last layer, every terminal form,
and the envelope and frozen-control drivers of an ambiguity family.
Every field must match the reference (`solver_oracle.py`) byte for byte,
with the same Picard iteration count, and the batched robust member
solves must equal the looped ones.
"""

import numpy as np
import pytest

import solver_oracle as ref
from gamehedge import (
    BarrierViolation,
    Driver,
    LatticeParams,
    MarketParams,
    NodeField,
    PayoffSpec,
    PicardDivergence,
    build_lattice,
    default_ambiguity_family,
    frozen_control_driver,
    implicit_continuation,
    make_builtin_driver,
    robust_seller_price,
    solve_bsde,
    solve_drbsde,
)
from instances import KINDS, draw_driver, draw_payoff

SEEDS = range(24)


def corpus_case(seed):
    """(lattice, driver, payoff) with C * dt < 1, drawn from seed."""
    rng = np.random.default_rng(7000 + seed)
    n = int(rng.integers(2, 22))
    shape = ("zero", "positive", "per_step")[seed % 3]
    if shape == "per_step":
        r = tuple(float(x) for x in rng.uniform(0.0, 0.06, n) * (rng.uniform(size=n) < 0.7))
        lam = tuple(float(x) for x in rng.uniform(0.05, 0.4, n) * (rng.uniform(size=n) < 0.6))
    else:
        r = float(rng.uniform(0.0, 0.06))
        lam = 0.0 if shape == "zero" else float(rng.uniform(0.05, 0.4))
    mp = MarketParams(r=r, mu1=float(rng.uniform(-0.1, 0.2)), sigma1=float(rng.uniform(0.2, 0.5)),
                      mu2=float(rng.uniform(-0.1, 0.2)), sigma2=float(rng.uniform(0.1, 0.4)),
                      lambda_bar=lam, s1_0=float(rng.uniform(0.5, 2.0)), s2_0=1.0)
    lattice = build_lattice(LatticeParams(horizon=float(rng.uniform(0.25, 1.0)), n_steps=n), mp)
    driver, _ = draw_driver(rng, mp, KINDS[seed % len(KINDS)])
    if driver.lambda_constant * lattice.dt >= 1.0:
        driver = Driver(driver.fn, 0.5 / lattice.dt, driver.zero_at_zero, driver.label)
    return rng, mp, lattice, driver, draw_payoff(rng, mp.s1_0)


def assert_same(new, old, names):
    for name in names:
        a, b = getattr(new, name), getattr(old, name)
        assert len(a.alive) == len(b.alive) and len(a.defaulted) == len(b.defaulted), name
        for la, lb in zip(a.alive + a.defaulted, b.alive + b.defaulted):
            assert (la.dtype, la.shape) == (lb.dtype, lb.shape), name
            assert la.tobytes() == lb.tobytes(), name
    assert new.iterations == old.iterations


DRBSDE_FIELDS = ("y", "z", "k", "da", "dap", "continuation", "xi", "zeta")


@pytest.mark.parametrize("seed", SEEDS)
def test_reflected_solve_matches_reference(seed):
    _, _, lattice, d, p = corpus_case(seed)
    assert_same(solve_drbsde(lattice, d, p), ref.solve_drbsde(lattice, d, p), DRBSDE_FIELDS)


@pytest.mark.parametrize("seed", SEEDS)
def test_unreflected_solve_matches_reference(seed):
    rng, _, lattice, d, p = corpus_case(seed)
    n = lattice.n_steps
    for step in sorted({n, int(rng.integers(1, n + 1))}):
        field = NodeField.from_function(lattice, p.xi)
        pair = (field.alive[step] + 0.25, field.defaulted[step] - 0.25)
        for terminal in (field, p.xi, pair, float(rng.uniform(-1.0, 1.0))):
            kw = {} if step == n else {"terminal_step": step}
            assert_same(solve_bsde(lattice, d, terminal, **kw),
                        ref.solve_bsde(lattice, d, terminal, **kw), ("y", "z", "k"))


@pytest.mark.parametrize("seed", SEEDS)
def test_family_solves_match_reference(seed):
    rng, mp, lattice, d, p = corpus_case(seed)
    grid = sorted(float(a) for a in rng.uniform(-0.45, 0.6, int(rng.integers(2, 7))))
    fam = default_ambiguity_family(d, lambda t, a: a * (1.0 + t), grid, lattice)
    if fam.lambda_constant * lattice.dt >= 1.0:
        pytest.skip("family constant leaves the contraction region")
    res = robust_seller_price(lattice, fam, p, audit=False)
    for drv in (fam.sup_driver(), frozen_control_driver(fam, res.worst_alpha)):
        assert_same(solve_drbsde(lattice, drv, p), ref.solve_drbsde(lattice, drv, p),
                    DRBSDE_FIELDS)
    looped = np.array([ref.solve_drbsde(lattice, m, p).y0 for m in fam.members()])
    assert res.per_alpha.tobytes() == looped.tobytes()


def test_non_finite_driver_value_fails_at_once():
    rng, _, lattice, d, p = corpus_case(1)
    calls = []

    def fn(ctx, y, z, k):
        calls.append(ctx.step)
        return d(ctx, y, z, k) + (np.nan if ctx.step == 1 else 0.0)

    with pytest.raises(PicardDivergence, match=r"^non-finite iterate at step 1, iteration 1$"):
        solve_drbsde(lattice, Driver(fn, d.lambda_constant), p)
    assert calls.count(1) == 1

    ctx = lattice.step_context(0, False)
    inf = Driver(lambda ctx, y, z, k: np.where(y > 0.5, np.inf, 0.0), 0.0)
    base = np.array([[0.0, 1.0]])
    with pytest.raises(PicardDivergence, match="non-finite iterate at step 0"):
        implicit_continuation(ctx, inf, base, 0.0, 0.0, lattice.dt, batch=True)


def test_stored_layers_are_read_only_and_checked():
    _, _, lattice, d, p = corpus_case(2)
    xi, zeta = p.layers(lattice)
    with pytest.raises(ValueError):
        xi.alive[0][0] = 1.0
    q = p.reflected(lattice)
    assert q.layers(lattice)[0] is q.layers(lattice)[0]
    with pytest.raises(ValueError):
        q.zeta_layers.alive[0][0] = 1.0
    given = NodeField.from_function(lattice, p.xi), NodeField.from_function(lattice, p.zeta)
    spec = PayoffSpec.from_layers(*given)
    assert spec.layers(lattice)[1].alive[0] is not given[1].alive[0]
    given[1].alive[0][0] = -1.0  # the caller's arrays stay writable and are not shared
    assert spec.layers(lattice)[1].alive[0][0] == zeta.alive[0][0]
    with pytest.raises(BarrierViolation, match="xi > zeta at step 0, index 0"):
        PayoffSpec.from_layers(*given)
    bad = type(p)(xi=p.xi, zeta=lambda t, s1, dflt: np.where(s1 > s1.min(), np.inf, 1e9))
    with pytest.raises(BarrierViolation, match="non-finite barrier at step 1, index 1") as e:
        bad.layers(lattice)
    assert (e.value.node.step, e.value.node.j, e.value.node.defaulted) == (1, 1, False)


def test_batch_columns_converge_on_their_own():
    # 16 models on 92 steps: some columns of a layer converge an iteration
    # before others, so a joint stopping rule would change their last bits
    rng = np.random.default_rng(4)
    n = int(rng.integers(20, 120))
    mp = MarketParams(r=float(rng.uniform(0, .06)), mu1=float(rng.uniform(-.1, .2)),
                      sigma1=float(rng.uniform(.2, .5)), mu2=float(rng.uniform(-.1, .2)),
                      sigma2=float(rng.uniform(.1, .4)), lambda_bar=float(rng.uniform(.05, .4)),
                      s1_0=1.0, s2_0=1.0)
    lattice = build_lattice(LatticeParams(horizon=float(rng.uniform(.25, 1)), n_steps=n), mp)
    d = make_builtin_driver("borrow_lend", mp, borrow_rate=mp.r + 0.03)
    p = draw_payoff(rng, 1.0)
    grid = sorted(float(a) for a in rng.uniform(-0.9, 0.9, 16))
    fam = default_ambiguity_family(d, lambda t, a: a, grid, lattice)
    batched = robust_seller_price(lattice, fam, p, audit=False).per_alpha
    looped = np.array([ref.solve_drbsde(lattice, m, p).y0 for m in fam.members()])
    assert batched.tobytes() == looped.tobytes()
