import math

import numpy as np
import pytest

from gamehedge import (
    InvalidParams,
    LatticeParams,
    MarketParams,
    Node,
    NodeField,
    UnknownNode,
    build_lattice,
)
from transition_oracle import conditional_expectation, transitions


def small_lattice(lam=0.4, n_steps=4, horizon=1.0, r=0.02):
    lp = LatticeParams(horizon=horizon, n_steps=n_steps)
    mp = MarketParams(
        r=r, mu1=0.05, sigma1=0.3, mu2=-0.1, sigma2=0.2,
        lambda_bar=lam, s1_0=1.0, s2_0=1.0,
    )
    return build_lattice(lp, mp)


def test_branch_probabilities_without_default():
    lat = small_lattice(lam=0.0)
    trans = transitions(lat, Node(0, 0))
    assert [tr.probability for tr in trans] == [0.5, 0.5]
    assert all(tr.dm == 0.0 for tr in trans)
    assert all(not tr.node.defaulted for tr in trans)


def test_branch_probabilities_with_default():
    # q = lambda dt = 0.4 * 0.25 = 0.1
    lat = small_lattice(lam=0.4)
    trans = transitions(lat, Node(1, 0))
    probs = [tr.probability for tr in trans]
    assert probs == pytest.approx([0.45, 0.45, 0.1], abs=0)
    assert trans[2].node.defaulted and trans[2].dn == 1
    assert trans[2].dw == 0.0


def test_increment_moments_vanish():
    lat = small_lattice(lam=0.4)
    for node in [Node(0, 0), Node(2, 1), Node(2, 0, True)]:
        trans = transitions(lat, node)
        p = np.array([tr.probability for tr in trans])
        dw = np.array([tr.dw for tr in trans])
        dm = np.array([tr.dm for tr in trans])
        assert p.sum() == pytest.approx(1.0, abs=1e-15)
        assert abs(p @ dw) < 1e-15
        assert abs(p @ dm) < 1e-15
        assert abs(p @ (dw * dm)) < 1e-15


def test_node_counts():
    lat = small_lattice(lam=0.4, n_steps=5)
    for k in range(6):
        assert lat.alive_size(k) == k + 1
        assert lat.defaulted_size(k) == (k if k >= 1 else 0)
    lat0 = small_lattice(lam=0.0, n_steps=5)
    for k in range(6):
        assert lat0.defaulted_size(k) == 0


def test_regression_constant():
    lat = small_lattice()
    node = Node(1, 1)
    n_succ = len(transitions(lat, node))
    m, z, k = conditional_expectation(lat, node, [3.25] * n_succ)
    assert m == pytest.approx(3.25, abs=1e-14)
    assert z == pytest.approx(0.0, abs=1e-14)
    assert k == pytest.approx(0.0, abs=1e-14)


def test_regression_recovers_dw():
    lat = small_lattice()
    node = Node(1, 0)
    dw = [tr.dw for tr in transitions(lat, node)]
    m, z, k = conditional_expectation(lat, node, dw)
    assert m == pytest.approx(0.0, abs=1e-14)
    assert z == pytest.approx(1.0, abs=1e-14)
    assert k == pytest.approx(0.0, abs=1e-14)


def test_regression_recovers_dm():
    # q = 0.1 here; the jump-basis regression must return exactly (0, 0, 1)
    lat = small_lattice(lam=0.4)
    node = Node(2, 1)
    dm = [tr.dm for tr in transitions(lat, node)]
    m, z, k = conditional_expectation(lat, node, dm)
    assert m == pytest.approx(0.0, abs=1e-14)
    assert z == pytest.approx(0.0, abs=1e-14)
    assert k == pytest.approx(1.0, abs=1e-14)


def test_regression_reconstructs_exactly():
    rng = np.random.default_rng(7)
    lat = small_lattice(lam=0.4)
    for node in [Node(0, 0), Node(2, 2), Node(3, 1), Node(3, 2, True)]:
        trans = transitions(lat, node)
        v = rng.normal(size=len(trans))
        m, z, k = conditional_expectation(lat, node, v)
        for tr, val in zip(trans, v):
            assert m + z * tr.dw + k * tr.dm == pytest.approx(val, abs=1e-13)


def test_layer_regression_matches_nodewise():
    rng = np.random.default_rng(11)
    lat = small_lattice(lam=0.4, n_steps=5)
    k = 3
    next_alive = rng.normal(size=lat.alive_size(k + 1))
    next_def = rng.normal(size=lat.defaulted_size(k + 1))
    m_a, z_a, k_a, m_d, z_d = lat.layer_regression(k, next_alive, next_def)
    for j in range(lat.alive_size(k)):
        trans = transitions(lat, Node(k, j))
        v = [next_def[tr.node.j] if tr.node.defaulted else next_alive[tr.node.j] for tr in trans]
        m, z, kk = conditional_expectation(lat, Node(k, j), v)
        assert m_a[j] == pytest.approx(m, abs=1e-13)
        assert z_a[j] == pytest.approx(z, abs=1e-13)
        assert k_a[j] == pytest.approx(kk, abs=1e-13)
    for j in range(lat.defaulted_size(k)):
        trans = transitions(lat, Node(k, j, True))
        v = [next_def[tr.node.j] for tr in trans]
        m, z, kk = conditional_expectation(lat, Node(k, j, True), v)
        assert m_d[j] == pytest.approx(m, abs=1e-13)
        assert z_d[j] == pytest.approx(z, abs=1e-13)
        assert kk == 0.0


def test_jump_integrand_zero_when_no_intensity():
    lat = small_lattice(lam=0.0)
    rng = np.random.default_rng(3)
    v = rng.normal(size=2)
    _, _, k = conditional_expectation(lat, Node(1, 0), v)
    assert k == 0.0


def test_asset_grids():
    lat = small_lattice(lam=0.4, n_steps=4, horizon=1.0, r=0.02)
    dt, s = 0.25, math.sqrt(0.25)
    mp = lat.mp
    # S0 compounds the short rate
    assert lat.s0[0] == 1.0
    assert lat.s0[3] == pytest.approx(math.exp(0.02 * 3 * dt), rel=1e-14)
    # alive S1 at (k=2, j=2): level +2
    expect = mp.s1_0 * math.exp(mp.sigma1 * 2 * s + (mp.mu1 - mp.sigma1**2 / 2) * 2 * dt)
    assert lat.s1_alive[2][2] == pytest.approx(expect, rel=1e-14)
    # defaulted S1 at (k=2, j=0): level -(k-1) = -1, full two steps of drift
    expect_d = mp.s1_0 * math.exp(-mp.sigma1 * s + (mp.mu1 - mp.sigma1**2 / 2) * 2 * dt)
    assert lat.s1_defaulted[2][0] == pytest.approx(expect_d, rel=1e-14)
    # S2 carries the intensity compensator while alive, is 0 after default
    expect2 = mp.s2_0 * math.exp(
        mp.sigma2 * 2 * s + (mp.mu2 - mp.sigma2**2 / 2) * 2 * dt + 0.4 * 2 * dt
    )
    assert lat.s2_alive[2][2] == pytest.approx(expect2, rel=1e-14)
    assert np.all(lat.s2_defaulted[2] == 0.0)


def test_default_transition_indexing():
    # alive (k, j) defaults to defaulted index j; defaulted (k, i) moves to i+1 / i
    lat = small_lattice(lam=0.4, n_steps=4)
    trans = transitions(lat, Node(2, 1))
    assert trans[2].node == Node(3, 1, True)
    dtrans = transitions(lat, Node(2, 1, True))
    assert dtrans[0].node == Node(3, 2, True)
    assert dtrans[1].node == Node(3, 1, True)
    # levels line up: defaulting freezes the Brownian level
    lvl_alive = 2 * 1 - 2
    lvl_def = 2 * 1 - (3 - 1)
    assert lvl_alive == lvl_def
    assert lat.s1_alive[2][1] * math.exp(
        (lat.mp.mu1 - lat.mp.sigma1**2 / 2) * lat.dt
    ) == pytest.approx(lat.s1_defaulted[3][1], rel=1e-14)


def test_node_field_roundtrip():
    lat = small_lattice(lam=0.4)
    f = NodeField.from_function(
        lat, lambda t, s1, defaulted: s1 + (10.0 if defaulted else 0.0))
    assert f.at(Node(2, 2)) == pytest.approx(lat.s1_alive[2][2])
    assert f.at(Node(2, 0, True)) == pytest.approx(lat.s1_defaulted[2][0] + 10.0)
    with pytest.raises(UnknownNode):
        f.at(Node(2, 5))


def test_validation_errors():
    mp = MarketParams(r=0.0, mu1=0.0, sigma1=0.2, mu2=0.0, sigma2=0.1,
                      lambda_bar=0.1, s1_0=1.0, s2_0=1.0)
    with pytest.raises(InvalidParams):
        build_lattice(LatticeParams(horizon=-1.0, n_steps=4), mp)
    with pytest.raises(InvalidParams):
        build_lattice(LatticeParams(horizon=1.0, n_steps=0), mp)
    with pytest.raises(InvalidParams, match="^horizon must be finite"):
        build_lattice(LatticeParams(horizon=math.inf, n_steps=4), mp)
    bad_sigma = MarketParams(r=0.0, mu1=0.0, sigma1=0.0, mu2=0.0, sigma2=0.1,
                             lambda_bar=0.1, s1_0=1.0, s2_0=1.0)
    with pytest.raises(InvalidParams):
        build_lattice(LatticeParams(horizon=1.0, n_steps=4), bad_sigma)
    big_lam = MarketParams(r=0.0, mu1=0.0, sigma1=0.2, mu2=0.0, sigma2=0.1,
                           lambda_bar=5.0, s1_0=1.0, s2_0=1.0)
    with pytest.raises(InvalidParams):
        build_lattice(LatticeParams(horizon=1.0, n_steps=4), big_lam)
    with pytest.raises(InvalidParams):
        build_lattice(
            LatticeParams(horizon=1.0, n_steps=4),
            MarketParams(r=(0.0, 0.0), mu1=0.0, sigma1=0.2, mu2=0.0, sigma2=0.1,
                         lambda_bar=0.1, s1_0=1.0, s2_0=1.0),
        )


@pytest.mark.parametrize("field,value", [
    ("mu1", math.nan), ("r", math.inf), ("r", (0.01, -math.inf, 0.02, 0.03)),
    ("sigma2", math.nan), ("lambda_bar", (0.1, 0.1, math.nan, 0.1)),
    ("s1_0", math.inf),
])
def test_non_finite_market_parameter_named(field, value):
    base = dict(r=0.0, mu1=0.0, sigma1=0.2, mu2=0.0, sigma2=0.1,
                lambda_bar=0.1, s1_0=1.0, s2_0=1.0)
    mp = MarketParams(**{**base, field: value})
    with pytest.raises(InvalidParams, match=f"^{field} must be finite"):
        build_lattice(LatticeParams(horizon=1.0, n_steps=4), mp)


def test_per_step_sequences():
    lp = LatticeParams(horizon=1.0, n_steps=4)
    mp = MarketParams(r=(0.01, 0.02, 0.03, 0.04), mu1=0.0, sigma1=0.2,
                      mu2=0.0, sigma2=0.1, lambda_bar=(0.0, 0.2, 0.2, 0.0),
                      s1_0=1.0, s2_0=1.0)
    lat = build_lattice(lp, mp)
    assert lat.r.tolist() == [0.01, 0.02, 0.03, 0.04]
    assert lat.q.tolist() == [0.0, 0.05, 0.05, 0.0]
    assert lat.has_default
    # no default branch where the intensity is zero
    assert len(transitions(lat, Node(0, 0))) == 2
    assert len(transitions(lat, Node(1, 0))) == 3
    assert lat.s0[4] == pytest.approx(math.exp((0.01 + 0.02 + 0.03 + 0.04) * 0.25), rel=1e-14)
