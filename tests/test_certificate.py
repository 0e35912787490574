"""The node-minimum certificate against path enumeration.

`gamehedge.hedging.simulate_wealth` keeps one wealth per node, the least
over the paths reaching it unstopped; `certificate_oracle.simulate_wealth`
steps every lattice path on its own.  By the discrete comparison theorem
the two agree exactly on the worst slacks and on whether any slack fails.
"""

import dataclasses

import certificate_oracle
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gamehedge import (
    LatticeParams,
    NodeField,
    audit_driver,
    build_lattice,
    comparison_region_ok,
    extract_strategy,
    simulate_wealth,
    solve_drbsde,
    stopping_time,
)
from instances import KINDS, draw_driver, draw_market, draw_payoff
from rule_oracle import rule_from_flags, sigma_bar_rule

RULES = ("sigma_star", "sigma_eps", "tau_star", "sigma_bar", "user")


def market_instance(rng, kind, n, lam_mode, per_step_r):
    """Audited (lattice, driver, payoff) inside the comparison region."""
    for _ in range(200):
        mp = draw_market(rng, lam_zero_frac=1.0 if lam_mode == "zero" else 0.0)
        if lam_mode == "per_step":
            lam = rng.uniform(0.05, 0.4, n) * (rng.uniform(size=n) < 0.6)
            mp = dataclasses.replace(mp, lambda_bar=tuple(float(v) for v in lam))
        if per_step_r:
            mp = dataclasses.replace(mp, r=tuple(float(v) for v in rng.uniform(0.0, 0.06, n)))
        lattice = build_lattice(LatticeParams(horizon=float(rng.uniform(0.25, 1.0)),
                                              n_steps=n), mp)
        driver, _ = draw_driver(rng, mp, kind)
        if comparison_region_ok(lattice, driver.lambda_constant) and \
                audit_driver(driver, lattice).ok:
            return lattice, driver, draw_payoff(rng, mp.s1_0, gap_lo=0.02, gap_hi=0.5)
    raise RuntimeError("instance rejection sampling exhausted")


def draw_rule(rng, sol, p, kind):
    if kind == "sigma_eps":
        return stopping_time(sol, p, kind, eps=float(rng.uniform(1e-3, 0.2)))
    if kind == "sigma_bar":
        return sigma_bar_rule(sol, p)
    if kind == "user":
        lattice, share = sol.lattice, float(rng.uniform(0.0, 0.5))
        flags = NodeField([rng.uniform(size=k + 1) < share
                           for k in range(lattice.n_steps + 1)],
                          [rng.uniform(size=lattice.defaulted_size(k)) < share
                           for k in range(lattice.n_steps + 1)])
        return rule_from_flags(lattice, flags, p)
    return stopping_time(sol, p, kind)


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(KINDS),
       n=st.integers(1, 9), lam_mode=st.sampled_from(("zero", "positive", "per_step")),
       per_step_r=st.booleans(), rule_kind=st.sampled_from(RULES),
       deficit=st.sampled_from((0.0, 0.0, 1e-9, 0.003, 0.05)), with_reference=st.booleans())
def test_node_sweep_matches_path_enumeration(seed, kind, n, lam_mode, per_step_r,
                                              rule_kind, deficit, with_reference):
    rng = np.random.default_rng(seed)
    lattice, d, p = market_instance(rng, kind, n, lam_mode, per_step_r)
    sol = solve_drbsde(lattice, d, p)
    strat = extract_strategy(sol, lattice.mp)
    rule = draw_rule(rng, sol, p, rule_kind)
    x0 = sol.y0 - deficit
    reference = sol.y if with_reference else None

    node = simulate_wealth(x0, strat, d, lattice, rule, reference=reference)
    paths = certificate_oracle.simulate_wealth(x0, strat, d, lattice, rule,
                                               reference=reference)
    assert node.worst_xi_slack == paths.worst_xi_slack
    assert node.worst_stop_slack == paths.worst_stop_slack
    assert node.worst_ref_slack == paths.worst_ref_slack
    assert node.n_paths == paths.n_paths
    assert (node.violations == 0) == (paths.violations == 0)
    assert node.ok == paths.ok
