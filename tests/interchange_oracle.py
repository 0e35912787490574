"""Interchange check for robust pricing: the order of optimization, by enumeration.

The robust seller's price sits at the top of a three-player problem: the
buyer's exercise, the seller's cancellation and nature's choice of model.
On a small tree every (stopping pair, control) combination is valued, and
the max over controls of each control's game value must equal the min over
cancellation of the max over (control, exercise), and both must equal the
envelope price `gamehedge.robust.robust_seller_price` computes.
"""

from dataclasses import dataclass

import numpy as np

from gamehedge import (
    AmbiguityFamily,
    Lattice,
    PayoffSpec,
    TooLarge,
    enumerate_stopping_rules,
    frozen_control_driver,
    robust_seller_price,
    stopped_pair_values,
)

TOL_ROBUST = 1e-10
# the interchange check values every rule pair under every control
INTERCHANGE_MAX_STEPS = 3


@dataclass
class InterchangeReport:
    sup_inf_over_alpha: float       # max over controls of (min-max in stopping)
    inf_sup_over_alpha: float       # min over cancellation of max over (control, exercise)
    v0_via_G: float
    n_rules: int
    n_controls: int

    @property
    def gap(self) -> float:
        return abs(self.sup_inf_over_alpha - self.inf_sup_over_alpha)

    @property
    def ok(self) -> bool:
        return (self.gap <= TOL_ROBUST
                and abs(self.sup_inf_over_alpha - self.v0_via_G) <= TOL_ROBUST)


def interchange_check(lattice: Lattice, fam: AmbiguityFamily,
                      p: PayoffSpec) -> InterchangeReport:
    """Order-of-optimization identity by full enumeration.

    Values every (stopping pair, control) combination, where the controls
    are the grid constants plus the frozen per-node worst case; the maxmin
    over controls and the minmax over cancellation must agree with each
    other and with the envelope price.
    """
    if lattice.n_steps > INTERCHANGE_MAX_STEPS:
        raise TooLarge(f"interchange enumeration limited to {INTERCHANGE_MAX_STEPS} steps")
    result = robust_seller_price(lattice, fam, p)
    rules = enumerate_stopping_rules(lattice)
    drivers = fam.members() + [frozen_control_driver(fam, result.worst_alpha)]
    mats = np.stack([stopped_pair_values(lattice, dr, p, rules, rules)
                     for dr in drivers])
    # mats[a, tau, sigma]
    per_control = mats.max(axis=1).min(axis=1)        # inf_sigma sup_tau, per control
    a_value = float(per_control.max())
    b_value = float(mats.max(axis=(0, 1)).min())      # inf_sigma sup over (control, tau)
    return InterchangeReport(
        sup_inf_over_alpha=a_value,
        inf_sup_over_alpha=b_value,
        v0_via_G=result.v0_via_G,
        n_rules=len(rules),
        n_controls=len(drivers),
    )
