"""Measure-change oracle for the linear (perfect-market) driver.

In the perfect market the seller's price of a claim is its expectation
under the state-price density (El Karoui, Peng & Quenez, "Backward
stochastic differential equations in finance", Math. Finance 1997).  Here
that expectation is taken path by path on the lattice, with no backward
solve, so it is independent of the solver it checks.
"""

import math

import numpy as np

from gamehedge import GameHedgeError, Lattice, MarketParams, TooLarge
from gamehedge.bsde import terminal_layers

# the deflator oracle sums over every path, up to 3^n of them
LINEAR_ORACLE_MAX_STEPS = 12


class DensityNotPositive(GameHedgeError):
    """A state-price density factor is nonpositive on some branch."""

    exit_code = 2


def theta_coefficients(mp: MarketParams, r: float, lam: float) -> tuple[float, float]:
    """Market prices of risk at one step: (theta1, theta2); theta2 = 0 where lam = 0."""
    th1 = (mp.mu1 - r) / mp.sigma1
    th2 = (mp.sigma2 * th1 - mp.mu2 + r) / lam if lam > 0 else 0.0
    return th1, th2


def linear_price_oracle(lattice: Lattice, mp: MarketParams, terminal) -> float:
    """Price a terminal payoff by the state-price density, path by path.

    Each branch carries the weight p * (1 - (theta1 dW + theta2 dM)/(1 - q));
    the per-path products are summed and discounted at the compounded
    one-step rate.  Independent of the backward solver: this is the oracle
    the perfect-market driver is checked against.
    """
    n = lattice.n_steps
    if n > LINEAR_ORACLE_MAX_STEPS:
        raise TooLarge(f"deflator oracle limited to {LINEAR_ORACLE_MAX_STEPS} steps, "
                       f"lattice has {n}")
    term_a, term_d = terminal_layers(lattice, terminal, n)
    dt = lattice.dt
    s = math.sqrt(dt)

    alive_branches = []
    dead_branches = []
    for step in range(n):
        r = float(lattice.r[step])
        lam = float(lattice.lam[step])
        q = float(lattice.q[step])
        th1, th2 = theta_coefficients(mp, r, lam)
        f_up_dead = 1.0 - th1 * s
        f_dn_dead = 1.0 + th1 * s
        if min(f_up_dead, f_dn_dead) <= 0.0:
            raise DensityNotPositive(
                f"post-default density factor <= 0 at step {step} (theta1 = {th1:.4g})")
        dead_branches.append(((+1, 0.5 * f_up_dead), (-1, 0.5 * f_dn_dead)))
        if q > 0.0:
            f_up = 1.0 - (th1 * s - th2 * q) / (1.0 - q)
            f_dn = 1.0 + (th1 * s + th2 * q) / (1.0 - q)
            f_def = 1.0 - th2
            if min(f_up, f_dn, f_def) <= 0.0:
                raise DensityNotPositive(
                    f"density factor <= 0 at step {step} "
                    f"(theta1 = {th1:.4g}, theta2 = {th2:.4g})")
            alive_branches.append(
                ((+1, 0.5 * (1.0 - q) * f_up), (-1, 0.5 * (1.0 - q) * f_dn),
                 (None, q * f_def)))
        else:
            alive_branches.append(((+1, 0.5 * f_up_dead), (-1, 0.5 * f_dn_dead)))

    total = 0.0
    stack = [(0, 0, False, 1.0)]
    while stack:
        step, j, dead, w = stack.pop()
        if step == n:
            total += w * (term_d[j] if dead else term_a[j])
            continue
        if dead:
            for dj, pw in dead_branches[step]:
                stack.append((step + 1, j + (dj > 0), True, w * pw))
        else:
            for dj, pw in alive_branches[step]:
                if dj is None:
                    stack.append((step + 1, j, True, w * pw))
                else:
                    stack.append((step + 1, j + (dj > 0), False, w * pw))

    discount = float(np.prod(1.0 + lattice.r * dt))
    return total / discount
