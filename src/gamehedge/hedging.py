"""Super-hedge extraction and pathwise certification.

The portfolio map sends integrands to asset amounts, phi2 = -K and
phi1 = (Z + sigma2 K) / sigma1, and the forward wealth step applies the
generator at the current wealth, which is exactly the inverse of the
backward solver's implicit step.  Dominance of wealth over the value
surface therefore holds path by path up to the solver's fixed-point
residual, and the certification below asserts it up to `tol`: every
slack must be >= -tol.  The CLI passes the scenario's `options.tolerance`
(default 1e-12).

Stopping rules are node-indexed stop flags: a path stops at the first
flagged node it reaches, and terminal nodes are always flagged.  The
certificate keeps one number per node, the least wealth over the paths
that reach it unstopped.  By the discrete comparison theorem that minimum
decides every slack exactly, so the recombining sweep costs O(n^2) and
`violations` counts the nodes, not the paths, where a slack fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bsde import require_contraction
from .drbsde import DrbsdeSolution, PayoffSpec, solve_drbsde
from .drivers import Driver
from .errors import InvalidParams
from .lattice import Lattice, MarketParams, NodeField


@dataclass(frozen=True)
class Strategy:
    """Node-indexed amounts held in the two risky assets."""

    phi1: NodeField
    phi2: NodeField


def extract_strategy(sol: DrbsdeSolution, mp: MarketParams) -> Strategy:
    """Portfolio amounts from the integrands.

    phi2 = -K (zero once the intensity is gone, since K is), and
    phi1 = (Z + sigma2 K) / sigma1.
    """
    s1, s2 = mp.sigma1, mp.sigma2
    phi1 = NodeField([(z + s2 * k) / s1 for z, k in zip(sol.z.alive, sol.k.alive)],
                     [z / s1 for z in sol.z.defaulted])
    phi2 = NodeField([-k for k in sol.k.alive],
                     [np.zeros_like(z) for z in sol.z.defaulted])
    return Strategy(phi1=phi1, phi2=phi2)


def integrands_of(strat: Strategy, mp: MarketParams, step: int, defaulted: bool):
    """Inverse map on one layer: Z = phi1 sigma1 + phi2 sigma2, K = -phi2."""
    p1 = strat.phi1.layer(step, defaulted)
    p2 = strat.phi2.layer(step, defaulted)
    return p1 * mp.sigma1 + p2 * mp.sigma2, -p2


@dataclass(frozen=True)
class StoppingRule:
    """Stop flags plus the barrier surfaces the slacks are measured against."""

    flags: NodeField
    kind: str
    eps: float | None
    xi: NodeField
    zeta: NodeField


def _force_terminal(flags: NodeField, lattice: Lattice) -> NodeField:
    n = lattice.n_steps
    flags.alive[n][:] = True
    flags.defaulted[n][:] = True
    return flags


def stopping_time(sol: DrbsdeSolution, p: PayoffSpec, kind: str,
                  eps: float | None = None) -> StoppingRule:
    """First-hit rules read off the solved surface.

    sigma_star stops where Y equals the upper barrier (exact equality, the
    projection writes the barrier value verbatim), sigma_eps where Y is
    within eps of it, tau_star where Y equals the lower barrier.
    """
    hits = {"sigma_star": lambda y, lo, hi: y == hi,
            "sigma_eps": lambda y, lo, hi: y >= hi - eps,
            "tau_star": lambda y, lo, hi: y == lo}
    if kind not in hits:
        raise InvalidParams(f"unknown stopping rule kind: {kind!r}")
    if kind == "sigma_eps" and (eps is None or not 0.0 < eps < np.inf):
        raise InvalidParams("sigma_eps needs a finite eps > 0")
    xi, zeta, y = *p.layers(sol.lattice), sol.y
    # one layer at a time: y is derived on read
    flags = NodeField(*([hits[kind](y.layer(k, dflt), xi.layer(k, dflt), zeta.layer(k, dflt))
                         for k in range(sol.lattice.n_steps + 1)] for dflt in (False, True)))
    return StoppingRule(flags=_force_terminal(flags, sol.lattice), kind=kind,
                        eps=eps, xi=xi, zeta=zeta)


@dataclass
class WealthReport:
    """Node-indexed outcome of a forward wealth certificate.

    min_wealth holds, per node, the least wealth over the lattice paths
    that reach the node before their rule fires (+inf where none does);
    the worst slacks and the violation count are read off it.
    """

    min_wealth: NodeField
    n_paths: int                    # lattice paths the node minima stand for
    violations: int                 # nodes where a slack is not >= -tol
    worst_xi_slack: float           # min over reached nodes of V - xi
    worst_stop_slack: float         # min over stop nodes of V - zeta (+ eps for sigma_eps)
    worst_ref_slack: float          # min over reached nodes of V - reference, inf if unused
    tol: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


def simulate_wealth(x0: float, strat: Strategy, d: Driver, lattice: Lattice,
                    rule: StoppingRule, *, tol: float = 1e-12,
                    reference: NodeField | None = None) -> WealthReport:
    """Step the self-financing wealth forward through the recombining lattice.

    V' = V - g(t, V, Z, K) dt + Z dW + K dM with (Z, K) read from the
    strategy.  The step is increasing in V once C dt < 1 (the discrete
    comparison theorem), so the least wealth among the paths reaching a
    node decides every slack there: each node keeps that minimum, takes
    its slacks, and passes it to its successors unless the rule fires.
    The worst slacks equal those of stepping every path on its own, and a
    NaN wealth makes the worst slacks it enters NaN.  InvalidParams is
    raised unless x0 is finite.
    """
    if not math.isfinite(x0):
        raise InvalidParams(f"x0 must be finite, got {x0!r}")
    require_contraction(d, lattice)
    n = lattice.n_steps
    dt, s = lattice.dt, lattice.sqrt_dt
    eps_adj = rule.eps if rule.kind == "sigma_eps" and rule.eps else 0.0

    mins = NodeField([np.full(k + 1, np.inf) for k in range(n + 1)],
                     [np.full(lattice.defaulted_size(k), np.inf) for k in range(n + 1)])
    mins.alive[0][0] = float(x0)
    worst_xi = worst_stop = worst_ref = np.inf
    violations = 0

    for k in range(n + 1):
        for defaulted in (False, True):
            v = mins.layer(k, defaulted)
            if v.size == 0:
                continue
            stop = rule.flags.layer(k, defaulted) | (k == n)
            xi_slack = v - rule.xi.layer(k, defaulted)
            stop_slack = np.where(stop, v - rule.zeta.layer(k, defaulted) + eps_adj, np.inf)
            # np.minimum keeps a NaN, where min(inf, nan) would drop it
            worst_xi = np.minimum(worst_xi, np.min(xi_slack))
            worst_stop = np.minimum(worst_stop, np.min(stop_slack))
            if reference is not None:
                worst_ref = np.minimum(worst_ref, np.min(v - reference.layer(k, defaulted)))
            # a slack passes only if >= -tol, so a NaN wealth never reads as ok
            violations += int(np.sum(~((xi_slack >= -tol) & (stop_slack >= -tol))))
            if k == n:
                continue

            # unreached nodes hold +inf: the generator sees 0 there, and masking drops it
            go = ~stop & (v < np.inf)
            z, kk = integrands_of(strat, lattice.mp, k, defaulted)
            base = v - d(lattice.step_context(k, defaulted), np.where(go, v, 0.0), z, kk) * dt
            q = float(lattice.q[k])
            jump = not defaulted and q > 0.0
            dm = -q if jump else 0.0
            nxt = mins.layer(k + 1, defaulted)
            # (successor layer, index shift, dW, dM) for up, down and default
            branches = [(nxt, 1, s, dm), (nxt, 0, -s, dm)]
            if jump:
                branches.append((mins.defaulted[k + 1], 0, 0.0, 1.0 - q))
            for layer, dj, dw, dmb in branches:
                part = layer[dj:dj + v.size]
                np.minimum(part, np.where(go, base + z * dw + kk * dmb, np.inf), out=part)

    # D_{k+1} = 2 D_k + [q_k > 0] 2^k defaulted paths: 2^(n-1) per default step
    n_paths = 2 ** n + int(np.count_nonzero(lattice.q > 0.0)) * 2 ** (n - 1)
    return WealthReport(min_wealth=mins, n_paths=n_paths, violations=violations,
                        worst_xi_slack=float(worst_xi), worst_stop_slack=float(worst_stop),
                        worst_ref_slack=float(worst_ref), tol=tol)


class BuyerHedge(NamedTuple):
    price: float
    strategy: Strategy
    rule: StoppingRule


def buyer_superhedge(lattice: Lattice, d: Driver, p: PayoffSpec) -> BuyerHedge:
    """Buyer-side hedge through the mirrored problem.

    Solve with barriers (-zeta, -xi); the buyer price is the negative of
    that root value, the strategy is the portfolio map of the mirrored
    integrands, and exercise fires where the mirrored surface touches its
    upper barrier, i.e. the original lower one.
    """
    q = p.reflected(lattice)
    sol = solve_drbsde(lattice, d, q)
    return BuyerHedge(price=-sol.y0,
                      strategy=extract_strategy(sol, lattice.mp),
                      rule=stopping_time(sol, q, "sigma_star"))
