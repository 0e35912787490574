"""Model-ambiguity layer: worst-case pricing over a finite control grid.

The robust seller's price is the reflected solve under the upper envelope
of the family.  Because the grid is finite, the envelope's argmax along
the solved surface defines a single per-node control; re-solving under
that frozen control must reproduce the envelope price, which is the
duality identity this module certifies.  The argmax is taken at the
pre-projection continuation, the exact point where the envelope was
evaluated inside the backward recursion, so the frozen re-solve retraces
the same fixed points wherever the projection is inactive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bsde import PICARD_MAX_ITER, PICARD_TOL, backward_sweep
from .drbsde import (
    DrbsdeSolution,
    PayoffSpec,
    enumerate_stopping_rules,
    solve_drbsde,
    stopped_pair_values,
)
from .drivers import AmbiguityFamily, Driver, audit_family
from .errors import NuOutOfRange, TooLarge
from .hedging import (
    StoppingRule,
    Strategy,
    WealthReport,
    extract_strategy,
    simulate_wealth,
    stopping_time,
)
from .lattice import Lattice, NodeField

TOL_ROBUST = 1e-10


@dataclass
class RobustResult:
    v0_via_G: float
    v0_via_grid: float
    per_alpha: np.ndarray
    worst_alpha: NodeField          # argmax grid indices per node
    frozen_value: float             # re-solve under the frozen control
    ties: int                       # nodes where the argmax is not unique
    strategy: Strategy
    rule: StoppingRule
    solution: DrbsdeSolution


def frozen_control_driver(fam: AmbiguityFamily, worst_alpha: NodeField,
                          label: str = "frozen") -> Driver:
    """Single driver that plays the recorded per-node control."""
    grid = np.asarray(fam.u_grid, dtype=float)

    def fn(ctx, y, z, k):
        a = grid[worst_alpha.layer(ctx.step, ctx.defaulted)]
        if np.ndim(y) == 2:
            a = a[:, None]
        return fam.fn(ctx, y, z, k, a)

    return Driver(fn=fn, lambda_constant=fam.lambda_constant, label=label)


def robust_seller_price(lattice: Lattice, fam: AmbiguityFamily, p: PayoffSpec, *,
                        audit: bool = True,
                        picard_tol: float = PICARD_TOL,
                        max_iter: int = PICARD_MAX_ITER) -> RobustResult:
    """Envelope solve, per-model grid solves, and the frozen-control check.

    Returns the envelope price v0_via_G, the grid maximum v0_via_grid,
    the per-node worst-case control with its re-solved value, and the
    super-hedge (strategy, cancellation rule) carried by the envelope
    solution.  Ties in the argmax are counted, not hidden: a nonzero tie
    count means the frozen control was disambiguated by lowest grid index.
    The per-model prices come from one batched sweep, one column per grid
    model, each column equal to that model's own reflected solve.
    """
    if audit:
        for report in audit_family(fam, lattice):
            report.require()
    kw = dict(picard_tol=picard_tol, max_iter=max_iter)
    gsol = solve_drbsde(lattice, fam.sup_driver(), p, **kw)

    n = lattice.n_steps
    xi, zeta = p.layers(lattice)
    grid = np.asarray(fam.u_grid, dtype=float)
    models = Driver(lambda ctx, y, z, k: fam.fn(ctx, y, z, k, grid[None, :]),
                    fam.lambda_constant)
    top = tuple(np.repeat(a[:, None], len(grid), axis=1)
                for a in (xi.alive[n], xi.defaulted[n]))
    for layer in backward_sweep(lattice, models, top, n, barriers=(xi, zeta), **kw):
        pass  # the last layer yielded is the root
    per_alpha = layer[3][0].copy()

    worst = NodeField([np.zeros(k + 1, dtype=np.int64) for k in range(n + 1)],
                      [np.zeros(lattice.defaulted_size(k), dtype=np.int64)
                       for k in range(n + 1)])
    ties = 0
    for step in range(n):
        for defaulted in (False, True):
            c = gsol.continuation.layer(step, defaulted)
            if c.size == 0:
                continue
            ctx = lattice.step_context(step, defaulted)
            zl = gsol.z.layer(step, defaulted)
            kl = gsol.k.layer(step, defaulted)
            stackv = fam.stacked(ctx, c, zl, kl)
            worst.layer(step, defaulted)[:] = np.argmax(stackv, axis=0)
            ties += int(np.sum(np.sum(stackv == stackv.max(axis=0), axis=0) > 1))

    fsol = solve_drbsde(lattice, frozen_control_driver(fam, worst), p, **kw)
    return RobustResult(
        v0_via_G=gsol.y0,
        v0_via_grid=float(np.max(per_alpha)),
        per_alpha=per_alpha,
        worst_alpha=worst,
        frozen_value=fsol.y0,
        ties=ties,
        strategy=extract_strategy(gsol, lattice.mp),
        rule=stopping_time(gsol, p, "sigma_star"),
        solution=gsol,
    )


def robust_certificate(lattice: Lattice, fam: AmbiguityFamily, p: PayoffSpec,
                       result: RobustResult | None = None, *,
                       eps: float | None = None,
                       tol: float = 1e-12) -> list[WealthReport]:
    """Simulate the envelope hedge under every model in the grid.

    The wealth starts at the robust price, plays the envelope strategy,
    and stops by the envelope's cancellation rule (or its eps-variant);
    each grid model must show zero pathwise violations.
    """
    if result is None:
        result = robust_seller_price(lattice, fam, p)
    rule = result.rule
    if eps is not None:
        rule = stopping_time(result.solution, p, "sigma_eps", eps=eps)
    return [simulate_wealth(result.v0_via_G, result.strategy, fam.member(i),
                            lattice, rule, tol=tol, reference=result.solution.y)
            for i in range(len(fam))]


@dataclass
class InterchangeReport:
    sup_inf_over_alpha: float       # max over controls of (min-max in stopping)
    inf_sup_over_alpha: float       # min over cancellation of max over (control, exercise)
    v0_via_G: float
    n_rules: int
    n_controls: int
    tol: float

    @property
    def gap(self) -> float:
        return abs(self.sup_inf_over_alpha - self.inf_sup_over_alpha)

    @property
    def ok(self) -> bool:
        return (self.gap <= self.tol
                and abs(self.sup_inf_over_alpha - self.v0_via_G) <= self.tol)


def interchange_check(lattice: Lattice, fam: AmbiguityFamily, p: PayoffSpec, *,
                      tol: float = TOL_ROBUST, max_steps: int = 3,
                      audit: bool = True) -> InterchangeReport:
    """Order-of-optimization identity by full enumeration.

    Values every (stopping pair, control) combination, where the controls
    are the grid constants plus the frozen per-node worst case; the maxmin
    over controls and the minmax over cancellation must agree with each
    other and with the envelope price.
    """
    if lattice.n_steps > max_steps:
        raise TooLarge(f"interchange enumeration limited to {max_steps} steps")
    result = robust_seller_price(lattice, fam, p, audit=audit)
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
        tol=tol,
    )


def default_ambiguity_family(f: Driver, nu: Callable, u_grid,
                             lattice: Lattice, *,
                             margin: float = 1e-9) -> AmbiguityFamily:
    """Intensity-uncertainty family: g = lam * nu(t, alpha) * k + f.

    nu scales the compensated default term, so each alpha tilts the
    intensity by the factor (1 + nu); admissibility needs nu > -1 with a
    margin.  nu is validated, and the family constant computed, on the
    step times of the lattice the family is meant for, which is the only
    place it will ever be evaluated.
    """
    grid = tuple(float(a) for a in u_grid)
    nu_max = 0.0
    for step in range(lattice.n_steps):
        t = lattice.t(step)
        for a in grid:
            v = float(nu(t, a))
            if not v > -1.0 + margin:
                raise NuOutOfRange(f"nu({t}, {a}) = {v} <= -1 + {margin}")
            nu_max = max(nu_max, abs(v))

    def fn(ctx, y, z, k, alpha):
        v = np.asarray(nu(ctx.t, alpha), dtype=float)
        return ctx.lam * v * k + f(ctx, y, z, k)

    lam_max = float(np.max(lattice.lam)) if lattice.lam.size else 0.0
    constant = f.lambda_constant + nu_max * np.sqrt(lam_max)
    return AmbiguityFamily(u_grid=grid, fn=fn, lambda_constant=float(constant),
                           label="intensity-tilt")


def robust_buyer_price(lattice: Lattice, fam: AmbiguityFamily, p: PayoffSpec, *,
                       audit: bool = True) -> float:
    """Mirror of the robust seller: envelope solve on barriers (-zeta, -xi)."""
    mirrored = robust_seller_price(lattice, fam, p.reflected(lattice), audit=audit)
    return -mirrored.v0_via_G
