"""Model-ambiguity layer: worst-case pricing over a finite control grid.

The robust seller's price is the reflected solve under the upper envelope
of the family.  Because the grid is finite, the envelope's argmax along
the solved surface defines a single per-node control; re-solving under
that frozen control must reproduce the envelope price, which is the
duality identity this module certifies.  The argmax is taken at the
pre-projection continuation, the exact point where the envelope was
evaluated inside the backward recursion, so the frozen re-solve retraces
the same fixed points wherever the projection is inactive.

The hedge read off the envelope solve is certified once, under the
envelope driver: a model is any adapted control, and the envelope's
wealth step is the least step over every control the grid offers at a
node, so one sweep covers all of them.  This is the certificate `hedge`
computes on an ambiguity scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bsde import backward_sweep
from .drbsde import DrbsdeSolution, PayoffSpec, solve_drbsde
from .drivers import AmbiguityFamily, Driver, audit_family
from .errors import NuOutOfRange
from .hedging import WealthReport, extract_strategy, simulate_wealth, stopping_time
from .lattice import Lattice, NodeField

@dataclass
class RobustResult:
    v0_via_G: float
    v0_via_grid: float
    per_alpha: np.ndarray
    worst_alpha: NodeField          # argmax grid indices per node
    frozen_value: float             # re-solve under the frozen control
    ties: int                       # nodes where the argmax is not unique
    solution: DrbsdeSolution        # the envelope solve the hedge is read off


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
                        audit: bool = True) -> RobustResult:
    """Envelope solve, per-model grid solves, and the frozen-control check.

    Returns the envelope price v0_via_G, the grid maximum v0_via_grid,
    the per-node worst-case control with its re-solved value, and the
    envelope solution, from which `robust_certificate` reads the hedge.
    Ties in the argmax are counted, not hidden: a nonzero tie
    count means the frozen control was disambiguated by lowest grid index.
    The per-model prices come from one batched sweep, one column per grid
    model, each column equal to that model's own reflected solve.
    """
    if audit:
        for report in audit_family(fam, lattice):
            report.require()
    gsol = solve_drbsde(lattice, fam.sup_driver(), p)

    n = lattice.n_steps
    xi, zeta = p.layers(lattice)
    grid = np.asarray(fam.u_grid, dtype=float)
    models = Driver(lambda ctx, y, z, k: fam.fn(ctx, y, z, k, grid[None, :]),
                    fam.lambda_constant)
    top = tuple(np.repeat(a[:, None], len(grid), axis=1)
                for a in (xi.layer(n, False), xi.layer(n, True)))
    for layer in backward_sweep(lattice, models, top, n, barriers=(xi, zeta)):
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

    fsol = solve_drbsde(lattice, frozen_control_driver(fam, worst), p)
    return RobustResult(
        v0_via_G=gsol.y0,
        v0_via_grid=float(np.max(per_alpha)),
        per_alpha=per_alpha,
        worst_alpha=worst,
        frozen_value=fsol.y0,
        ties=ties,
        solution=gsol,
    )


def robust_certificate(lattice: Lattice, fam: AmbiguityFamily, p: PayoffSpec,
                       result: RobustResult, *, tol: float = 1e-12) -> WealthReport:
    """Certify the envelope hedge against every adapted control in one sweep.

    The wealth starts at the robust price, plays the envelope strategy,
    stops by the envelope's cancellation rule sigma*, and steps under the
    envelope driver.  Its step is never above any member's, so each node's
    least wealth is at or below the least wealth of every control that
    switches model along the path, a constant control included.
    """
    sol = result.solution
    return simulate_wealth(result.v0_via_G, extract_strategy(sol, lattice.mp),
                           fam.sup_driver(), lattice,
                           stopping_time(sol, p, "sigma_star"), tol=tol,
                           reference=sol.y)


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
