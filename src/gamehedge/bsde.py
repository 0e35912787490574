"""Backward solver for the default-jump BSDE.

The backward step is implicit in y and explicit in (z, k): at each layer
the integrands come from the exact successor regression, then the scalar
fixed point y = E[Y'] + g(t, y, z, k) dt is solved by Picard iteration.
Under C*dt < 1 the map is a contraction and the per-step recursion is
monotone in the successor values, which is what the comparison and
super-hedging checks lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .drivers import Driver
from .errors import InvalidParams, NoContraction, PicardDivergence
from .lattice import Lattice, NodeField, StepContext

# Picard stopping rule of every implicit step; no solve takes its own.
PICARD_TOL = 1e-14
PICARD_MAX_ITER = 100


def implicit_continuation(ctx: StepContext, d: Driver, base, z, k, dt: float, *,
                          batch: bool = False):
    """Solve y = base + g(ctx, y, z, k) * dt for y; returns (y, iterations).

    base is the successor mean.
    Convergence is geometric with ratio <= C * dt; the caller must have
    checked the contraction condition.  Iteration stops once
    max|dy| <= PICARD_TOL * (1 + max|y|); PicardDivergence is raised after
    PICARD_MAX_ITER iterations, or at once on a non-finite iterate.  With
    batch, each column of the trailing axis applies that rule alone and
    keeps its converged value, so it equals its own solve; iterations
    counts the slowest column.
    """
    base = np.asarray(base, dtype=float)
    if base.size == 0:
        return base.copy(), 0
    where = f"step {ctx.step}{' (defaulted)' if ctx.defaulted else ''}"
    active = np.ones(base.shape[1:], dtype=bool)
    y = base.copy()
    for i in range(PICARD_MAX_ITER):
        y_new = base + np.asarray(d(ctx, y, z, k), dtype=float) * dt
        if batch:
            diff = np.abs(y_new - y).max(axis=0)
            finite = np.isfinite(diff[active]).all()
            y = np.where(active, y_new, y)
            active &= ~(diff <= PICARD_TOL * (1.0 + np.abs(y).max(axis=0)))
            done = not active.any()
        else:
            diff = float(np.abs(y_new - y).max())
            finite = math.isfinite(diff)
            y = y_new
            done = diff <= PICARD_TOL * (1.0 + float(np.abs(y).max()))
        if not finite:
            raise PicardDivergence(f"non-finite iterate at {where}, iteration {i + 1}")
        if done:
            return y, i + 1
    raise PicardDivergence(
        f"implicit step at {where} did not converge below {PICARD_TOL:g} in "
        f"{PICARD_MAX_ITER} iterations (last change {np.max(np.where(active, diff, 0.0)):.3g})")


def require_contraction(d: Driver, lattice: Lattice) -> None:
    if d.lambda_constant * lattice.dt >= 1.0:
        raise NoContraction(
            f"C * dt = {d.lambda_constant * lattice.dt:.6g} >= 1 for driver "
            f"{d.label or 'anonymous'}")


def comparison_region_ok(lattice: Lattice, c: float) -> bool:
    """True when every one-step weight of the implicit scheme stays positive.

    c * dt < 1 makes the step well posed; positivity of the up/down weights
    additionally needs c*sqrt(dt)*(1+sqrt(q)) < 1-q at every step, which is
    what order-preserving (comparison) arguments require.
    """
    s = lattice.sqrt_dt
    if c * lattice.dt >= 1.0 or c * s >= 1.0:
        return False
    q = lattice.q
    return bool(np.all(c * s * (1.0 + np.sqrt(q)) < 1.0 - q))


def terminal_layers(lattice: Lattice, terminal, step: int | None = None):
    """Normalize a terminal payoff to (alive_values, defaulted_values) arrays.

    Accepts a NodeField, a callable (t, s1, defaulted) -> values, a pair of
    arrays, or a scalar.
    """
    n = lattice.n_steps if step is None else step
    na, nd = lattice.alive_size(n), lattice.defaulted_size(n)
    if isinstance(terminal, NodeField):
        a = np.asarray(terminal.layer(n, False), dtype=float).copy()
        dv = np.asarray(terminal.layer(n, True), dtype=float).copy()
    elif callable(terminal):
        t = lattice.t(n)
        a = np.asarray(terminal(t, lattice.s1_alive[n], False), dtype=float) + np.zeros(na)
        dv = (np.asarray(terminal(t, lattice.s1_defaulted[n], True), dtype=float) + np.zeros(nd)
              if nd else np.zeros(0))
    elif np.isscalar(terminal):
        a = np.full(na, float(terminal))
        dv = np.full(nd, float(terminal))
    else:
        a, dv = terminal
        a = np.asarray(a, dtype=float).copy()
        dv = np.asarray(dv, dtype=float).copy()
    if a.shape != (na,) or dv.shape != (nd,):
        raise InvalidParams(
            f"terminal layer shapes {a.shape}/{dv.shape} do not match ({na},)/({nd},)")
    return a, dv


def backward_sweep(lattice: Lattice, d: Driver, top, n: int, *, barriers=None):
    """The backward recursion below step n, from top = (alive, defaulted) values.

    Per layer, top to bottom, alive before defaulted (empty layers skipped):
    regress the successors to (mean, z, k), solve c = mean + g(t, c, z, k) dt,
    and set y = c, or clip(c, xi, zeta) with barriers = (xi, zeta).  Yields
    (step, defaulted, c, y, z, k, iterations).  A 2-D top (nodes x models)
    is a batch: ctx.s1/s2 and the barriers gain a trailing axis and each
    column converges on its own.
    """
    batch = np.ndim(top[0]) == 2

    def col(a):
        return a[:, None] if batch else a

    nxt = list(top)
    for step in reversed(range(n)):
        m_a, z_a, k_a, m_d, z_d = lattice.layer_regression(step, *nxt)
        for defaulted, base, z, k in ((False, m_a, z_a, k_a),
                                      (True, m_d, z_d, np.zeros_like(m_d))):
            if base.size == 0:
                nxt[defaulted] = base
                continue
            ctx = lattice.step_context(step, defaulted)
            if batch:
                ctx = replace(ctx, s1=col(ctx.s1), s2=col(ctx.s2))
            c, it = implicit_continuation(ctx, d, base, z, k, lattice.dt, batch=batch)
            y = c
            if barriers is not None:
                y = np.clip(c, *(col(b.layer(step, defaulted)) for b in barriers))
            nxt[defaulted] = y
            yield step, defaulted, c, y, z, k, it


def node_fields(lattice: Lattice, rows: dict, width: int) -> list[NodeField]:
    """width NodeFields from rows {(step, defaulted): (field 0, field 1, ...)};
    a field past the end of its row, or a layer with no row, is zeros."""
    def layers(i, defaulted, size):
        out = []
        for k in range(lattice.n_steps + 1):
            row = rows.get((k, defaulted), ())
            out.append(row[i] if i < len(row) else np.zeros(size(k)))
        return out

    return [NodeField(layers(i, False, lattice.alive_size),
                      layers(i, True, lattice.defaulted_size)) for i in range(width)]


@dataclass
class BsdeSolution:
    """Node-indexed value and integrands of one backward solve."""

    lattice: Lattice
    y: NodeField
    z: NodeField
    k: NodeField
    terminal_step: int
    iterations: int

    @property
    def y0(self) -> float:
        return self.y.root


def solve_bsde(lattice: Lattice, d: Driver, terminal, *,
               terminal_step: int | None = None) -> BsdeSolution:
    """Backward solve from the terminal layer down to the root.

    terminal_step lets a solve start from an intermediate layer, which is
    how the flow (consistency) property is exercised; layers above it
    stay zero.
    """
    require_contraction(d, lattice)
    n = lattice.n_steps if terminal_step is None else terminal_step
    if not 1 <= n <= lattice.n_steps:
        raise InvalidParams("terminal_step out of range")
    top = terminal_layers(lattice, terminal, n)
    rows = {(n, False): top[:1], (n, True): top[1:]}
    iters = 0
    for step, defaulted, _, y, z, k, it in backward_sweep(lattice, d, top, n):
        rows[step, defaulted] = (y, z, k)
        iters += it
    y, z, kf = node_fields(lattice, rows, 3)
    return BsdeSolution(lattice=lattice, y=y, z=z, k=kf, terminal_step=n, iterations=iters)
