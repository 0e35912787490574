"""Backward solver for the default-jump BSDE and its linear-model oracle.

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

from .drivers import Driver, theta_coefficients
from .errors import (
    DensityNotPositive,
    InvalidParams,
    NoContraction,
    PicardDivergence,
    TooLarge,
)
from .lattice import Lattice, MarketParams, NodeField, StepContext

PICARD_TOL = 1e-14
PICARD_MAX_ITER = 100


def implicit_continuation(ctx: StepContext, d: Driver, base, z, k, dt: float,
                          picard_tol: float = PICARD_TOL,
                          max_iter: int = PICARD_MAX_ITER, *, batch: bool = False):
    """Solve y = base + g(ctx, y, z, k) * dt for y; returns (y, iterations).

    base absorbs the successor mean plus any source term (dividends).
    Convergence is geometric with ratio <= C * dt; the caller must have
    checked the contraction condition.  Iteration stops once
    max|dy| <= picard_tol * (1 + max|y|).  With batch, each column of the
    trailing axis applies that rule alone and keeps its converged value,
    so it equals its own solve; iterations counts the slowest column.
    A non-finite iterate raises PicardDivergence at once.
    """
    base = np.asarray(base, dtype=float)
    if base.size == 0:
        return base.copy(), 0
    where = f"step {ctx.step}{' (defaulted)' if ctx.defaulted else ''}"
    active = np.ones(base.shape[1:], dtype=bool)
    y = base.copy()
    for i in range(max_iter):
        y_new = base + np.asarray(d(ctx, y, z, k), dtype=float) * dt
        if batch:
            diff = np.abs(y_new - y).max(axis=0)
            finite = np.isfinite(diff[active]).all()
            y = np.where(active, y_new, y)
            active &= ~(diff <= picard_tol * (1.0 + np.abs(y).max(axis=0)))
            done = not active.any()
        else:
            diff = float(np.abs(y_new - y).max())
            finite = math.isfinite(diff)
            y = y_new
            done = diff <= picard_tol * (1.0 + float(np.abs(y).max()))
        if not finite:
            raise PicardDivergence(f"non-finite iterate at {where}, iteration {i + 1}")
        if done:
            return y, i + 1
    raise PicardDivergence(
        f"implicit step at {where} did not converge below {picard_tol:g} in {max_iter} "
        f"iterations (last change {np.max(np.where(active, diff, 0.0)):.3g})")


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
        a = np.asarray(terminal.alive[n], dtype=float).copy()
        dv = np.asarray(terminal.defaulted[n], dtype=float).copy()
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


def backward_sweep(lattice: Lattice, d: Driver, top, n: int, *, barriers=None,
                   dividends: NodeField | None = None,
                   picard_tol: float = PICARD_TOL, max_iter: int = PICARD_MAX_ITER):
    """The backward recursion below step n, from top = (alive, defaulted) values.

    Per layer, top to bottom, alive before defaulted (empty layers skipped):
    regress the successors to (mean, z, k), solve c = mean (+ dividend) +
    g(t, c, z, k) dt, and set y = c, or clip(c, xi, zeta) with barriers =
    (xi, zeta).  Yields (step, defaulted, c, y, z, k, iterations).  A 2-D
    top (nodes x models) is a batch: ctx.s1/s2, barriers and dividends gain
    a trailing axis and each column converges on its own.
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
            if dividends is not None:
                base = base + col(dividends.layer(step, defaulted))
            ctx = lattice.step_context(step, defaulted)
            if batch:
                ctx = replace(ctx, s1=col(ctx.s1), s2=col(ctx.s2))
            c, it = implicit_continuation(ctx, d, base, z, k, lattice.dt, picard_tol,
                                          max_iter, batch=batch)
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
               terminal_step: int | None = None,
               picard_tol: float = PICARD_TOL,
               max_iter: int = PICARD_MAX_ITER) -> BsdeSolution:
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
    for step, defaulted, _, y, z, k, it in backward_sweep(
            lattice, d, top, n, picard_tol=picard_tol, max_iter=max_iter):
        rows[step, defaulted] = (y, z, k)
        iters += it
    y, z, kf = node_fields(lattice, rows, 3)
    return BsdeSolution(lattice=lattice, y=y, z=z, k=kf, terminal_step=n, iterations=iters)


def buyer_european_price(lattice: Lattice, d: Driver, terminal, **kw) -> float:
    """Buyer's side by reflection: the negative solve of the negated payoff."""
    a, dv = terminal_layers(lattice, terminal)
    sol = solve_bsde(lattice, d, (-a, -dv), **kw)
    return -sol.y0


def linear_price_oracle(lattice: Lattice, mp: MarketParams, terminal, *,
                        max_steps: int = 12) -> float:
    """Price a terminal payoff by the state-price density, path by path.

    Each branch carries the weight p * (1 - (theta1 dW + theta2 dM)/(1 - q));
    the per-path products are summed and discounted at the compounded
    one-step rate.  Independent of the backward solver: this is the oracle
    the perfect-market driver is checked against.
    """
    n = lattice.n_steps
    if n > max_steps:
        raise TooLarge(f"deflator oracle limited to {max_steps} steps, lattice has {n}")
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
