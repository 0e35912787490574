"""Reference backward solvers: the per-layer loops the sweep replaced.

`implicit_continuation`, `solve_bsde` and `solve_drbsde` as they stood
before `gamehedge.bsde.backward_sweep`, kept verbatim: each solve runs
its own layer loop over preallocated zero fields, and the Picard test is
one joint max over the whole array.  The corpus tests compare the sweep
against these bit for bit.  The reflected reference stores all six node
fields in its own result type, so the library's derived y, dA and dA'
are checked against values that were computed and stored, not derived.
"""

from dataclasses import dataclass

import numpy as np

from gamehedge import BsdeSolution, InvalidParams, NodeField, PayoffSpec, PicardDivergence
from gamehedge.bsde import PICARD_MAX_ITER, PICARD_TOL, require_contraction, terminal_layers
from gamehedge.drivers import Driver
from gamehedge.lattice import Lattice, StepContext


def implicit_continuation(ctx: StepContext, d: Driver, base, z, k, dt: float,
                          picard_tol: float = PICARD_TOL,
                          max_iter: int = PICARD_MAX_ITER):
    """Solve y = base + g(ctx, y, z, k) * dt for y; returns (y, iterations).

    base is the successor mean.
    Convergence is geometric with ratio <= C * dt; the caller must have
    checked the contraction condition.
    """
    base = np.asarray(base, dtype=float)
    if base.size == 0:
        return base.copy(), 0
    y = base.copy()
    for i in range(max_iter):
        y_new = base + np.asarray(d(ctx, y, z, k), dtype=float) * dt
        y_new = np.broadcast_to(y_new, base.shape) if y_new.shape != base.shape else y_new
        diff = float(np.max(np.abs(y_new - y)))
        y = np.array(y_new, dtype=float, copy=True)
        scale = 1.0 + float(np.max(np.abs(y)))
        if diff <= picard_tol * scale:
            return y, i + 1
    raise PicardDivergence(
        f"implicit step did not converge below {picard_tol:g} in {max_iter} iterations "
        f"(last change {diff:.3g})")


def solve_bsde(lattice: Lattice, d: Driver, terminal, *,
               terminal_step: int | None = None,
               picard_tol: float = PICARD_TOL,
               max_iter: int = PICARD_MAX_ITER) -> BsdeSolution:
    """Backward solve from the terminal layer down to the root.

    terminal_step lets a solve start from an intermediate layer, which is
    how the flow (consistency) property is exercised.
    """
    require_contraction(d, lattice)
    n = lattice.n_steps if terminal_step is None else terminal_step
    if not 1 <= n <= lattice.n_steps:
        raise InvalidParams("terminal_step out of range")
    y = NodeField.zeros(lattice)
    z = NodeField.zeros(lattice)
    kf = NodeField.zeros(lattice)
    term_a, term_d = terminal_layers(lattice, terminal, n)
    y.alive[n] = term_a
    y.defaulted[n] = term_d
    dt = lattice.dt
    iters = 0
    for step in reversed(range(n)):
        m_a, z_a, k_a, m_d, z_d = lattice.layer_regression(step, y.alive[step + 1],
                                                           y.defaulted[step + 1])
        ctx = lattice.step_context(step, False)
        c_a, it = implicit_continuation(ctx, d, m_a, z_a, k_a, dt, picard_tol, max_iter)
        iters += it
        y.alive[step] = c_a
        z.alive[step] = z_a
        kf.alive[step] = k_a
        if lattice.defaulted_size(step):
            ctx_d = lattice.step_context(step, True)
            kd = np.zeros_like(m_d)
            c_d, it = implicit_continuation(ctx_d, d, m_d, z_d, kd, dt, picard_tol, max_iter)
            iters += it
            y.defaulted[step] = c_d
            z.defaulted[step] = z_d
    return BsdeSolution(lattice=lattice, y=y, z=z, k=kf, terminal_step=n, iterations=iters)


@dataclass
class ReflectedSolution:
    """Every node field of one reflected solve, each stored."""

    lattice: Lattice
    y: NodeField
    z: NodeField
    k: NodeField
    da: NodeField
    dap: NodeField
    continuation: NodeField
    xi: NodeField
    zeta: NodeField
    iterations: int

    @property
    def y0(self) -> float:
        return self.y.root


def solve_drbsde(lattice: Lattice, d: Driver, p: PayoffSpec, *,
                 picard_tol: float = PICARD_TOL,
                 max_iter: int = PICARD_MAX_ITER) -> ReflectedSolution:
    """Backward reflected solve.

    Per layer: continuation c solves c = E[Y'] + g(t,c,Z,K) dt,
    then Y = clip(c, xi, zeta) and the increments are the exact projection
    residuals dA = (xi-c)^+ on {c < xi}, dA' = (c-zeta)^+ on {c > zeta}.
    """
    require_contraction(d, lattice)
    xi, zeta = p.layers(lattice)
    n = lattice.n_steps
    y = NodeField.zeros(lattice)
    z = NodeField.zeros(lattice)
    kf = NodeField.zeros(lattice)
    da = NodeField.zeros(lattice)
    dap = NodeField.zeros(lattice)
    cont = NodeField.zeros(lattice)
    y.alive[n] = xi.alive[n].copy()
    y.defaulted[n] = xi.defaulted[n].copy()
    cont.alive[n] = xi.alive[n].copy()
    cont.defaulted[n] = xi.defaulted[n].copy()
    dt = lattice.dt
    iters = 0
    for step in reversed(range(n)):
        m_a, z_a, k_a, m_d, z_d = lattice.layer_regression(step, y.alive[step + 1],
                                                           y.defaulted[step + 1])
        for defaulted, base, zl, kl in ((False, m_a, z_a, k_a),
                                        (True, m_d, z_d, np.zeros_like(m_d))):
            if base.size == 0:
                continue
            ctx = lattice.step_context(step, defaulted)
            c, it = implicit_continuation(ctx, d, base, zl, kl, dt, picard_tol, max_iter)
            iters += it
            lo = xi.layer(step, defaulted)
            hi = zeta.layer(step, defaulted)
            yv = np.clip(c, lo, hi)
            if defaulted:
                y.defaulted[step] = yv
                z.defaulted[step] = zl
                cont.defaulted[step] = c
                da.defaulted[step] = np.where(c < lo, lo - c, 0.0)
                dap.defaulted[step] = np.where(c > hi, c - hi, 0.0)
            else:
                y.alive[step] = yv
                z.alive[step] = zl
                kf.alive[step] = k_a
                cont.alive[step] = c
                da.alive[step] = np.where(c < lo, lo - c, 0.0)
                dap.alive[step] = np.where(c > hi, c - hi, 0.0)
    return ReflectedSolution(lattice=lattice, y=y, z=z, k=kf, da=da, dap=dap,
                             continuation=cont, xi=xi, zeta=zeta, iterations=iters)
