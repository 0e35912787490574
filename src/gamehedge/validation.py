"""Executable stability estimates.

Two solved instances on the same lattice and barriers, differing only in
the generator, satisfy a weighted quadratic bound: the squared value gap
at every node is controlled by the conditional expectation of the squared
generator gap accumulated over the remaining steps.  Both sides are
computed exactly on the lattice (backward accumulation, no sampling), so
the check is an inequality between two known numbers per node.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .drbsde import DrbsdeSolution
from .drivers import Driver
from .errors import InvalidParams, MismatchedInstances
from .lattice import Lattice, NodeField

_REL_SLACK = 1e-12


@dataclass(frozen=True)
class EstimateParams:
    """Weight pair (eta, beta) admissible for a given generator constant.

    Requires beta >= 3/eta + 2C and eta <= 1/C^2; the boundary choice
    eta = 1/C^2, beta = 3C^2 + 2C is admissible by construction (a float
    cushion keeps the reciprocal round trip from rejecting it).
    """

    eta: float
    beta: float
    lambda_constant: float

    def __post_init__(self):
        c = self.lambda_constant
        if not (self.eta > 0.0 and self.beta > 0.0 and c >= 0.0):
            raise InvalidParams("need eta > 0, beta > 0, lambda_constant >= 0")
        slack_b = _REL_SLACK * (1.0 + abs(self.beta))
        if c > 0.0:
            if self.eta > (1.0 + _REL_SLACK) / (c * c):
                raise InvalidParams(f"eta = {self.eta} exceeds 1/C^2 = {1.0 / (c * c)}")
        if self.beta + slack_b < 3.0 / self.eta + 2.0 * c:
            raise InvalidParams(
                f"beta = {self.beta} below 3/eta + 2C = {3.0 / self.eta + 2.0 * c}")

    @classmethod
    def for_constant(cls, c: float) -> "EstimateParams":
        if not c > 0.0:
            raise InvalidParams("constant must be positive")
        return cls(eta=1.0 / (c * c), beta=3.0 * c * c + 2.0 * c, lambda_constant=c)


def _same_lattice(a: Lattice, b: Lattice) -> bool:
    return a is b or (a.n_steps == b.n_steps
                      and a.lp == b.lp and a.mp == b.mp
                      and np.array_equal(a.lam, b.lam)
                      and np.array_equal(a.r, b.r))


def _same_field(a: NodeField, b: NodeField) -> bool:
    return (all(np.array_equal(x, y) for x, y in zip(a.alive, b.alive))
            and all(np.array_equal(x, y) for x, y in zip(a.defaulted, b.defaulted)))


def _accumulate(lattice: Lattice, inc: NodeField) -> NodeField:
    """R_n = inc_n and R_k = inc_k + E[R_{k+1} | node], exact backward
    accumulation, in place: inc is returned holding R.

    Layers may carry trailing axes; the regression is elementwise, so each
    column accumulates exactly as it would alone.
    """
    for k in reversed(range(lattice.n_steps)):
        m_a, _, _, m_d, _ = lattice.layer_regression(k, inc.alive[k + 1],
                                                     inc.defaulted[k + 1])
        inc.alive[k] += m_a
        if m_d.size:
            inc.defaulted[k] += m_d
    return inc


@dataclass
class AprioriReport:
    applies: bool
    skipped_reason: str | None
    max_violation: float            # max over nodes of lhs - eta * rhs
    nodewise_ok: bool
    norm_y_sq: float
    norm_f_sq: float
    norm_y_ok: bool
    zk_norm_sq: float | None
    zk_bound: float | None
    zk_ok: bool | None
    tol: float

    @property
    def ok(self) -> bool:
        if not self.applies:
            return True
        return self.nodewise_ok and self.norm_y_ok and self.zk_ok is not False


def apriori_check(sol1: DrbsdeSolution, sol2: DrbsdeSolution,
                  d1: Driver, d2: Driver, ep: EstimateParams) -> AprioriReport:
    """Weighted stability bound between two solves that share barriers.

    The generator gap is evaluated at the second solution, per node:
    fbar = d1(t, Y2, Z2, K2) - d2(t, Y2, Z2, K2).  Checks, all exact on
    the lattice:
      nodewise   e^{beta t} (Y1-Y2)^2 <= eta * E[sum_s e^{beta s} fbar^2 dt | node]
      integrated |Y1-Y2|_beta^2 <= T eta |fbar|_beta^2
      integrated |Z1-Z2|_beta^2 + |K1-K2|_{lam,beta}^2 <= eta/(1-eta C^2) |fbar|_beta^2
    with the last only when eta < 1/C^2 strictly.
    """
    lattice = sol1.lattice
    if not _same_lattice(lattice, sol2.lattice):
        raise MismatchedInstances("solutions live on different lattices")
    if ep.lambda_constant + _REL_SLACK < d1.lambda_constant:
        raise InvalidParams(
            f"estimate constant {ep.lambda_constant} below the driver's "
            f"{d1.lambda_constant}")
    if not (_same_field(sol1.xi, sol2.xi) and _same_field(sol1.zeta, sol2.zeta)):
        return AprioriReport(applies=False,
                             skipped_reason="barriers differ; the bound covers "
                                            "generator perturbations only",
                             max_violation=0.0, nodewise_ok=True,
                             norm_y_sq=0.0, norm_f_sq=0.0, norm_y_ok=True,
                             zk_norm_sq=None, zk_bound=None, zk_ok=None, tol=0.0)

    n = lattice.n_steps
    dt = lattice.dt
    eta, beta = ep.eta, ep.beta

    # per node, the (f, y, zk) increments on a trailing axis (zero at the
    # terminal layer), accumulated at once and in place
    inc = NodeField([np.zeros((k + 1, 3)) for k in range(n + 1)],
                    [np.zeros((lattice.defaulted_size(k), 3)) for k in range(n + 1)])
    for k in range(n):
        w = np.exp(beta * lattice.t(k))
        for defaulted in (False, True):
            y2 = sol2.y.layer(k, defaulted)
            if y2.size == 0:
                continue
            ctx = lattice.step_context(k, defaulted)
            z2 = sol2.z.layer(k, defaulted)
            k2 = sol2.k.layer(k, defaulted)
            fbar = d1(ctx, y2, z2, k2) - d2(ctx, y2, z2, k2)
            ybar = sol1.y.layer(k, defaulted) - y2
            zbar = sol1.z.layer(k, defaulted) - z2
            kbar = sol1.k.layer(k, defaulted) - k2
            lam = 0.0 if defaulted else float(lattice.lam[k])
            out = inc.layer(k, defaulted)
            out[:, 0] = w * fbar * fbar * dt
            out[:, 1] = w * ybar * ybar * dt
            out[:, 2] = w * (zbar * zbar + lam * kbar * kbar) * dt

    acc = _accumulate(lattice, inc)
    norm_f_sq, norm_y_sq, zk_root = (float(v) for v in acc.alive[0][0])

    max_violation = -np.inf
    scale = 0.0
    for k in range(n + 1):
        w = np.exp(beta * lattice.t(k))
        for defaulted in (False, True):
            y2 = sol2.y.layer(k, defaulted)
            if y2.size == 0:
                continue
            ybar = sol1.y.layer(k, defaulted) - y2
            lhs = w * ybar * ybar
            rhs = eta * acc.layer(k, defaulted)[:, 0]
            gap = lhs - rhs
            if gap.size:
                max_violation = max(max_violation, float(np.max(gap)))
                scale = max(scale, float(np.max(rhs)), float(np.max(lhs)))
    tol = _REL_SLACK * (1.0 + scale)
    nodewise_ok = max_violation <= tol

    horizon = lattice.lp.horizon
    norm_y_ok = norm_y_sq <= horizon * eta * norm_f_sq + tol

    c = ep.lambda_constant
    if c > 0.0 and eta * c * c < 1.0 - 1e-9:
        zk_norm_sq = zk_root
        zk_bound = eta / (1.0 - eta * c * c) * norm_f_sq
        zk_ok = zk_norm_sq <= zk_bound + tol
    else:
        zk_norm_sq, zk_bound, zk_ok = None, None, None

    return AprioriReport(applies=True, skipped_reason=None,
                         max_violation=max_violation, nodewise_ok=nodewise_ok,
                         norm_y_sq=norm_y_sq, norm_f_sq=norm_f_sq,
                         norm_y_ok=norm_y_ok, zk_norm_sq=zk_norm_sq,
                         zk_bound=zk_bound, zk_ok=zk_ok, tol=tol)
