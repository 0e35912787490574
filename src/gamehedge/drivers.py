"""Nonlinear generators g(t, y, z, k) and their admissibility audits.

A driver is admissible when it is Lipschitz in (y, z) and Lipschitz in the
jump integrand k with weight sqrt(lam_t), so that any k-dependence dies
with the intensity.  Audits probe user closures numerically on grids; the
builtins carry constants computed from their coefficients.

Audit cost.  `audit_driver` evaluates g on the m = 125 probes of
AUDIT_PROBES at every (step, default-status) context, one column per node of
the layer: O(n * m * width).  The pair pass, over the m(m-1)/2 probe
pairs, costs O(m^2) per column, and runs on far fewer contexts:

- Node columns that are bitwise equal collapse to one column.  No
  builtin reads s1 or s2, so their width is 1; a driver that does keeps
  every column.
- A single-column context is keyed on (lam, the bytes of its values),
  which is everything the pair pass reads apart from t and the default
  status.  Those two enter only the `worst` record, which is replaced on a
  strict improvement; a later context with the same key reproduces the
  same maxima and minima, improves nothing, and is skipped.  Steps whose
  rate, intensity or shift differ give different bytes and get their own
  pass.  Full-width contexts are not keyed, so stored keys stay at m
  floats each; they seldom repeat anyway, as only alive step k and
  defaulted step k+1 share a width.

Total: O(n * m * width + distinct contexts * m^2).  The result equals a
pass over every context and every column, field by field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import AuditFailure, EmptyGrid, InvalidParams
from .lattice import Lattice, MarketParams, StepContext

LIPSCHITZ_SLACK = 1e-9
ROYER_TOL = 1e-9


@dataclass(frozen=True)
class Driver:
    """Generator g with its declared admissibility constant.

    fn(ctx, y, z, k) must vectorize elementwise over numpy arrays and must
    read the intensity from ctx.lam (0 after default).  lambda_constant is
    an upper bound C on the Lipschitz ratio
    |dg| / (|dy| + |dz| + sqrt(lam)|dk|); audits check it, solvers use it
    for the contraction condition C*dt < 1.
    """

    fn: Callable
    lambda_constant: float
    zero_at_zero: bool = False
    label: str = ""

    def __call__(self, ctx: StepContext, y, z, k):
        return self.fn(ctx, y, z, k)

    def shifted(self, offset: Callable) -> "Driver":
        """g + offset(ctx): evaluation-point-free perturbation, same constant."""
        base = self.fn
        return Driver(
            fn=lambda ctx, y, z, k: base(ctx, y, z, k) + offset(ctx),
            lambda_constant=self.lambda_constant,
            zero_at_zero=False,
            label=f"{self.label}+shift" if self.label else "shifted",
        )


def _coefficient_rows(mp: MarketParams):
    r = np.atleast_1d(np.asarray(mp.r, dtype=float))
    lam = np.atleast_1d(np.asarray(mp.lambda_bar, dtype=float))
    n = max(r.shape[0], lam.shape[0])
    r = np.broadcast_to(r, (n,)) if r.shape[0] in (1, n) else r
    lam = np.broadcast_to(lam, (n,)) if lam.shape[0] in (1, n) else lam
    if r.shape != lam.shape:
        raise InvalidParams("r and lambda_bar step sequences must have equal length")
    return r, lam


def _perfect_coefficients(mp: MarketParams):
    """Per-step (r, theta1, jump coefficient theta2*lam) and the constant bound."""
    r, lam = _coefficient_rows(mp)
    th1 = (mp.mu1 - r) / mp.sigma1
    jump = np.where(lam > 0, mp.sigma2 * th1 - mp.mu2 + r, 0.0)
    # |theta2| * sqrt(lam) = |jump| / sqrt(lam) on steps with intensity
    with np.errstate(divide="ignore", invalid="ignore"):
        k_coef = np.where(lam > 0, np.abs(jump) / np.sqrt(np.where(lam > 0, lam, 1.0)), 0.0)
    c = float(np.max(np.maximum.reduce([np.abs(r), np.abs(th1), k_coef])))
    return c


def make_builtin_driver(kind: str, mp: MarketParams, *, borrow_rate: float | None = None,
                        tax_rate: float | None = None) -> Driver:
    """Builtin generators.

    perfect      g = -r y - theta1 z - theta2 k lam  (linear wealth dynamics)
    borrow_lend  perfect + (R - r) (y - phi1 - phi2)^-, borrowing at R >= r
    tax          perfect + rho (phi1 + phi2)^+, rho in (0, 1)

    The portfolio amounts are recovered from the integrands in closed form:
    phi2 = -k, phi1 = (z + sigma2 k) / sigma1, with the k terms active only
    while the intensity is positive.
    """
    s1, s2 = mp.sigma1, mp.sigma2
    r_steps, lam_steps = _coefficient_rows(mp)
    c_perfect = _perfect_coefficients(mp)

    def perfect(ctx, y, z, k):
        th1 = (mp.mu1 - ctx.r) / s1
        jump = (s2 * th1 - mp.mu2 + ctx.r) if ctx.lam > 0 else 0.0
        return -ctx.r * y - th1 * z - jump * k

    if kind == "perfect":
        return Driver(perfect, c_perfect, zero_at_zero=True, label="perfect")

    if kind == "borrow_lend":
        if borrow_rate is None:
            raise InvalidParams("borrow_lend needs borrow_rate")
        rr = float(borrow_rate)
        if not math.isfinite(rr):
            raise InvalidParams(f"borrow_rate must be finite, got {rr!r}")
        if np.any(rr < r_steps):
            raise InvalidParams("borrow rate must dominate the lending rate")
        spread = rr - r_steps
        with np.errstate(divide="ignore"):
            k_extra = np.where(
                lam_steps > 0,
                spread * abs(s2 / s1 - 1.0) / np.sqrt(np.where(lam_steps > 0, lam_steps, 1.0)),
                0.0,
            )
        c = c_perfect + float(np.max(np.maximum.reduce([spread, spread / s1, k_extra])))

        def borrow(ctx, y, z, k):
            live = 1.0 if ctx.lam > 0 else 0.0
            phi2 = -k * live
            phi1 = (z + s2 * k * live) / s1
            short = np.maximum(-(y - phi1 - phi2), 0.0)
            return perfect(ctx, y, z, k) + (rr - ctx.r) * short

        return Driver(borrow, c, zero_at_zero=True, label="borrow_lend")

    if kind == "tax":
        if tax_rate is None:
            raise InvalidParams("tax needs tax_rate")
        rho = float(tax_rate)
        if not 0.0 < rho < 1.0:
            raise InvalidParams("tax rate must lie in (0, 1)")
        with np.errstate(divide="ignore"):
            k_extra = np.where(
                lam_steps > 0,
                rho * abs(s2 / s1 - 1.0) / np.sqrt(np.where(lam_steps > 0, lam_steps, 1.0)),
                0.0,
            )
        c = c_perfect + max(rho / s1, float(np.max(k_extra)))

        def tax(ctx, y, z, k):
            live = 1.0 if ctx.lam > 0 else 0.0
            phi2 = -k * live
            phi1 = (z + s2 * k * live) / s1
            invested = np.maximum(phi1 + phi2, 0.0)
            return perfect(ctx, y, z, k) + rho * invested

        return Driver(tax, c, zero_at_zero=True, label="tax")

    raise InvalidParams(f"unknown builtin driver kind: {kind!r}")


# The probes of every numerical audit: rows (y, z, k) on a 5-point grid of
# [-2, 2] per axis, m = 125, in meshgrid "ij" order.
AUDIT_PROBES = np.stack([m.ravel() for m in np.meshgrid(
    *[np.linspace(-2.0, 2.0, 5)] * 3, indexing="ij")], axis=1)
AUDIT_PROBES.flags.writeable = False


@dataclass
class AuditReport:
    declared_constant: float
    max_ratio: float
    gamma_min: float | None
    royer_ok: bool
    k_independent_after_default: bool
    max_post_default_k_dependence: float
    worst: dict | None = field(default=None)

    @property
    def lipschitz_ok(self) -> bool:
        return self.max_ratio <= self.declared_constant * (1.0 + LIPSCHITZ_SLACK) + 1e-12

    @property
    def ok(self) -> bool:
        return self.lipschitz_ok and self.royer_ok and self.k_independent_after_default

    def require(self) -> "AuditReport":
        if not self.lipschitz_ok:
            raise AuditFailure(
                f"Lipschitz ratio {self.max_ratio:.6g} exceeds declared "
                f"constant {self.declared_constant:.6g}", probe=self.worst)
        if not self.royer_ok:
            raise AuditFailure(
                f"jump monotonicity fails: gamma_min = {self.gamma_min:.6g} <= -1",
                probe=self.worst)
        if not self.k_independent_after_default:
            raise AuditFailure(
                f"driver depends on k where the intensity is zero "
                f"(max deviation {self.max_post_default_k_dependence:.3g})",
                probe=self.worst)
        return self


def _eval_grid(d: Driver, ctx: StepContext, probes: np.ndarray) -> np.ndarray:
    """g on every probe (rows) at every node of the layer (columns).

    When every node column is bitwise equal to column 0, one column stands
    for all of them: each quantity the audit takes from the grid is a max,
    min or first argmax over rows and columns, which identical columns
    cannot change.  A driver that reads s1 or s2 keeps its full width.
    """
    width = max(ctx.s1.shape[0], 1)
    out = np.asarray(d(ctx, probes[:, 0:1], probes[:, 1:2], probes[:, 2:3]), dtype=float)
    vals = np.broadcast_to(out, (probes.shape[0], width))
    bits = vals.view(np.uint64)
    if np.all(bits == bits[:, :1]):
        return np.ascontiguousarray(vals[:, :1])
    return vals.copy()


def audit_driver(d: Driver, lattice: Lattice) -> AuditReport:
    """Probe d on every step context and report admissibility measurements.

    The Lipschitz ratio is maximized over all probe pairs; the jump
    monotonicity quotient gamma = dg / (dk * lam) is minimized over pairs
    that differ only in k at contexts with positive intensity; at contexts
    with zero intensity those pairs must leave g unchanged.

    g is evaluated at every context; the pair pass runs once per distinct
    single-column (lam, values) key, see the module docstring.
    """
    probes = AUDIT_PROBES
    ia, ib = np.triu_indices(probes.shape[0], k=1)
    dy = np.abs(probes[ia, 0] - probes[ib, 0])
    dz = np.abs(probes[ia, 1] - probes[ib, 1])
    dk = probes[ia, 2] - probes[ib, 2]
    konly = (dy == 0) & (dz == 0) & (np.abs(dk) > 0)
    dk_konly = dk[konly][:, None]

    max_ratio = 0.0
    gamma_min: float | None = None
    max_k_dep = 0.0
    worst: dict | None = None
    g_scale = 0.0
    seen: set = set()

    for step in range(lattice.n_steps):
        statuses = [False]
        if lattice.defaulted_size(step) > 0:
            statuses.append(True)
        for defaulted in statuses:
            ctx = lattice.step_context(step, defaulted)
            vals = _eval_grid(d, ctx, probes)
            g_scale = max(g_scale, float(np.max(np.abs(vals))))
            if vals.shape[1] == 1:
                key = (ctx.lam, vals.tobytes())
                if key in seen:
                    continue
                seen.add(key)

            diff = vals[ia] - vals[ib]
            num = np.abs(diff)
            den = dy + dz + math.sqrt(ctx.lam) * np.abs(dk)
            pos = den > 0
            if np.any(pos):
                ratios = num[pos, :] / den[pos][:, None]
                idx = np.unravel_index(np.argmax(ratios), ratios.shape)
                if ratios[idx] > max_ratio:
                    max_ratio = float(ratios[idx])
                    pair = np.nonzero(pos)[0][idx[0]]
                    a, b = ia[pair], ib[pair]
                    worst = {"t": ctx.t, "defaulted": defaulted,
                             "p1": probes[a].tolist(), "p2": probes[b].tolist(),
                             "ratio": float(ratios[idx])}

            if np.any(konly):
                if ctx.lam > 0:
                    quot = diff[konly, :] / (dk_konly * ctx.lam)
                    gmin = float(np.min(quot))
                    if gamma_min is None or gmin < gamma_min:
                        gamma_min = gmin
                else:
                    dep = float(np.max(num[konly, :]))
                    if dep > max_k_dep:
                        max_k_dep = dep

    k_free = max_k_dep <= 1e-12 * (1.0 + g_scale)
    royer_ok = gamma_min is None or gamma_min > -1.0 + ROYER_TOL
    return AuditReport(
        declared_constant=d.lambda_constant,
        max_ratio=max_ratio,
        gamma_min=gamma_min,
        royer_ok=royer_ok,
        k_independent_after_default=k_free,
        max_post_default_k_dependence=max_k_dep,
        worst=worst,
    )


@dataclass(frozen=True)
class AmbiguityFamily:
    """Finite grid of controls alpha with a common generator family.

    fn(ctx, y, z, k, alpha) must vectorize in both the state arguments and
    alpha; lambda_constant bounds every member uniformly (and hence the
    upper envelope as well).
    """

    u_grid: tuple[float, ...]
    fn: Callable
    lambda_constant: float
    label: str = ""

    def __post_init__(self):
        if len(self.u_grid) == 0:
            raise EmptyGrid("ambiguity grid is empty")

    def __len__(self) -> int:
        return len(self.u_grid)

    def member(self, index: int) -> Driver:
        alpha = self.u_grid[index]
        return Driver(
            fn=lambda ctx, y, z, k: self.fn(ctx, y, z, k, alpha),
            lambda_constant=self.lambda_constant,
            label=f"{self.label or 'family'}[alpha={alpha!r}]",
        )

    def members(self) -> list[Driver]:
        return [self.member(i) for i in range(len(self.u_grid))]

    def stacked(self, ctx, y, z, k) -> np.ndarray:
        """Values for every alpha on a new leading axis, from one call of fn."""
        ndim = np.ndim(np.broadcast(y, z, k))
        grid = np.asarray(self.u_grid, dtype=float).reshape((-1,) + (1,) * ndim)
        vals = np.asarray(self.fn(ctx, y, z, k, grid), dtype=float)
        return np.broadcast_to(vals, np.broadcast_shapes(vals.shape, grid.shape))

    def sup_driver(self) -> Driver:
        def envelope(ctx, y, z, k):
            return np.max(self.stacked(ctx, y, z, k), axis=0)

        return Driver(envelope, self.lambda_constant,
                      label=f"sup({self.label or 'family'})")


def audit_family(fam: AmbiguityFamily, lattice: Lattice) -> list[AuditReport]:
    """Audit every member; the envelope inherits the worst constant."""
    return [audit_driver(d, lattice) for d in fam.members()]
