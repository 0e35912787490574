"""The driver audit as it stood before the O(distinct contexts) rewrite.

Kept verbatim as an independent oracle: it builds the full m x m x width
probe-pair arrays for every (step, default-status) context and shares no
code with `gamehedge.drivers.audit_driver` beyond the report type; its
probe grid is its own copy of the spec the audit used to take.  Tests require the two to give field-by-field equal reports.
"""

import math

import numpy as np

from dataclasses import dataclass

from gamehedge.drivers import ROYER_TOL, AuditReport, Driver
from gamehedge.lattice import Lattice, StepContext


@dataclass(frozen=True)
class AuditSpec:
    """Probe grid for numerical admissibility checks."""

    y_range: tuple[float, float] = (-2.0, 2.0)
    z_range: tuple[float, float] = (-2.0, 2.0)
    k_range: tuple[float, float] = (-2.0, 2.0)
    points: int = 5

    def grid(self) -> np.ndarray:
        axes = [np.linspace(*rng, self.points) for rng in (self.y_range, self.z_range, self.k_range)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


def _eval_grid(d: Driver, ctx: StepContext, probes: np.ndarray) -> np.ndarray:
    width = max(ctx.s1.shape[0], 1)
    y = probes[:, 0:1]
    z = probes[:, 1:2]
    k = probes[:, 2:3]
    out = d(ctx, y, z, k)
    out = np.asarray(out, dtype=float)
    return np.broadcast_to(out, (probes.shape[0], width)).copy()


def audit_driver(d: Driver, lattice: Lattice, spec: AuditSpec | None = None) -> AuditReport:
    """Probe d on every step context and report admissibility measurements.

    The Lipschitz ratio is maximized over all probe pairs; the jump
    monotonicity quotient gamma = dg / (dk * lam) is minimized over pairs
    that differ only in k at contexts with positive intensity; at contexts
    with zero intensity those pairs must leave g unchanged.
    """
    spec = spec or AuditSpec()
    probes = spec.grid()
    m = probes.shape[0]
    dy = np.abs(probes[:, None, 0] - probes[None, :, 0])
    dz = np.abs(probes[:, None, 1] - probes[None, :, 1])
    dk = probes[:, None, 2] - probes[None, :, 2]
    same_yz = (dy == 0) & (dz == 0)
    iu = np.triu_indices(m, k=1)

    max_ratio = 0.0
    gamma_min: float | None = None
    max_k_dep = 0.0
    worst: dict | None = None
    g_scale = 0.0

    for step in range(lattice.n_steps):
        statuses = [False]
        if lattice.defaulted_size(step) > 0:
            statuses.append(True)
        for defaulted in statuses:
            ctx = lattice.step_context(step, defaulted)
            vals = _eval_grid(d, ctx, probes)
            g_scale = max(g_scale, float(np.max(np.abs(vals))))
            dg = np.abs(vals[:, None, :] - vals[None, :, :])
            denom = dy + dz + math.sqrt(ctx.lam) * np.abs(dk)

            den = denom[iu]
            num = dg[iu[0], iu[1], :]
            pos = den > 0
            if np.any(pos):
                ratios = num[pos, :] / den[pos][:, None]
                idx = np.unravel_index(np.argmax(ratios), ratios.shape)
                if ratios[idx] > max_ratio:
                    max_ratio = float(ratios[idx])
                    a = iu[0][np.nonzero(pos)[0][idx[0]]]
                    b = iu[1][np.nonzero(pos)[0][idx[0]]]
                    worst = {"t": ctx.t, "defaulted": defaulted,
                             "p1": probes[a].tolist(), "p2": probes[b].tolist(),
                             "ratio": float(ratios[idx])}

            konly = same_yz[iu] & (np.abs(dk[iu]) > 0)
            if np.any(konly):
                num_k = num[konly, :]
                if ctx.lam > 0:
                    signed = (vals[iu[0], :] - vals[iu[1], :])[konly, :]
                    quot = signed / (dk[iu][konly][:, None] * ctx.lam)
                    gmin = float(np.min(quot))
                    if gamma_min is None or gmin < gamma_min:
                        gamma_min = gmin
                else:
                    dep = float(np.max(num_k))
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
