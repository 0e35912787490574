"""Reference super-hedge certificate: the path enumeration the node sweep replaced.

`simulate_wealth` and `WealthReport` as they stood before
`gamehedge.hedging.simulate_wealth` became a recombining minimum-wealth
sweep, kept verbatim: every one of the 2^n + D_n lattice paths carries its
own wealth, trajectory and slacks.  The property tests compare the node
sweep against this bit for bit on the worst slacks and the path count.
"""

from dataclasses import dataclass, replace

import numpy as np

from gamehedge import Driver, Lattice, NodeField, TooLarge
from gamehedge.bsde import require_contraction
from gamehedge.hedging import StoppingRule, Strategy, integrands_of


@dataclass
class WealthReport:
    """Per-path outcome of a forward wealth simulation."""

    trajectory: np.ndarray          # (n_paths, n_steps+1)
    stop_step: np.ndarray           # (n_paths,)
    min_slack_xi: np.ndarray        # min over [0, stop] of V - xi
    stop_slack: np.ndarray          # V - zeta at stop (+ eps for sigma_eps rules)
    min_slack_ref: np.ndarray       # min over [0, stop] of V - reference, inf if unused
    violations: int
    tol: float

    @property
    def n_paths(self) -> int:
        return self.trajectory.shape[0]

    @property
    def ok(self) -> bool:
        return self.violations == 0

    @property
    def worst_xi_slack(self) -> float:
        return float(np.min(self.min_slack_xi))

    @property
    def worst_stop_slack(self) -> float:
        return float(np.min(self.stop_slack))

    @property
    def worst_ref_slack(self) -> float:
        return float(np.min(self.min_slack_ref))


def simulate_wealth(x0: float, strat: Strategy, d: Driver, lattice: Lattice,
                    rule: StoppingRule, *, tol: float = 1e-12,
                    reference: NodeField | None = None,
                    max_paths: int = 1 << 20) -> WealthReport:
    """Step the self-financing wealth along every lattice path.

    V' = V - g(t, V, Z, K) dt + Z dW + K dM with (Z, K) read from the
    strategy, each path frozen once its rule fires.  Slacks against the
    rule's barriers are accumulated up to and including the stop node.
    """
    require_contraction(d, lattice)
    mp = lattice.mp
    n = lattice.n_steps
    dt, s = lattice.dt, lattice.sqrt_dt

    j = np.zeros(1, dtype=np.int64)
    dead = np.zeros(1, dtype=bool)
    v = np.full(1, float(x0))
    stopped = np.zeros(1, dtype=bool)
    stop_step = np.full(1, -1, dtype=np.int64)
    stop_slack = np.full(1, np.inf)
    min_xi = np.full(1, np.inf)
    min_ref = np.full(1, np.inf)
    traj = np.full((1, 1), float(x0))

    eps_adj = rule.eps if rule.kind == "sigma_eps" and rule.eps else 0.0

    for k in range(n + 1):
        for defaulted in (False, True):
            sel = np.nonzero(dead == defaulted)[0]
            if sel.size == 0:
                continue
            jj = j[sel]
            act = ~stopped[sel]
            if not act.any():
                continue
            xi_l = rule.xi.layer(k, defaulted)
            zeta_l = rule.zeta.layer(k, defaulted)
            upd = sel[act]
            slack = v[upd] - xi_l[j[upd]]
            min_xi[upd] = np.minimum(min_xi[upd], slack)
            if reference is not None:
                ref_l = reference.layer(k, defaulted)
                min_ref[upd] = np.minimum(min_ref[upd], v[upd] - ref_l[j[upd]])
            fl = rule.flags.layer(k, defaulted)[jj] if k < n else np.ones(sel.size, dtype=bool)
            newly = sel[act & fl]
            if newly.size:
                stopped[newly] = True
                stop_step[newly] = k
                stop_slack[newly] = v[newly] - zeta_l[j[newly]] + eps_adj
        if k == n:
            break

        q = float(lattice.q[k])
        parts = []
        for defaulted in (False, True):
            sel = np.nonzero(dead == defaulted)[0]
            if sel.size == 0:
                continue
            jj = j[sel]
            ctx = lattice.step_context(k, defaulted)
            pctx = replace(ctx, s1=ctx.s1[jj], s2=ctx.s2[jj])
            z_l, k_l = integrands_of(strat, mp, k, defaulted)
            zz, kk = z_l[jj], k_l[jj]
            act = (~stopped[sel]).astype(float)
            gval = d(pctx, v[sel], zz, kk)
            base = v[sel] - gval * dt * act
            zz, kk = zz * act, kk * act
            if not defaulted and q > 0.0:
                dw = np.array([s, -s, 0.0])
                dm = np.array([-q, -q, 1.0 - q])
                dj = np.array([1, 0, 0], dtype=np.int64)
                dd = np.array([False, False, True])
            else:
                dw = np.array([s, -s])
                dm = np.array([0.0, 0.0])
                dj = np.array([1, 0], dtype=np.int64)
                dd = np.array([defaulted, defaulted])
            nb = dw.shape[0]
            rep = np.repeat(np.arange(sel.size), nb)
            br = np.tile(np.arange(nb), sel.size)
            parts.append((
                jj[rep] + dj[br],
                dd[br],
                base[rep] + zz[rep] * dw[br] + kk[rep] * dm[br],
                stopped[sel][rep],
                stop_step[sel][rep],
                stop_slack[sel][rep],
                min_xi[sel][rep],
                min_ref[sel][rep],
                traj[sel][rep],
            ))
        j = np.concatenate([p[0] for p in parts])
        if j.shape[0] > max_paths:
            raise TooLarge(f"path count {j.shape[0]} exceeds {max_paths}")
        dead = np.concatenate([p[1] for p in parts])
        v = np.concatenate([p[2] for p in parts])
        stopped = np.concatenate([p[3] for p in parts])
        stop_step = np.concatenate([p[4] for p in parts])
        stop_slack = np.concatenate([p[5] for p in parts])
        min_xi = np.concatenate([p[6] for p in parts])
        min_ref = np.concatenate([p[7] for p in parts])
        traj = np.hstack([np.vstack([p[8] for p in parts]), v[:, None]])

    violations = int(np.sum((min_xi < -tol) | (stop_slack < -tol)))
    return WealthReport(trajectory=traj, stop_step=stop_step, min_slack_xi=min_xi,
                        stop_slack=stop_slack, min_slack_ref=min_ref,
                        violations=violations, tol=tol)
