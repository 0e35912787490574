"""Reference robust certificate: every lattice path under every adapted control.

A model of an ambiguity family is an adapted control: a grid value chosen
afresh at each node from what the path has shown so far.  Here each state
is one lattice path together with one sequence of grid controls along it.
At every unstopped node the state branches on every grid member and then
on every market move, so the states cover every path-adapted control.  The
worst slacks over all states are the worst over all such controls.

Nothing here comes from `gamehedge.hedging.simulate_wealth`: the members
step each state's own wealth, and no envelope and no node minimum is
taken.  The strategy's integrands come from `integrands_of`, so both sides
step with the same (Z, K).
"""

from dataclasses import replace

import numpy as np

from gamehedge import AmbiguityFamily, Lattice, NodeField
from gamehedge.hedging import StoppingRule, Strategy, integrands_of


def worst_slacks(x0: float, strat: Strategy, fam: AmbiguityFamily, lattice: Lattice,
                 rule: StoppingRule, reference: NodeField) -> tuple[float, float, float]:
    """(xi, stop, reference) worst slacks over every path and every control.

    The xi and reference slacks are taken at every node a state reaches up
    to and including its stop node; the stop slack V - zeta (+ eps for
    sigma_eps) at the stop node.  Terminal nodes always stop.
    """
    n = lattice.n_steps
    dt, s = lattice.dt, lattice.sqrt_dt
    eps_adj = rule.eps if rule.kind == "sigma_eps" and rule.eps else 0.0
    members = fam.members()

    j = np.zeros(1, dtype=np.int64)
    dead = np.zeros(1, dtype=bool)
    v = np.full(1, float(x0))
    worst_xi = worst_stop = worst_ref = np.inf

    for k in range(n + 1):
        nxt = []
        for defaulted in (False, True):
            sel = dead == defaulted
            if not sel.any():
                continue
            jj, vv = j[sel], v[sel]
            worst_xi = min(worst_xi, float(np.min(vv - rule.xi.layer(k, defaulted)[jj])))
            worst_ref = min(worst_ref, float(np.min(vv - reference.layer(k, defaulted)[jj])))
            stop = rule.flags.layer(k, defaulted)[jj] | (k == n)
            if stop.any():
                zeta = rule.zeta.layer(k, defaulted)[jj[stop]]
                worst_stop = min(worst_stop, float(np.min(vv[stop] - zeta + eps_adj)))
            jj, vv = jj[~stop], vv[~stop]
            if jj.size == 0:
                continue

            ctx = lattice.step_context(k, defaulted)
            pctx = replace(ctx, s1=ctx.s1[jj], s2=ctx.s2[jj])
            z, kk = (a[jj] for a in integrands_of(strat, lattice.mp, k, defaulted))
            q = float(lattice.q[k])
            if not defaulted and q > 0.0:
                moves = [(1, s, -q, False), (0, -s, -q, False), (0, 0.0, 1.0 - q, True)]
            else:
                moves = [(1, s, 0.0, defaulted), (0, -s, 0.0, defaulted)]
            for member in members:
                base = vv - member(pctx, vv, z, kk) * dt
                for dj, dw, dm, to_dead in moves:
                    nxt.append((jj + dj, np.full(jj.size, to_dead), base + z * dw + kk * dm))
        if nxt:
            j, dead, v = (np.concatenate(part) for part in zip(*nxt))

    return worst_xi, worst_stop, worst_ref
