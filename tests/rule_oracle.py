"""Stopping rules that no command builds, for the certificate tests.

The commands stop by the first-hit rules `gamehedge.hedging.stopping_time`
reads off the solved surface.  The certificate tests also step the wealth
under rules built another way: from caller flags (say, stop only at the
horizon), and sigma_bar, the first node where the upper reflecting
increment acts.  Both give the `StoppingRule` the certificate takes.
"""

import numpy as np

from gamehedge import DrbsdeSolution, Lattice, NodeField, PayoffSpec, StoppingRule


def rule_from_flags(lattice: Lattice, flags: NodeField, p: PayoffSpec,
                    kind: str = "user", eps: float | None = None) -> StoppingRule:
    """The rule that stops at the flagged nodes and at the horizon."""
    xi, zeta = p.layers(lattice)
    flags = NodeField([np.asarray(a, dtype=bool).copy() for a in flags.alive],
                      [np.asarray(d, dtype=bool).copy() for d in flags.defaulted])
    n = lattice.n_steps
    flags.alive[n][:] = True
    flags.defaulted[n][:] = True
    return StoppingRule(flags=flags, kind=kind, eps=eps, xi=xi, zeta=zeta)


def sigma_bar_rule(sol: DrbsdeSolution, p: PayoffSpec) -> StoppingRule:
    """Stop at the first node whose upper reflecting increment acts.

    There the continuation exceeds the barrier, so Y sits on it; stopping
    then keeps the upper increment at zero along the stopped trajectory,
    which is all the dominance argument needs.
    """
    flags = NodeField([a > 0 for a in sol.dap.alive],
                      [d > 0 for d in sol.dap.defaulted])
    return rule_from_flags(sol.lattice, flags, p, kind="user")
