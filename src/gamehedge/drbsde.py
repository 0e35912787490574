"""Doubly reflected backward solver and the stopping-game oracle.

The backward step first solves the unconstrained continuation, then
projects it onto the barrier band [xi, zeta].  The projection residuals
are the reflecting increments, so the complementarity structure
(increments act only on contact, never both at once) holds exactly, by
construction rather than up to a tolerance.

A solution stores what the sweep computes, the continuation c and the
integrands z and k.  The value y = clip(c, xi, zeta) and the increments
are derived per layer on read by the same expressions, so they are the
same bits the sweep produced, and a caller that needs only a root or a
per-layer summary consumes `reflected_sweep` without storing any field.

The brute-force oracle enumerates every adapted stopping rule on a small
tree and values all rule pairs in one vectorized backward sweep; its
max-min and min-max must both match the reflected solve at the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bsde import backward_sweep, implicit_continuation, node_fields, require_contraction
from .drivers import Driver
from .errors import BarrierViolation, TooLarge
from .lattice import DerivedField, Lattice, Node, NodeField

# Bounds of the brute-force oracle: at most 500 stopping rules, so at most
# 250,000 rule pairs.  Every lattice of 5 or more steps has more than 500
# rules (802 at 5 steps without default, more with it), so the step bound
# refuses only what the rule bound would, before a depth-n enumeration.
BRUTEFORCE_MAX_STEPS = 4
BRUTEFORCE_MAX_RULES = 500


def _checked(xi: NodeField, zeta: NodeField) -> tuple[NodeField, NodeField]:
    """Set zeta = xi at the terminal layer, require finite xi <= zeta at
    every node, and freeze the layers (they are shared, never copied)."""
    zeta.alive[-1] = xi.alive[-1].copy()
    zeta.defaulted[-1] = xi.defaulted[-1].copy()
    for k in range(len(xi.alive)):
        for defaulted in (False, True):
            xa, za = xi.layer(k, defaulted), zeta.layer(k, defaulted)
            if xa.size and not ((xa <= za).all() and math.isfinite(xa.min())
                                and math.isfinite(za.max())):
                j = int(np.nonzero(~(np.isfinite(xa) & np.isfinite(za) & (xa <= za)))[0][0])
                x, z = xa[j], za[j]
                at = f"at step {k}, index {j}{' (defaulted)' if defaulted else ''}"
                raise BarrierViolation(
                    f"xi > zeta {at}: {x:.6g} > {z:.6g}"
                    if np.isfinite(x) and np.isfinite(z)
                    else f"non-finite barrier {at}: xi {x:.6g}, zeta {z:.6g}",
                    node=Node(k, j, defaulted))
    for a in xi.alive + xi.defaulted + zeta.alive + zeta.defaulted:
        a.flags.writeable = False
    return xi, zeta


@dataclass(frozen=True)
class PayoffSpec:
    """Barrier pair: exercise value xi and cancellation value zeta.

    Callables take (t, s1, defaulted) and must vectorize in s1.  At the
    terminal layer zeta is overwritten by xi, the payoff the two sides
    agree on at expiry.  Layers must be finite with xi <= zeta, or
    BarrierViolation names the node.  A spec may carry checked read-only
    layers instead (from layers(), reflected() or from_layers()); layers()
    then returns them as they are, never copied.  The layers of a
    reflected spec are derived views of the original's, negated per layer
    on read.
    """

    xi: Callable | None = None
    zeta: Callable | None = None
    xi_layers: NodeField | None = None
    zeta_layers: NodeField | None = None

    @classmethod
    def from_layers(cls, xi_layers: NodeField, zeta_layers: NodeField) -> "PayoffSpec":
        """Spec over copies of the given layers, checked once here."""
        xi, zeta = _checked(xi_layers.copy(), zeta_layers.copy())
        return cls(xi_layers=xi, zeta_layers=zeta)

    def layers(self, lattice: Lattice) -> tuple[NodeField, NodeField]:
        if self.xi_layers is not None:
            return self.xi_layers, self.zeta_layers
        return _checked(NodeField.from_function(lattice, self.xi),
                        NodeField.from_function(lattice, self.zeta))

    def reflected(self, lattice: Lattice) -> "PayoffSpec":
        """Barriers (-zeta, -xi): the buyer's problem as seen by a seller.

        The layers are negated on read, never stored; negation is exact,
        so they hold the bits a negated copy would.
        """
        def negated(f: NodeField) -> DerivedField:
            return DerivedField(lattice.n_steps, lambda k, dflt: -f.layer(k, dflt))

        xi, zeta = self.layers(lattice)
        return PayoffSpec(xi_layers=negated(zeta), zeta_layers=negated(xi))


@dataclass
class DrbsdeSolution:
    """Continuation, integrands and barriers of one reflected solve.

    Stored: the continuation c, z and k, plus the spec's read-only barrier
    layers xi and zeta (shared, never copied).  Derived per layer on read,
    read-only: the value y = clip(c, xi, zeta) and the reflecting
    increments dA = (xi - c) on {c < xi} and dA' = (c - zeta) on
    {c > zeta}.  At the terminal layer c = xi = zeta, so y = xi and
    dA = dA' = 0.
    """

    lattice: Lattice
    continuation: NodeField
    z: NodeField
    k: NodeField
    xi: NodeField
    zeta: NodeField
    iterations: int

    def _derived(self, fn) -> DerivedField:
        c, lo, hi = self.continuation, self.xi, self.zeta
        return DerivedField(self.lattice.n_steps, lambda k, dflt: fn(
            c.layer(k, dflt), lo.layer(k, dflt), hi.layer(k, dflt)))

    @property
    def y(self) -> DerivedField:
        return self._derived(np.clip)

    @property
    def da(self) -> DerivedField:
        return self._derived(lambda c, lo, hi: np.where(c < lo, lo - c, 0.0))

    @property
    def dap(self) -> DerivedField:
        return self._derived(lambda c, lo, hi: np.where(c > hi, c - hi, 0.0))

    @property
    def y0(self) -> float:
        return self.y.root


def reflected_sweep(lattice: Lattice, d: Driver, xi: NodeField, zeta: NodeField):
    """The reflected solve layer by layer, from the top down.

    Yields (step, defaulted, c, y, z, k, iterations) like
    `bsde.backward_sweep`, the terminal layer included (c = y = xi there,
    z = k = 0, no iterations); empty layers are skipped.  The caller has
    checked the contraction condition.
    """
    n = lattice.n_steps
    top = (xi.layer(n, False), xi.layer(n, True))
    for dflt in (False, True):
        if top[dflt].size:
            c = top[dflt].copy()
            yield n, dflt, c, c, np.zeros_like(c), np.zeros_like(c), 0
    yield from backward_sweep(lattice, d, top, n, barriers=(xi, zeta))


def solve_drbsde(lattice: Lattice, d: Driver, p: PayoffSpec) -> DrbsdeSolution:
    """Backward reflected solve.

    Per layer: continuation c solves c = E[Y'] + g(t,c,Z,K) dt,
    then Y = clip(c, xi, zeta) and the increments are the exact projection
    residuals dA = (xi-c)^+ on {c < xi}, dA' = (c-zeta)^+ on {c > zeta}.
    Only c, z and k are stored; see DrbsdeSolution.
    """
    require_contraction(d, lattice)
    xi, zeta = p.layers(lattice)
    rows = {}
    iters = 0
    for step, dflt, c, _, z, k, it in reflected_sweep(lattice, d, xi, zeta):
        rows[step, dflt] = (c, z, k)
        iters += it
    cont, z, kf = node_fields(lattice, rows, 3)
    return DrbsdeSolution(lattice=lattice, continuation=cont, z=z, k=kf,
                          xi=xi, zeta=zeta, iterations=iters)


def enumerate_stopping_rules(lattice: Lattice) -> list[NodeField]:
    """All adapted stopping rules on the lattice, as boolean stop-flag fields.

    A rule marks, at every node it can reach without having stopped, whether
    it stops there; terminal nodes always stop.  Rules are returned sorted
    so that earlier-stopping rules come first (stop sorts before continue in
    node order), which fixes the tie-breaking of arg-max/arg-min selections.
    TooLarge is raised past BRUTEFORCE_MAX_RULES rules.
    """
    n = lattice.n_steps
    rules: list[NodeField] = []

    def successors(step: int, frontier):
        nxt = set()
        q = float(lattice.q[step])
        for defaulted, j in frontier:
            if defaulted:
                nxt.add((True, j))
                nxt.add((True, j + 1))
            else:
                nxt.add((False, j))
                nxt.add((False, j + 1))
                if q > 0.0:
                    nxt.add((True, j))
        return sorted(nxt)

    def finalize(marks, frontier):
        flags = NodeField(
            [np.zeros(k + 1, dtype=bool) for k in range(n + 1)],
            [np.zeros(lattice.defaulted_size(k), dtype=bool) for k in range(n + 1)],
        )
        for (step, defaulted, j) in marks:
            flags.layer(step, defaulted)[j] = True
        for defaulted, j in frontier:
            flags.layer(n, defaulted)[j] = True
        return flags

    def add(flags):
        rules.append(flags)
        if len(rules) > BRUTEFORCE_MAX_RULES:
            raise TooLarge(f"more than {BRUTEFORCE_MAX_RULES} stopping rules")

    def rec(step, frontier, marks):
        if step == n:
            add(finalize(marks, frontier))
            return
        m = len(frontier)
        for mask in range(1 << m):
            stopped = [frontier[i] for i in range(m) if mask >> i & 1]
            alive = [frontier[i] for i in range(m) if not mask >> i & 1]
            new_marks = marks + [(step, d, j) for d, j in stopped]
            if not alive:
                add(finalize(new_marks, []))
                continue
            rec(step + 1, successors(step, alive), new_marks)

    rec(0, [(False, 0)], [])

    def key(flags: NodeField):
        parts = []
        for k in range(n + 1):
            parts.extend(0 if v else 1 for v in flags.alive[k])
            parts.extend(0 if v else 1 for v in flags.defaulted[k])
        return tuple(parts)

    rules.sort(key=key)
    return rules


def _stack_flags(rules: list[NodeField], lattice: Lattice):
    stacks = {}
    for k in range(lattice.n_steps + 1):
        stacks[(k, False)] = np.stack([r.alive[k] for r in rules], axis=1)
        nd = lattice.defaulted_size(k)
        stacks[(k, True)] = (np.stack([r.defaulted[k] for r in rules], axis=1)
                             if nd else np.zeros((0, len(rules)), dtype=bool))
    return stacks


def stopped_pair_values(lattice: Lattice, d: Driver, p: PayoffSpec,
                        tau_rules: list[NodeField], sigma_rules: list[NodeField]) -> np.ndarray:
    """Root game values for every (exercise, cancellation) rule pair.

    The payoff settles xi at the exercise node when it comes no later than
    the cancellation node, zeta at the cancellation node otherwise; before
    either, values propagate through the nonlinear generator exactly like
    the unreflected backward solve.  Returns a (len(tau), len(sigma)) matrix.
    """
    require_contraction(d, lattice)
    xi, zeta = p.layers(lattice)
    n = lattice.n_steps
    nt, ns = len(tau_rules), len(sigma_rules)
    tstacks = _stack_flags(tau_rules, lattice)
    sstacks = _stack_flags(sigma_rules, lattice)
    dt = lattice.dt

    def masked(step, defaulted, c):
        size = c.shape[0]
        t_m = np.repeat(tstacks[(step, defaulted)][:, :, None], ns, axis=2).reshape(size, nt * ns)
        s_m = np.repeat(sstacks[(step, defaulted)][:, None, :], nt, axis=1).reshape(size, nt * ns)
        xiv = xi.layer(step, defaulted)[:, None]
        zev = zeta.layer(step, defaulted)[:, None]
        return np.where(t_m, xiv, np.where(s_m, zev, c))

    v_alive = np.broadcast_to(xi.layer(n, False)[:, None], (n + 1, nt * ns)).copy()
    nd = lattice.defaulted_size(n)
    v_dead = np.broadcast_to(xi.layer(n, True)[:, None], (nd, nt * ns)).copy()

    for step in reversed(range(n)):
        m_a, z_a, k_a, m_d, z_d = lattice.layer_regression(step, v_alive, v_dead)
        ctx = lattice.step_context(step, False)
        ctx2 = replace(ctx, s1=ctx.s1[:, None], s2=ctx.s2[:, None])
        c_a, _ = implicit_continuation(ctx2, d, m_a, z_a, k_a, dt)
        v_alive = masked(step, False, c_a)
        ndk = lattice.defaulted_size(step)
        if ndk:
            ctxd = lattice.step_context(step, True)
            ctxd2 = replace(ctxd, s1=ctxd.s1[:, None], s2=ctxd.s2[:, None])
            c_d, _ = implicit_continuation(ctxd2, d, m_d, z_d, np.zeros_like(m_d), dt)
            v_dead = masked(step, True, c_d)
        else:
            v_dead = np.zeros((0, nt * ns))

    return v_alive[0].reshape(nt, ns)


@dataclass
class DynkinResult:
    sup_inf: float
    inf_sup: float
    tau_hat: NodeField
    sigma_hat: NodeField
    n_rules: int
    n_pairs: int


def dynkin_bruteforce(lattice: Lattice, d: Driver, p: PayoffSpec) -> DynkinResult:
    """Exhaustive value of the stopping game, both optimization orders.

    Enumerates every adapted stopping rule for each side, values all pairs,
    and returns max-min and min-max together with the earliest optimal
    rules.  Intended as the independent oracle for the reflected solver at
    desk scale; guarded by TooLarge beyond it.
    """
    if lattice.n_steps > BRUTEFORCE_MAX_STEPS:
        raise TooLarge(f"brute force limited to {BRUTEFORCE_MAX_STEPS} steps, "
                       f"lattice has {lattice.n_steps}")
    rules = enumerate_stopping_rules(lattice)
    n_rules = len(rules)
    n_pairs = n_rules * n_rules
    matrix = stopped_pair_values(lattice, d, p, rules, rules)
    row_min = matrix.min(axis=1)
    col_max = matrix.max(axis=0)
    ti = int(np.argmax(row_min))
    si = int(np.argmin(col_max))
    return DynkinResult(
        sup_inf=float(row_min[ti]),
        inf_sup=float(col_max[si]),
        tau_hat=rules[ti],
        sigma_hat=rules[si],
        n_rules=n_rules,
        n_pairs=n_pairs,
    )
