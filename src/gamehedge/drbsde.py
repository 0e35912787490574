"""Doubly reflected backward solver and the stopping-game oracle.

The backward step first solves the unconstrained continuation, then
projects it onto the barrier band [xi, zeta].  The projection residuals
are the reflecting increments, so the complementarity structure
(increments act only on contact, never both at once) holds exactly, by
construction rather than up to a tolerance.

The brute-force oracle enumerates every adapted stopping rule on a small
tree and values all rule pairs in one vectorized backward sweep; its
max-min and min-max must both match the reflected solve at the root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .bsde import (
    PICARD_MAX_ITER,
    PICARD_TOL,
    backward_sweep,
    implicit_continuation,
    node_fields,
    require_contraction,
)
from .drivers import Driver
from .errors import BarrierViolation, NegativeDividend, TooLarge, UnknownNode
from .lattice import Lattice, Node, NodeField


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
    return _frozen(xi, zeta)


def _frozen(*fields: NodeField) -> tuple[NodeField, ...]:
    for f in fields:
        for a in f.alive + f.defaulted:
            a.flags.writeable = False
    return fields


@dataclass(frozen=True)
class PayoffSpec:
    """Barrier pair: exercise value xi and cancellation value zeta.

    Callables take (t, s1, defaulted) and must vectorize in s1.  At the
    terminal layer zeta is overwritten by xi, the payoff the two sides
    agree on at expiry.  Layers must be finite with xi <= zeta, or
    BarrierViolation names the node.  A spec may carry checked read-only
    layers instead (from layers(), reflected() or from_layers()); layers()
    then returns them as they are, never copied.
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
        """Barriers (-zeta, -xi): the buyer's problem as seen by a seller."""
        neg_zeta, neg_xi = _frozen(*(NodeField([-a for a in f.alive], [-d for d in f.defaulted])
                                     for f in reversed(self.layers(lattice))))
        return PayoffSpec(xi_layers=neg_zeta, zeta_layers=neg_xi)


@dataclass
class DrbsdeSolution:
    """Value, integrands, and reflecting increments of one reflected solve."""

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
                 dividends: NodeField | None = None,
                 picard_tol: float = PICARD_TOL,
                 max_iter: int = PICARD_MAX_ITER) -> DrbsdeSolution:
    """Backward reflected solve.

    Per layer: continuation c solves c = E[Y'] (+ dividend) + g(t,c,Z,K) dt,
    then Y = clip(c, xi, zeta) and the increments are the exact projection
    residuals dA = (xi-c)^+ on {c < xi}, dA' = (c-zeta)^+ on {c > zeta}.
    """
    require_contraction(d, lattice)
    xi, zeta = p.layers(lattice)
    n = lattice.n_steps
    rows = {(n, dflt): (xi.layer(n, dflt).copy(), xi.layer(n, dflt).copy())
            for dflt in (False, True)}
    iters = 0
    for step, dflt, c, y, z, k, it in backward_sweep(
            lattice, d, (xi.alive[n], xi.defaulted[n]), n, barriers=(xi, zeta),
            dividends=dividends, picard_tol=picard_tol, max_iter=max_iter):
        lo, hi = xi.layer(step, dflt), zeta.layer(step, dflt)
        rows[step, dflt] = (y, c, z, k, np.where(c < lo, lo - c, 0.0),
                            np.where(c > hi, c - hi, 0.0))
        iters += it
    y, cont, z, kf, da, dap = node_fields(lattice, rows, 6)
    return DrbsdeSolution(lattice=lattice, y=y, z=z, k=kf, da=da, dap=dap,
                          continuation=cont, xi=xi, zeta=zeta, iterations=iters)


def price_at_node(sol: DrbsdeSolution, node: Node) -> float:
    """The holder-facing price surface evaluated at one scenario node."""
    sol.lattice.check_node(node)
    return sol.y.at(node)


def solve_with_dividends(lattice: Lattice, d: Driver, p: PayoffSpec,
                         dividends, **kw) -> DrbsdeSolution:
    """Reflected solve with a per-step dividend stream.

    dividends: callable (t, s1, defaulted) -> increment earned over
    [t, t+dt), or a NodeField of increments; increments must be >= 0.
    """
    if not isinstance(dividends, NodeField):
        dividends = NodeField.from_function(lattice, dividends)
    for k in range(lattice.n_steps):
        for arr in (dividends.alive[k], dividends.defaulted[k]):
            if arr.size and float(np.min(arr)) < 0.0:
                raise NegativeDividend(f"dividend increment < 0 at step {k}")
    return solve_drbsde(lattice, d, p, dividends=dividends, **kw)


def enumerate_stopping_rules(lattice: Lattice, *, max_rules: int = 100_000) -> list[NodeField]:
    """All adapted stopping rules on the lattice, as boolean stop-flag fields.

    A rule marks, at every node it can reach without having stopped, whether
    it stops there; terminal nodes always stop.  Rules are returned sorted
    so that earlier-stopping rules come first (stop sorts before continue in
    node order), which fixes the tie-breaking of arg-max/arg-min selections.
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

    def rec(step, frontier, marks):
        if step == n:
            rules.append(finalize(marks, frontier))
            if len(rules) > max_rules:
                raise TooLarge(f"more than {max_rules} stopping rules")
            return
        m = len(frontier)
        for mask in range(1 << m):
            stopped = [frontier[i] for i in range(m) if mask >> i & 1]
            alive = [frontier[i] for i in range(m) if not mask >> i & 1]
            new_marks = marks + [(step, d, j) for d, j in stopped]
            if not alive:
                rules.append(finalize(new_marks, []))
                if len(rules) > max_rules:
                    raise TooLarge(f"more than {max_rules} stopping rules")
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
                        tau_rules: list[NodeField], sigma_rules: list[NodeField], *,
                        picard_tol: float = PICARD_TOL,
                        max_iter: int = PICARD_MAX_ITER) -> np.ndarray:
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

    v_alive = np.broadcast_to(xi.alive[n][:, None], (n + 1, nt * ns)).copy()
    nd = lattice.defaulted_size(n)
    v_dead = np.broadcast_to(xi.defaulted[n][:, None], (nd, nt * ns)).copy()

    for step in reversed(range(n)):
        m_a, z_a, k_a, m_d, z_d = lattice.layer_regression(step, v_alive, v_dead)
        ctx = lattice.step_context(step, False)
        ctx2 = replace(ctx, s1=ctx.s1[:, None], s2=ctx.s2[:, None])
        c_a, _ = implicit_continuation(ctx2, d, m_a, z_a, k_a, dt, picard_tol, max_iter)
        v_alive = masked(step, False, c_a)
        ndk = lattice.defaulted_size(step)
        if ndk:
            ctxd = lattice.step_context(step, True)
            ctxd2 = replace(ctxd, s1=ctxd.s1[:, None], s2=ctxd.s2[:, None])
            c_d, _ = implicit_continuation(ctxd2, d, m_d, z_d, np.zeros_like(m_d), dt,
                                           picard_tol, max_iter)
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


def dynkin_bruteforce(lattice: Lattice, d: Driver, p: PayoffSpec, *,
                      max_steps: int = 4, max_pairs: int = 250_000,
                      picard_tol: float = PICARD_TOL,
                      max_iter: int = PICARD_MAX_ITER) -> DynkinResult:
    """Exhaustive value of the stopping game, both optimization orders.

    Enumerates every adapted stopping rule for each side, values all pairs,
    and returns max-min and min-max together with the earliest optimal
    rules.  Intended as the independent oracle for the reflected solver at
    desk scale; guarded by TooLarge beyond it.
    """
    if lattice.n_steps > max_steps:
        raise TooLarge(f"brute force limited to {max_steps} steps, lattice has {lattice.n_steps}")
    rules = enumerate_stopping_rules(lattice)
    n_rules = len(rules)
    n_pairs = n_rules * n_rules
    if n_pairs > max_pairs:
        raise TooLarge(f"{n_pairs} rule pairs exceed the bound {max_pairs}")
    matrix = stopped_pair_values(lattice, d, p, rules, rules,
                                 picard_tol=picard_tol, max_iter=max_iter)
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
