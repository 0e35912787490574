"""Recombining binomial lattice with a single absorbing default state.

The per-step noise at a pre-default node has three atoms: an up move, a
down move (Brownian increment +-sqrt(dt), no default) and a default move
(Brownian increment frozen for that step, default indicator jumps to 1).
With three atoms the functions {1, dW, dM} span every successor-value
vector, so the regression coefficients (mean, z, k) reproduce successor
values exactly at every node.  That exactness is what the pathwise
hedging certificates in the rest of the package rely on; it is not
achievable with a four-atom sign x default product, where the sign/default
interaction lives outside the span.

After default the intensity is zero and the lattice continues as a plain
binomial tree; defaulted nodes do not record the default time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, UnknownNode


@dataclass(frozen=True)
class LatticeParams:
    """Time grid: horizon T split into n_steps uniform steps."""

    horizon: float
    n_steps: int

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps


@dataclass(frozen=True)
class MarketParams:
    """Coefficients of the two risky assets and the short rate.

    r and lambda_bar may be scalars or per-step sequences (piecewise
    constant on [t_k, t_{k+1})).  lambda_bar is the pre-default intensity;
    the post-default intensity is identically zero.
    """

    r: float | tuple[float, ...]
    mu1: float
    sigma1: float
    mu2: float
    sigma2: float
    lambda_bar: float | tuple[float, ...]
    s1_0: float
    s2_0: float

    def r_steps(self, n: int) -> np.ndarray:
        return _as_steps(self.r, n, "r")

    def lambda_steps(self, n: int) -> np.ndarray:
        return _as_steps(self.lambda_bar, n, "lambda_bar")


def _as_steps(value, n: int, name: str) -> np.ndarray:
    if np.isscalar(value):
        return np.full(n, float(value))
    arr = np.asarray(value, dtype=float)
    if arr.shape != (n,):
        raise InvalidParams(f"{name} must be a scalar or a length-{n} sequence")
    return arr


@dataclass(frozen=True)
class Node:
    """Lattice node: time step, layer index j, default flag.

    Alive layer k holds j in [0, k] (j = number of up moves).  Defaulted
    layer k holds j in [0, k-1]: one Brownian move is frozen at the
    default step, so the defaulted layer at step k carries k-1 moves.
    """

    step: int
    j: int
    defaulted: bool = False


@dataclass(frozen=True)
class Transition:
    """One branch out of a node."""

    node: Node
    probability: float
    dw: float
    dn: int
    dm: float


@dataclass(frozen=True)
class StepContext:
    """Per-layer evaluation context passed to drivers.

    lam is the intensity seen by the layer (0 after default), r the short
    rate on [t, t+dt).  s1/s2 are the asset values along the layer.
    """

    t: float
    step: int
    dt: float
    lam: float
    r: float
    defaulted: bool
    s1: np.ndarray
    s2: np.ndarray


class NodeField:
    """A value per node, stored as one array per (step, default-status) layer."""

    def __init__(self, alive: list[np.ndarray], defaulted: list[np.ndarray]):
        self.alive = alive
        self.defaulted = defaulted

    @classmethod
    def zeros(cls, lattice: "Lattice") -> "NodeField":
        return cls(
            [np.zeros(k + 1) for k in range(lattice.n_steps + 1)],
            [np.zeros(lattice.defaulted_size(k)) for k in range(lattice.n_steps + 1)],
        )

    @classmethod
    def from_function(cls, lattice: "Lattice", fn) -> "NodeField":
        """Evaluate fn(t, s1, defaulted) on every layer; fn must vectorize in s1."""
        alive, defaulted = [], []
        for k in range(lattice.n_steps + 1):
            t = lattice.t(k)
            alive.append(np.asarray(fn(t, lattice.s1_alive[k], False), dtype=float) + np.zeros(k + 1))
            nd = lattice.defaulted_size(k)
            if nd:
                defaulted.append(np.asarray(fn(t, lattice.s1_defaulted[k], True), dtype=float) + np.zeros(nd))
            else:
                defaulted.append(np.zeros(0))
        return cls(alive, defaulted)

    def layer(self, k: int, defaulted: bool) -> np.ndarray:
        return self.defaulted[k] if defaulted else self.alive[k]

    def at(self, node: Node) -> float:
        layer = self.layer(node.step, node.defaulted)
        if node.j < 0 or node.j >= layer.shape[0]:
            raise UnknownNode(f"no such node: {node}")
        return float(layer[node.j])

    @property
    def root(self) -> float:
        return float(self.alive[0][0])

    def copy(self) -> "NodeField":
        return NodeField([a.copy() for a in self.alive], [d.copy() for d in self.defaulted])


@dataclass
class Lattice:
    """Built lattice: time grid, per-step coefficients, asset values per layer."""

    lp: LatticeParams
    mp: MarketParams
    r: np.ndarray
    lam: np.ndarray
    q: np.ndarray
    s0: np.ndarray
    s1_alive: list[np.ndarray]
    s1_defaulted: list[np.ndarray]
    s2_alive: list[np.ndarray]
    s2_defaulted: list[np.ndarray]
    has_default: bool = field(default=False)

    @property
    def n_steps(self) -> int:
        return self.lp.n_steps

    @property
    def dt(self) -> float:
        return self.lp.dt

    @property
    def sqrt_dt(self) -> float:
        return math.sqrt(self.lp.dt)

    def t(self, k: int) -> float:
        return k * self.lp.dt

    def alive_size(self, k: int) -> int:
        return k + 1

    def defaulted_size(self, k: int) -> int:
        # Documented closed form: k nodes once any positive intensity exists,
        # none on a default-free lattice and none at the root.
        return k if (self.has_default and k >= 1) else 0

    def node_count(self, k: int) -> int:
        return self.alive_size(k) + self.defaulted_size(k)

    def check_node(self, node: Node) -> None:
        if node.step < 0 or node.step > self.n_steps:
            raise UnknownNode(f"step out of range: {node}")
        size = self.defaulted_size(node.step) if node.defaulted else self.alive_size(node.step)
        if node.j < 0 or node.j >= size:
            raise UnknownNode(f"layer index out of range: {node}")

    def step_context(self, k: int, defaulted: bool) -> StepContext:
        lam = 0.0 if defaulted else float(self.lam[k])
        s1 = self.s1_defaulted[k] if defaulted else self.s1_alive[k]
        s2 = self.s2_defaulted[k] if defaulted else self.s2_alive[k]
        return StepContext(
            t=self.t(k), step=k, dt=self.dt, lam=lam, r=float(self.r[k]),
            defaulted=defaulted, s1=s1, s2=s2,
        )

    def transitions(self, node: Node) -> list[Transition]:
        """Branches out of a node, in canonical order (up, down[, default])."""
        self.check_node(node)
        if node.step >= self.n_steps:
            raise UnknownNode(f"terminal node has no transitions: {node}")
        k, j, s = node.step, node.j, self.sqrt_dt
        if node.defaulted:
            return [
                Transition(Node(k + 1, j + 1, True), 0.5, s, 0, 0.0),
                Transition(Node(k + 1, j, True), 0.5, -s, 0, 0.0),
            ]
        qk = float(self.q[k])
        if qk == 0.0:
            return [
                Transition(Node(k + 1, j + 1, False), 0.5, s, 0, 0.0),
                Transition(Node(k + 1, j, False), 0.5, -s, 0, 0.0),
            ]
        return [
            Transition(Node(k + 1, j + 1, False), 0.5 * (1.0 - qk), s, 0, -qk),
            Transition(Node(k + 1, j, False), 0.5 * (1.0 - qk), -s, 0, -qk),
            Transition(Node(k + 1, j, True), qk, 0.0, 1, 1.0 - qk),
        ]

    def conditional_expectation(self, node: Node, values) -> tuple[float, float, float]:
        """Regress successor values on {1, dW, dM}.

        values: successor values in transition order.  Returns (mean, z, k)
        with z = E[v dW]/Var(dW) and k = E[v dM]/(lam dt (1 - lam dt)),
        k = 0 at defaulted nodes and where the intensity vanishes.  The
        affine reconstruction mean + z dW + k dM reproduces the successor
        values exactly on every branch.
        """
        trans = self.transitions(node)
        v = np.asarray(values, dtype=float)
        if v.shape != (len(trans),):
            raise InvalidParams(f"expected {len(trans)} successor values, got {v.shape}")
        p = np.array([tr.probability for tr in trans])
        dw = np.array([tr.dw for tr in trans])
        dm = np.array([tr.dm for tr in trans])
        mean = float(p @ v)
        var_w = float(p @ dw**2)
        z = float(p @ (v * dw)) / var_w if var_w > 0 else 0.0
        var_m = float(p @ dm**2)
        kk = float(p @ (v * dm)) / var_m if var_m > 0 else 0.0
        return mean, z, kk

    def layer_regression(self, k: int, next_alive: np.ndarray, next_defaulted: np.ndarray):
        """Vectorized (mean, z, k) for every node of layer k from layer k+1 values.

        Returns (m_a, z_a, k_a, m_d, z_d); the defaulted-layer jump
        integrand is identically zero.  Closed forms (algebraically equal
        to conditional_expectation):

            z = (v_up - v_down) / (2 sqrt(dt))
            k = v_default - (v_up + v_down) / 2      (pre-default, lam > 0)
        """
        s = self.sqrt_dt
        qk = float(self.q[k])
        vu = next_alive[1:]
        vd = next_alive[:-1]
        half = 0.5 * (vu + vd)
        z_a = (vu - vd) / (2.0 * s)
        if qk > 0.0:
            vf = next_defaulted[: self.alive_size(k)]
            m_a = (1.0 - qk) * half + qk * vf
            k_a = vf - half
        else:
            m_a = half
            k_a = np.zeros_like(half)
        nd = self.defaulted_size(k)
        if nd:
            du = next_defaulted[1:]
            dd = next_defaulted[:-1]
            m_d = 0.5 * (du + dd)
            z_d = (du - dd) / (2.0 * s)
        else:
            m_d = np.zeros(0)
            z_d = np.zeros(0)
        return m_a, z_a, k_a, m_d, z_d


def _require_finite(name: str, value) -> None:
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidParams(f"{name} must be finite, got {value!r}")


def build_lattice(lp: LatticeParams, mp: MarketParams) -> Lattice:
    """Validate parameters and precompute per-layer asset values.

    S1(k, j) = s1_0 exp(sigma1 W + (mu1 - sigma1^2/2) t_k) with W the
    node's Brownian level; S2 carries its compensator drift (+lambda)
    before default and is identically 0 after; S0 compounds the short
    rate.  Defaulted layer k sits on levels (2j - (k-1)) sqrt(dt).
    """
    _require_finite("horizon", lp.horizon)
    for name in ("r", "mu1", "sigma1", "mu2", "sigma2", "lambda_bar", "s1_0", "s2_0"):
        _require_finite(name, getattr(mp, name))
    if lp.horizon <= 0 or lp.n_steps < 1:
        raise InvalidParams("horizon must be positive and n_steps >= 1")
    if mp.sigma1 <= 0:
        raise InvalidParams("sigma1 must be positive")
    if mp.s1_0 <= 0 or mp.s2_0 < 0:
        raise InvalidParams("s1_0 must be positive and s2_0 nonnegative")
    n = lp.n_steps
    dt = lp.dt
    r = mp.r_steps(n)
    lam = mp.lambda_steps(n)
    if np.any(lam < 0):
        raise InvalidParams("lambda_bar must be nonnegative")
    q = lam * dt
    if np.any(q >= 1):
        raise InvalidParams("lambda_bar * dt must be < 1")
    s = math.sqrt(dt)

    s0 = np.concatenate([[1.0], np.exp(np.cumsum(r) * dt)])
    cum_lam = np.concatenate([[0.0], np.cumsum(lam) * dt])

    has_default = bool(np.any(lam > 0))
    s1_alive, s1_def, s2_alive, s2_def = [], [], [], []
    for k in range(n + 1):
        j = np.arange(k + 1)
        lvl = 2 * j - k
        drift1 = (mp.mu1 - 0.5 * mp.sigma1**2) * k * dt
        s1_alive.append(mp.s1_0 * np.exp(mp.sigma1 * lvl * s + drift1))
        drift2 = (mp.mu2 - 0.5 * mp.sigma2**2) * k * dt + cum_lam[k]
        s2_alive.append(mp.s2_0 * np.exp(mp.sigma2 * lvl * s + drift2))
        nd = k if (has_default and k >= 1) else 0
        if nd:
            jd = np.arange(nd)
            lvl_d = 2 * jd - (k - 1)
            s1_def.append(mp.s1_0 * np.exp(mp.sigma1 * lvl_d * s + drift1))
        else:
            s1_def.append(np.zeros(0))
        s2_def.append(np.zeros(nd))

    return Lattice(
        lp=lp, mp=mp, r=r, lam=lam, q=q, s0=s0,
        s1_alive=s1_alive, s1_defaulted=s1_def,
        s2_alive=s2_alive, s2_defaulted=s2_def,
        has_default=has_default,
    )
