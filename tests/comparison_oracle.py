"""One-dimensional comparison recursion: the discrete comparison theorem, checked.

Two scalar recursions y' = y + b(t, y) dt + df, one dominating the other
in start value, drift and forcing, must stay ordered at every step.  The
hedging certificate's pathwise dominance is the same argument applied
along each lattice path; `test_ode_explicit_matches_wealth_path` feeds
this recursion one path's step data and recovers the simulated wealth.
It has its own fixed-point loop and shares no code with the solver.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from gamehedge import GameHedgeError, InvalidParams, PicardDivergence


class PreconditionViolated(GameHedgeError):
    """Caller data violates a comparison hypothesis; carries the step index."""

    exit_code = 2

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


@dataclass
class OdeCompareReport:
    y1: np.ndarray
    y2: np.ndarray
    min_diff: float
    ok: bool


def _step_implicit(b: Callable, t: float, prev: float, df: float, dt: float,
                   tol: float = 1e-14, max_iter: int = 200) -> float:
    y = prev + df
    for _ in range(max_iter):
        nxt = prev + b(t, y) * dt + df
        if abs(nxt - y) <= tol * (1.0 + abs(nxt)):
            return nxt
        y = nxt
    raise PicardDivergence(
        f"implicit step at t = {t} did not converge to {tol:g} in {max_iter} iterations")


def ode_compare(b1: Callable, b2: Callable, x1: float, x2: float,
                f1, f2, *, dt: float, lip: float,
                mode: str = "implicit", tol: float = 1e-12) -> OdeCompareReport:
    """Discrete comparison for y' = b(t, y) + df against a dominated twin.

    f1 and f2 are cumulative forcing sequences of equal length n+1; the
    recursion runs n steps of size dt, implicit in y by default (the same
    fixed point as the backward solver, hence the same monotonicity
    condition lip * dt < 1).  Preconditions are literal: x1 >= x2, the
    forcing gap increments must be nonnegative, and b1 >= b2 along the
    second solution; any breach raises with the offending step.  An
    implicit step whose fixed-point iteration does not converge raises
    PicardDivergence rather than returning the last iterate.
    """
    if mode not in ("implicit", "explicit"):
        raise InvalidParams(f"unknown mode {mode!r}")
    if not lip * dt < 1.0:
        raise PreconditionViolated(f"lip * dt = {lip * dt} not below 1")
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if f1.shape != f2.shape or f1.ndim != 1 or f1.shape[0] < 1:
        raise InvalidParams("forcing sequences must be equal-length 1-d arrays")
    if x1 < x2:
        raise PreconditionViolated(f"x1 = {x1} below x2 = {x2}", step=0)
    n = f1.shape[0] - 1
    y1 = np.empty(n + 1)
    y2 = np.empty(n + 1)
    y1[0], y2[0] = float(x1), float(x2)
    for k in range(n):
        da = (f1[k + 1] - f1[k]) - (f2[k + 1] - f2[k])
        if da < 0.0:
            raise PreconditionViolated(f"forcing gap increment {da} < 0", step=k)
        if mode == "implicit":
            t_next = (k + 1) * dt
            y1[k + 1] = _step_implicit(b1, t_next, y1[k], f1[k + 1] - f1[k], dt)
            y2[k + 1] = _step_implicit(b2, t_next, y2[k], f2[k + 1] - f2[k], dt)
            t_chk, y_chk = t_next, y2[k + 1]
        else:
            t_k = k * dt
            y1[k + 1] = y1[k] + b1(t_k, y1[k]) * dt + (f1[k + 1] - f1[k])
            y2[k + 1] = y2[k] + b2(t_k, y2[k]) * dt + (f2[k + 1] - f2[k])
            t_chk, y_chk = t_k, y2[k]
        if b1(t_chk, y_chk) < b2(t_chk, y_chk):
            raise PreconditionViolated(
                f"b1 < b2 along the dominated solution at t = {t_chk}", step=k)
    min_diff = float(np.min(y1 - y2))
    return OdeCompareReport(y1=y1, y2=y2, min_diff=min_diff, ok=min_diff >= -tol)
