"""Scenario files: one JSON document describing one pricing problem.

Schema (field names fixed, unknown keys rejected):

    {
      "lattice": {"horizon": 0.5, "n_steps": 8},
      "market":  {"r": 0.03, "mu1": 0.09, "sigma1": 0.35, "mu2": 0.10,
                  "sigma2": 0.2, "lambda_bar": 0.3, "s1_0": 1.0, "s2_0": 1.0},
      "driver":  {"kind": "perfect"}
               | {"kind": "borrow_lend", "borrow_rate": 0.06}
               | {"kind": "tax", "tax_rate": 0.2}
               | {"kind": "ambiguity", "base": {"kind": "perfect"},
                  "u_grid": [-0.2, 0.0, 0.3], "nu": [-0.2, 0.0, 0.3]},
      "payoff":  {"xi": "pos(S1 - 0.95)", "zeta": "pos(S1 - 0.95) + 0.04"},
      "options": {"epsilon": 0.01, "tolerance": 1e-12, "max_oracle_steps": 4}
    }

"r" and "lambda_bar" take one number or a per-step list.  The ambiguity
"nu" table lists one tilt value per u_grid entry (time-constant).  Barrier
formulas use the grammar

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom
    atom   := NUMBER | 't' | 'S1' | 'defaulted'
            | 'max' '(' expr ',' expr ')' | 'min' '(' expr ',' expr ')'
            | 'pos' '(' expr ')' | '(' expr ')'

and nothing else; `defaulted` is 1.0 after default, else 0.0.  Times are
in years, numbers decimal and finite: NaN, Infinity and numbers beyond
the float range are refused, naming the field.  The canonical
serialization (sorted keys, two-space indent, trailing newline) is
byte-stable under re-parsing.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .drbsde import PayoffSpec
from .drivers import (AmbiguityFamily, AuditReport, Driver, audit_driver, audit_family,
                      make_builtin_driver)
from .errors import ScenarioError
from .lattice import Lattice, LatticeParams, MarketParams, build_lattice
from .robust import default_ambiguity_family

_TOKEN = re.compile(r"""
    (?P<num>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[+\-*(),])
  | (?P<ws>\s+)
""", re.VERBOSE)

_NAMES = ("t", "S1", "defaulted", "max", "min", "pos")


def _tokenize(src: str):
    out = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ScenarioError(f"bad character {src[pos]!r} at position {pos} in {src!r}")
        if m.lastgroup == "num":
            out.append(("num", float(m.group()), pos))
        elif m.lastgroup == "name":
            if m.group() not in _NAMES:
                raise ScenarioError(f"unknown name {m.group()!r} at position {pos} in {src!r}")
            out.append(("name", m.group(), pos))
        elif m.lastgroup == "op":
            out.append(("op", m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(src)))
    return out


class _Parser:
    """Recursive descent over the payoff grammar; returns fn(t, s1, defaulted)."""

    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        tok = self.toks[self.i]
        if (kind and tok[0] != kind) or (value is not None and tok[1] != value):
            raise ScenarioError(
                f"expected {value or kind}, got {tok[1]!r} at position {tok[2]} in {self.src!r}")
        self.i += 1
        return tok

    def parse(self) -> Callable:
        fn = self.expr()
        if self.peek()[0] != "end":
            tok = self.peek()
            raise ScenarioError(f"trailing {tok[1]!r} at position {tok[2]} in {self.src!r}")
        return fn

    def expr(self):
        fn = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.take("op")[1]
            rhs = self.term()
            lhs = fn
            if op == "+":
                fn = lambda t, s, d, lhs=lhs, rhs=rhs: lhs(t, s, d) + rhs(t, s, d)
            else:
                fn = lambda t, s, d, lhs=lhs, rhs=rhs: lhs(t, s, d) - rhs(t, s, d)
        return fn

    def term(self):
        fn = self.factor()
        while self.peek()[:2] == ("op", "*"):
            self.take("op")
            rhs = self.factor()
            lhs = fn
            fn = lambda t, s, d, lhs=lhs, rhs=rhs: lhs(t, s, d) * rhs(t, s, d)
        return fn

    def factor(self):
        if self.peek()[:2] == ("op", "-"):
            self.take("op")
            inner = self.factor()
            return lambda t, s, d, inner=inner: -inner(t, s, d)
        return self.atom()

    def atom(self):
        kind, value, pos = self.peek()
        if kind == "num":
            self.take()
            return lambda t, s, d, v=value: v + 0.0 * s
        if kind == "name":
            self.take()
            if value == "t":
                return lambda t, s, d: t + 0.0 * s
            if value == "S1":
                return lambda t, s, d: s
            if value == "defaulted":
                return lambda t, s, d: (1.0 if d else 0.0) + 0.0 * s
            if value in ("max", "min"):
                self.take("op", "(")
                a = self.expr()
                self.take("op", ",")
                b = self.expr()
                self.take("op", ")")
                red = np.maximum if value == "max" else np.minimum
                return lambda t, s, d, a=a, b=b, red=red: red(a(t, s, d), b(t, s, d))
            if value == "pos":
                self.take("op", "(")
                a = self.expr()
                self.take("op", ")")
                return lambda t, s, d, a=a: np.maximum(a(t, s, d), 0.0)
        if (kind, value) == ("op", "("):
            self.take()
            fn = self.expr()
            self.take("op", ")")
            return fn
        raise ScenarioError(f"unexpected {value!r} at position {pos} in {self.src!r}")


def parse_payoff_expression(src: str) -> Callable:
    """Compile a barrier formula to fn(t, s1, defaulted), vectorized in s1."""
    if not isinstance(src, str):
        raise ScenarioError(f"payoff formula must be a string, got {type(src).__name__}")
    return _Parser(src).parse()


def _is_num(x) -> bool:
    """A JSON number with a finite float value: NaN, Infinity, 1e400 and
    integers beyond the float range are refused."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _check_keys(d: dict, where: str, required: tuple, optional: tuple = ()):
    if not isinstance(d, dict):
        raise ScenarioError(f"{where} must be an object")
    missing = [k for k in required if k not in d]
    unknown = [k for k in d if k not in required + optional]
    if missing:
        raise ScenarioError(f"{where} missing keys: {', '.join(missing)}")
    if unknown:
        raise ScenarioError(f"{where} has unknown keys: {', '.join(unknown)}")


_BUILTIN_KINDS = ("perfect", "borrow_lend", "tax")


def _validate_driver(spec: dict, where: str = "driver", nested: bool = False) -> None:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ScenarioError(f"{where} must be an object with a 'kind'")
    kind = spec["kind"]
    if kind == "perfect":
        _check_keys(spec, where, ("kind",))
    elif kind == "borrow_lend":
        _check_keys(spec, where, ("kind", "borrow_rate"))
        if not _is_num(spec["borrow_rate"]):
            raise ScenarioError(f"{where}.borrow_rate must be a finite number")
    elif kind == "tax":
        _check_keys(spec, where, ("kind", "tax_rate"))
        if not _is_num(spec["tax_rate"]):
            raise ScenarioError(f"{where}.tax_rate must be a finite number")
    elif kind == "ambiguity":
        if nested:
            raise ScenarioError(f"{where}.kind cannot nest ambiguity")
        _check_keys(spec, where, ("kind", "base", "u_grid", "nu"))
        _validate_driver(spec["base"], where + ".base", nested=True)
        grid, nu = spec["u_grid"], spec["nu"]
        if (not isinstance(grid, list) or not grid
                or not all(_is_num(a) for a in grid)):
            raise ScenarioError(f"{where}.u_grid must be a nonempty list of finite numbers")
        if len(set(grid)) != len(grid):
            raise ScenarioError(f"{where}.u_grid has duplicate entries")
        if (not isinstance(nu, list) or len(nu) != len(grid)
                or not all(_is_num(v) for v in nu)):
            raise ScenarioError(f"{where}.nu must list one finite number per u_grid entry")
    else:
        raise ScenarioError(f"{where}.kind {kind!r} not one of "
                            f"{_BUILTIN_KINDS + ('ambiguity',)}")


_OPTION_DEFAULTS = {"epsilon": 0.01, "tolerance": 1e-12, "max_oracle_steps": 4}


@dataclass(frozen=True)
class BuiltScenario:
    scenario: "Scenario"
    lattice: Lattice
    driver: Driver                       # the solving driver (envelope if ambiguous)
    family: AmbiguityFamily | None
    payoff: PayoffSpec
    options: dict
    audits: tuple[AuditReport, ...]     # one per audited driver; empty if not audited


@dataclass(frozen=True)
class Scenario:
    """Validated scenario document; `data` is the canonical dict."""

    data: dict

    @classmethod
    def from_text(cls, text: str) -> "Scenario":
        try:
            raw = json.loads(text)
        except ValueError as e:
            raise ScenarioError(f"invalid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise ScenarioError("scenario must be a JSON object")
        _check_keys(raw, "scenario", ("lattice", "market", "driver", "payoff"),
                    ("options",))
        lat = raw["lattice"]
        _check_keys(lat, "lattice", ("horizon", "n_steps"))
        if not (_is_num(lat["horizon"]) and lat["horizon"] > 0):
            raise ScenarioError("lattice.horizon must be a positive finite number")
        if not (isinstance(lat["n_steps"], int) and not isinstance(lat["n_steps"], bool)
                and lat["n_steps"] >= 1):
            raise ScenarioError("lattice.n_steps must be an integer >= 1")
        mkt = raw["market"]
        _check_keys(mkt, "market", ("r", "mu1", "sigma1", "mu2", "sigma2",
                                    "lambda_bar", "s1_0", "s2_0"))
        for key in ("mu1", "sigma1", "mu2", "sigma2", "s1_0", "s2_0"):
            if not _is_num(mkt[key]):
                raise ScenarioError(f"market.{key} must be a finite number")
        for key in ("r", "lambda_bar"):
            v = mkt[key]
            if not (_is_num(v) or (isinstance(v, list) and v
                                   and all(_is_num(x) for x in v))):
                raise ScenarioError(f"market.{key} must be a finite number or a list of them")
        _validate_driver(raw["driver"])
        pay = raw["payoff"]
        _check_keys(pay, "payoff", ("xi", "zeta"))
        parse_payoff_expression(pay["xi"])
        parse_payoff_expression(pay["zeta"])
        opts = dict(raw.get("options", {}))
        _check_keys(opts, "options", (), tuple(_OPTION_DEFAULTS))
        for key, dflt in _OPTION_DEFAULTS.items():
            opts.setdefault(key, dflt)
        if not (_is_num(opts["epsilon"]) and opts["epsilon"] > 0):
            raise ScenarioError("options.epsilon must be a positive finite number")
        if not (_is_num(opts["tolerance"]) and opts["tolerance"] > 0):
            raise ScenarioError("options.tolerance must be a positive finite number")
        if not (isinstance(opts["max_oracle_steps"], int)
                and not isinstance(opts["max_oracle_steps"], bool)
                and opts["max_oracle_steps"] >= 1):
            raise ScenarioError("options.max_oracle_steps must be an integer >= 1")
        data = {"lattice": lat, "market": mkt, "driver": raw["driver"],
                "payoff": pay, "options": opts}
        return cls(data=data)

    @classmethod
    def from_file(cls, path) -> "Scenario":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def canonical(self) -> str:
        return json.dumps(self.data, sort_keys=True, indent=2) + "\n"

    @property
    def options(self) -> dict:
        return dict(self.data["options"])

    def build(self, *, audit: bool = True) -> BuiltScenario:
        """Construct lattice, driver, payoff; run the module audits."""
        lat = self.data["lattice"]
        mkt = self.data["market"]
        lp = LatticeParams(horizon=float(lat["horizon"]), n_steps=int(lat["n_steps"]))

        def seq(v):
            return tuple(float(x) for x in v) if isinstance(v, list) else float(v)

        mp = MarketParams(r=seq(mkt["r"]), mu1=float(mkt["mu1"]),
                          sigma1=float(mkt["sigma1"]), mu2=float(mkt["mu2"]),
                          sigma2=float(mkt["sigma2"]),
                          lambda_bar=seq(mkt["lambda_bar"]),
                          s1_0=float(mkt["s1_0"]), s2_0=float(mkt["s2_0"]))
        lattice = build_lattice(lp, mp)

        spec = self.data["driver"]
        family = None
        audits: list[AuditReport] = []
        if spec["kind"] == "ambiguity":
            base = _make_builtin(spec["base"], mp)
            grid = np.asarray(spec["u_grid"], dtype=float)
            vals = np.asarray(spec["nu"], dtype=float)
            order = np.argsort(grid)
            gs, vs = grid[order], vals[order]

            def nu_fn(t, alpha, gs=gs, vs=vs):
                a = np.asarray(alpha, dtype=float)
                idx = np.clip(np.searchsorted(gs, a), 0, len(gs) - 1)
                out = vs[idx]
                return out if a.ndim else float(out)

            family = default_ambiguity_family(base, nu_fn, tuple(grid), lattice)
            driver = family.sup_driver()
            if audit:
                audits = audit_family(family, lattice)
        else:
            driver = _make_builtin(spec, mp)
            if audit:
                audits = [audit_driver(driver, lattice)]
        for rep in audits:
            rep.require()

        payoff = PayoffSpec(xi=parse_payoff_expression(self.data["payoff"]["xi"]),
                            zeta=parse_payoff_expression(self.data["payoff"]["zeta"]))
        # evaluated and checked once, before any solve; every later layers() reuses them
        xi, zeta = payoff.layers(lattice)
        payoff = replace(payoff, xi_layers=xi, zeta_layers=zeta)
        return BuiltScenario(scenario=self, lattice=lattice, driver=driver,
                             family=family, payoff=payoff, options=self.options,
                             audits=tuple(audits))


def _make_builtin(spec: dict, mp: MarketParams) -> Driver:
    kind = spec["kind"]
    if kind == "perfect":
        return make_builtin_driver("perfect", mp)
    if kind == "borrow_lend":
        return make_builtin_driver("borrow_lend", mp, borrow_rate=float(spec["borrow_rate"]))
    return make_builtin_driver("tax", mp, tax_rate=float(spec["tax_rate"]))
