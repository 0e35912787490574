"""The fast driver audit against the full-array oracle in `audit_oracle`.

Every AuditReport field, the `worst` probe record included, must be equal
on a seeded corpus that covers what the fast audit's shortcuts depend on:
builtins at zero, moderate and high intensity; scalar and per-step rates;
time-dependent shifts; drivers that read s1 (full-width columns, one of
whose columns differ only in the sign of zero); NaN-producing, leaky and
Royer-failing drivers; and the members of an intensity-tilt family.
"""

import json
import math

import numpy as np
import pytest

from audit_oracle import audit_driver as oracle_audit
from gamehedge import LatticeParams, MarketParams, build_lattice
from gamehedge.cli import main
from gamehedge.drivers import AuditReport, Driver, audit_driver, make_builtin_driver
from gamehedge.robust import default_ambiguity_family

KINDS = ("perfect", "borrow_lend", "tax", "shifted", "s1", "signed_zero",
         "nan", "leaky", "royer_fail", "ambiguity")
LAMS = (0.0, 0.3, 0.8)
N_CASES = 240


def _market(rng, n, lam, per_step_r):
    r = (tuple(float(x) for x in rng.uniform(0.0, 0.05, size=n)) if per_step_r
         else float(rng.uniform(0.0, 0.05)))
    return MarketParams(r=r, mu1=float(rng.uniform(-0.05, 0.15)),
                        sigma1=float(rng.uniform(0.2, 0.5)),
                        mu2=float(rng.uniform(-0.1, 0.1)),
                        sigma2=float(rng.uniform(0.1, 0.4)),
                        lambda_bar=lam, s1_0=float(rng.uniform(0.6, 1.5)),
                        s2_0=1.0)


def _drivers(kind, mp, lattice, rng):
    builtin = make_builtin_driver("perfect", mp)
    if kind == "perfect":
        return [builtin]
    if kind == "borrow_lend":
        r_max = float(np.max(np.atleast_1d(mp.r)))
        return [make_builtin_driver("borrow_lend", mp,
                                    borrow_rate=r_max + float(rng.uniform(0.0, 0.05)))]
    if kind == "tax":
        return [make_builtin_driver("tax", mp, tax_rate=float(rng.uniform(0.05, 0.3)))]
    if kind == "shifted":
        amp = float(rng.uniform(0.1, 0.5))
        return [builtin.shifted(lambda ctx: amp * math.cos(3.0 * ctx.t))]
    if kind == "s1":
        return [Driver(lambda ctx, y, z, k: -ctx.r * y + 0.05 * np.sin(ctx.s1) * z,
                       1.0)]
    if kind == "signed_zero":
        return [Driver(lambda ctx, y, z, k: (ctx.s1 - 1.0) * 0.0 * k - ctx.r * y,
                       1.0)]
    if kind == "nan":
        def rooted(ctx, y, z, k):
            with np.errstate(invalid="ignore"):
                return -ctx.r * y + 0.1 * np.sqrt(y)
        return [Driver(rooted, 1.0)]
    if kind == "leaky":
        return [Driver(lambda ctx, y, z, k: -ctx.r * y + 0.3 * k, 1.0)]
    if kind == "royer_fail":
        return [Driver(lambda ctx, y, z, k: -2.0 * k * ctx.lam - 0.01 * y, 3.0)]
    grid = tuple(float(a) for a in rng.uniform(-0.5, 0.5, size=3))
    fam = default_ambiguity_family(builtin, lambda t, a: a * (1.0 + t), grid, lattice)
    return fam.members()


def _corpus():
    rng = np.random.default_rng(20261018)
    for i in range(N_CASES):
        kind = KINDS[i % len(KINDS)]
        lam = LAMS[(i // len(KINDS)) % len(LAMS)]
        n = int(rng.integers(2, 7))
        mp = _market(rng, n, lam, per_step_r=bool(rng.integers(0, 2)))
        lattice = build_lattice(LatticeParams(horizon=0.5, n_steps=n), mp)
        for d in _drivers(kind, mp, lattice, rng):
            yield f"{i}-{kind}-lam{lam}-n{n}", d, lattice


def test_audit_matches_oracle_field_by_field():
    compared = 0
    for case, d, lattice in _corpus():
        got, want = audit_driver(d, lattice), oracle_audit(d, lattice)
        for name in AuditReport.__dataclass_fields__:
            assert repr(getattr(got, name)) == repr(getattr(want, name)), (case, name)
        compared += 1
    assert compared >= N_CASES


def test_corpus_exercises_every_outcome():
    reports = [audit_driver(d, lattice) for _, d, lattice in _corpus()]
    assert any(r.ok for r in reports)
    assert any(not r.royer_ok for r in reports)
    assert any(not r.k_independent_after_default for r in reports)
    assert any(r.gamma_min is not None and math.isnan(r.gamma_min) for r in reports)


@pytest.mark.parametrize("driver,calls", [
    ({"kind": "borrow_lend", "borrow_rate": 0.06}, 1),
    ({"kind": "ambiguity", "base": {"kind": "perfect"},
      "u_grid": [-0.2, 0.0, 0.3], "nu": [-0.2, 0.0, 0.3]}, 3),
])
def test_verify_audits_each_driver_once(tmp_path, monkeypatch, driver, calls):
    import gamehedge.cli
    import gamehedge.drivers
    import gamehedge.scenario

    seen = []

    def counting(d, lattice):
        seen.append(d.label)
        return audit_driver(d, lattice)

    for module in (gamehedge.drivers, gamehedge.scenario, gamehedge.cli):
        if hasattr(module, "audit_driver"):
            monkeypatch.setattr(module, "audit_driver", counting)
    data = {
        "lattice": {"horizon": 0.5, "n_steps": 5},
        "market": {"r": 0.03, "mu1": 0.09, "sigma1": 0.35, "mu2": 0.1,
                   "sigma2": 0.2, "lambda_bar": 0.3, "s1_0": 1.0, "s2_0": 1.0},
        "driver": driver,
        "payoff": {"xi": "pos(S1 - 0.95)", "zeta": "pos(S1 - 0.95) + 0.04"},
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["verify", "--scenario", str(path), "--out", str(out)]) == 0
    assert len(seen) == calls
    report = json.loads((out / "report.json").read_text())
    assert len(report["audits"]) == calls and all(a["ok"] for a in report["audits"])
