"""Hypothesis properties of the reflected solve and of the CLI boundary.

Solve: Y stays in [xi, zeta] at every node, the reflecting increments are
exactly complementary, the seller's price is at least the buyer's, and Y
does not fall when the barriers or the driver are raised.
Boundary: a scenario's canonical text re-parses to the same bytes, every
malformed flag or scenario makes `main` return 1 with one JSON object on
stderr, and no report written from finite inputs holds NaN or Infinity.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gamehedge import PayoffSpec, Scenario, solve_drbsde
from gamehedge.cli import main
from instances import random_instance, skorokhod_exact

# the slack the benchmark's job check allows below the buyer's price
SELLER_BUYER_TOL = 1e-12

seeds = st.integers(0, 2**32 - 1)


def solved(seed):
    inst = random_instance(np.random.default_rng(seed), n_lo=1, n_hi=8)
    return inst, solve_drbsde(inst.lattice, inst.driver, inst.payoff)


@settings(max_examples=50)
@given(seed=seeds)
def test_value_stays_between_barriers(seed):
    _, sol = solved(seed)
    for k in range(sol.lattice.n_steps + 1):
        for dflt in (False, True):
            y = sol.y.layer(k, dflt)
            assert np.all(sol.xi.layer(k, dflt) <= y) and np.all(y <= sol.zeta.layer(k, dflt))


@settings(max_examples=50)
@given(seed=seeds)
def test_reflecting_increments_are_exactly_complementary(seed):
    _, sol = solved(seed)
    assert skorokhod_exact(sol)


@settings(max_examples=50)
@given(seed=seeds)
def test_seller_price_is_at_least_buyer_price(seed):
    inst, sol = solved(seed)
    mirrored = solve_drbsde(inst.lattice, inst.driver, inst.payoff.reflected(inst.lattice))
    assert sol.y0 >= -mirrored.y0 - SELLER_BUYER_TOL


# verify's comparison bound: Y' - Y >= -1e-12 (1 + max(|xi0|, |zeta0|, |y0|))
MONOTONE_TOL = 1e-12


def node_raise(rng):
    """A nonnegative amount per node, varying with (t, s1, defaulted)."""
    amp, freq, phase = rng.uniform(0.0, 0.3), rng.uniform(0.5, 8.0), rng.uniform(0.0, 6.3)
    return lambda t, s1, defaulted: amp * (1.0 + np.sin(freq * s1 + 3.0 * t + phase * defaulted))


@settings(max_examples=50)
@given(seed=seeds)
def test_value_is_monotone_in_barriers_and_driver(seed):
    inst, sol = solved(seed)
    rng = np.random.default_rng([seed, 1])  # a stream apart from the instance's
    p, raise_xi, extra, mix = inst.payoff, node_raise(rng), node_raise(rng), rng.uniform(0.0, 0.9)

    def zeta_raise(t, s1, dflt):
        # may stay below xi's raise by up to 0.9 of the band, so xi <= zeta still holds
        gap = p.zeta(t, s1, dflt) - p.xi(t, s1, dflt)
        return np.maximum(raise_xi(t, s1, dflt) - mix * gap, 0.0) + extra(t, s1, dflt)

    raised = PayoffSpec(xi=lambda t, s1, dflt: p.xi(t, s1, dflt) + raise_xi(t, s1, dflt),
                        zeta=lambda t, s1, dflt: p.zeta(t, s1, dflt) + zeta_raise(t, s1, dflt))
    amp, freq = rng.uniform(0.0, 0.5), rng.uniform(0.5, 8.0)
    shifted = inst.driver.shifted(lambda ctx: amp * (1.0 + np.sin(freq * ctx.s1 + ctx.t)))
    scale = 1.0 + max(abs(sol.xi.root), abs(sol.zeta.root), abs(sol.y0))
    for other in (solve_drbsde(inst.lattice, inst.driver, raised),
                  solve_drbsde(inst.lattice, shifted, p)):
        for k in range(inst.lattice.n_steps + 1):
            for dflt in (False, True):
                gap = other.y.layer(k, dflt) - sol.y.layer(k, dflt)
                assert np.all(gap >= -MONOTONE_TOL * scale)


@st.composite
def scenarios(draw, max_steps=8, ambiguous=st.booleans()):
    """Valid scenario documents whose builtin audits pass and whose steps
    contract: |theta1| <= 0.2, |theta2| <= 0.3 where the intensity is
    positive (it is 0 or at least 0.2), small borrow spreads and tax rates,
    and tilts nu >= -0.3, so every Royer quotient stays above -0.9."""
    n = draw(st.integers(2, max_steps))
    r = draw(st.floats(0.0, 0.05))
    sigma1, sigma2 = draw(st.floats(0.2, 0.5)), draw(st.floats(0.1, 0.4))
    theta1 = draw(st.floats(-0.2, 0.2))
    lam = st.just(0.0) | st.floats(0.2, 0.4)
    lambda_bar = draw(lam | st.lists(lam, min_size=n, max_size=n))
    jump = draw(st.floats(-0.06, 0.06))     # theta2 * lambda
    market = {"r": r, "mu1": r + theta1 * sigma1, "sigma1": sigma1,
              "mu2": sigma2 * theta1 + r - jump, "sigma2": sigma2,
              "lambda_bar": lambda_bar, "s1_0": draw(st.floats(0.5, 2.0)), "s2_0": 1.0}
    base = draw(st.sampled_from([
        {"kind": "perfect"},
        {"kind": "borrow_lend", "borrow_rate": r + draw(st.floats(0.0, 0.05))},
        {"kind": "tax", "tax_rate": draw(st.floats(0.01, 0.05))},
    ]))
    driver = base
    if draw(ambiguous):
        grid = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3, unique=True))
        nu = draw(st.lists(st.floats(-0.3, 0.5), min_size=len(grid), max_size=len(grid)))
        driver = {"kind": "ambiguity", "base": base, "u_grid": grid, "nu": nu}
    strike = draw(st.floats(0.8, 1.2)) * market["s1_0"]
    xi = draw(st.sampled_from([f"pos(S1 - {strike!r})", f"pos({strike!r} - S1)"]))
    data = {
        "lattice": {"horizon": draw(st.floats(0.25, 1.0)), "n_steps": n},
        "market": market,
        "driver": driver,
        "payoff": {"xi": xi, "zeta": f"{xi} + {draw(st.floats(0.01, 0.3))!r}"},
    }
    if draw(st.booleans()):
        data["options"] = {"tolerance": draw(st.floats(1e-14, 1e-9))}
    return data


def run_cli(argv):
    """(exit code, stderr) of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def write(directory, data):
    path = os.path.join(directory, "s.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def assert_one_json_error(err):
    lines = err.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error", "message"}


@settings(max_examples=50)
@given(data=scenarios(), indent=st.sampled_from([None, 1, 4]), sort_keys=st.booleans())
def test_canonical_text_round_trips_byte_for_byte(data, indent, sort_keys):
    canon = Scenario.from_text(json.dumps(data, indent=indent, sort_keys=sort_keys)).canonical()
    again = Scenario.from_text(canon)
    assert again.canonical() == canon
    assert json.loads(canon) == again.data


SCENARIO_FAULTS = [
    (("market", "mu1"), float("nan")),
    (("market", "sigma1"), float("inf")),
    (("market", "r"), "0.03"),
    (("market", "lambda_bar"), []),
    (("market", "s1_0"), -1.0),
    (("lattice", "n_steps"), 0),
    (("lattice", "n_steps"), True),
    (("lattice", "n_steps"), 2.5),
    (("lattice", "horizon"), -0.5),
    (("driver", "kind"), "margin"),
    (("payoff", "xi"), "S1 / 2"),
    (("payoff", "zeta"), "-1"),
    (("options", "epsilon"), 0.01),
    (("options", "max_oracle_steps"), 4),
    (("options", "tolerance"), 0.0),
    (("unknown",), 1),
]


@settings(max_examples=50)
@given(data=scenarios(), fault=st.sampled_from(SCENARIO_FAULTS),
       command=st.sampled_from(["price", "hedge", "verify", "robust", "oracle"]))
def test_malformed_scenario_exits_1_with_one_json_error(data, fault, command):
    (*keys, last), value = fault
    data = copy.deepcopy(data)
    target = data
    for key in keys:
        target = target.setdefault(key, {})
    target[last] = value
    with tempfile.TemporaryDirectory() as tmp:
        code, err = run_cli([command, "--scenario", write(tmp, data),
                             "--out", os.path.join(tmp, "out")])
    assert code == 1
    assert_one_json_error(err)


FLAG_FAULTS = [
    ["price", "--scenario", "{s}", "--seed", "1"],
    ["hedge", "--scenario", "{s}", "--x0-override", "abc"],
    ["hedge", "--scenario", "{s}", "--x0-override=nan"],
    ["hedge", "--scenario", "{s}", "--epsilon=-inf"],
    ["hedge", "--scenario", "{s}", "--epsilon", "0"],
    ["verify", "--scenario", "{s}", "--seed", "1.5"],
    ["oracle", "--scenario", "{s}", "--max-oracle-steps", "4"],
    ["robust", "--scenario", "{s}", "--bogus"],
    ["quote", "--scenario", "{s}"],
    ["price", "--scenario", "{s}.missing"],
    ["price"],
    [],
]


@settings(max_examples=50)
@given(data=scenarios(), argv=st.sampled_from(FLAG_FAULTS))
def test_malformed_flag_exits_1_with_one_json_error(data, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, data)
        code, err = run_cli([a.replace("{s}", path) for a in argv]
                            + ["--out", os.path.join(tmp, "out")])
    assert code == 1
    assert_one_json_error(err)


def refuse_constant(constant):
    raise ValueError(f"report holds {constant}")


@settings(max_examples=30)
@given(st.data())
def test_reports_from_finite_input_are_finite(draws):
    argv = draws.draw(st.sampled_from([["price"], ["hedge"], ["hedge", "--epsilon", "0.01"],
                                       ["verify", "--seed", "7"], ["robust"], ["oracle"]]))
    data = draws.draw(scenarios(max_steps=3 if argv[0] == "oracle" else 8,
                                ambiguous=st.just(True) if argv[0] == "robust" else st.booleans()))
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        code, err = run_cli(argv[:1] + ["--scenario", write(tmp, data), "--out", out] + argv[1:])
        assert code in (0, 3), err
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            json.loads(fh.read(), parse_constant=refuse_constant)
