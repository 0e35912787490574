import dataclasses
import json

import numpy as np
import pytest

from gamehedge import (
    BarrierViolation,
    Scenario,
    ScenarioError,
    parse_payoff_expression,
)
from gamehedge import errors
from gamehedge.cli import main


def scenario_dict(**over):
    base = {
        "lattice": {"horizon": 0.5, "n_steps": 6},
        "market": {"r": 0.03, "mu1": 0.09, "sigma1": 0.35, "mu2": 0.1,
                   "sigma2": 0.2, "lambda_bar": 0.3, "s1_0": 1.0, "s2_0": 1.0},
        "driver": {"kind": "perfect"},
        "payoff": {"xi": "pos(S1 - 0.95)", "zeta": "pos(S1 - 0.95) + 0.04"},
    }
    base.update(over)
    return base


def write_scenario(tmp_path, data, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# --- payoff grammar ---


def test_expression_evaluation():
    s1 = np.array([0.8, 1.0, 1.3])
    fn = parse_payoff_expression("pos(S1 - 0.95)")
    assert np.allclose(fn(0.0, s1, False), [0.0, 0.05, 0.35])
    fn = parse_payoff_expression("max(S1, 1.1) + min(S1, 0.9) * 2")
    assert np.allclose(fn(0.0, s1, False), [1.1 + 1.6, 1.1 + 1.8, 1.3 + 1.8])
    fn = parse_payoff_expression("-S1 + t * 4 + defaulted")
    assert np.allclose(fn(0.25, s1, True), 1.0 + 1.0 - s1)
    assert np.allclose(fn(0.25, s1, False), 1.0 - s1)
    fn = parse_payoff_expression("((2))")
    assert np.allclose(fn(0.0, s1, False), [2.0, 2.0, 2.0])
    fn = parse_payoff_expression("1.5e-1 * S1")
    assert np.allclose(fn(0.0, s1, False), 0.15 * s1)


def test_expression_rejections():
    for src in ("S1 / 2", "foo(S1)", "S1 S1", "max(S1)", "pos(S1", "2 +",
                "S2", "min(1, 2, 3)", "@", ""):
        with pytest.raises(ScenarioError):
            parse_payoff_expression(src)
    with pytest.raises(ScenarioError):
        parse_payoff_expression(3.0)


# --- scenario parsing and canonical form ---


def test_round_trip_is_byte_stable(tmp_path):
    text = json.dumps(scenario_dict(), indent=4)  # non-canonical spacing
    sc = Scenario.from_text(text)
    canon = sc.canonical()
    sc2 = Scenario.from_text(canon)
    assert sc2.data == sc.data
    assert sc2.canonical() == canon
    assert canon.endswith("\n")


def test_defaults_materialized():
    sc = Scenario.from_text(json.dumps(scenario_dict()))
    assert sc.options == {"tolerance": 1e-12}


def test_scenario_rejections():
    cases = [
        {},  # missing everything
        scenario_dict(extra=1),
        scenario_dict(lattice={"horizon": 0.5}),
        scenario_dict(lattice={"horizon": 0.5, "n_steps": 0}),
        scenario_dict(lattice={"horizon": -1.0, "n_steps": 4}),
        scenario_dict(driver={"kind": "unknown"}),
        scenario_dict(driver={"kind": "borrow_lend"}),
        scenario_dict(driver={"kind": "ambiguity", "base": {"kind": "perfect"},
                              "u_grid": [0.1, 0.1], "nu": [0.0, 0.0]}),
        scenario_dict(driver={"kind": "ambiguity", "base": {"kind": "perfect"},
                              "u_grid": [0.1, 0.2], "nu": [0.0]}),
        scenario_dict(driver={"kind": "ambiguity",
                              "base": {"kind": "ambiguity",
                                       "base": {"kind": "perfect"},
                                       "u_grid": [0.0], "nu": [0.0]},
                              "u_grid": [0.0], "nu": [0.0]}),
        scenario_dict(payoff={"xi": "S1"}),
        scenario_dict(payoff={"xi": "S1 / 2", "zeta": "S1"}),
        scenario_dict(options={"epsilon": -1.0}),
        scenario_dict(options={"bogus": 1}),
        # options must be an object: none of these may slip past as a dict
        scenario_dict(options=[1, 2]),
        scenario_dict(options="x"),
        scenario_dict(options=3),
        scenario_dict(options=None),
        scenario_dict(options=[["tolerance", 1e-9]]),
        scenario_dict(options=[]),
        scenario_dict(market={"r": 0.0}),
    ]
    for data in cases:
        with pytest.raises(ScenarioError):
            Scenario.from_text(json.dumps(data))
    with pytest.raises(ScenarioError):
        Scenario.from_text("not json {")
    with pytest.raises(ScenarioError):
        Scenario.from_text("[1, 2]")


def test_build_constructs_and_audits():
    sc = Scenario.from_text(json.dumps(scenario_dict()))
    built = sc.build()
    assert built.lattice.n_steps == 6
    assert built.family is None and built.driver.label == "perfect"
    crossed = scenario_dict(payoff={"xi": "S1", "zeta": "S1 - 0.5"})
    with pytest.raises(BarrierViolation):
        Scenario.from_text(json.dumps(crossed)).build()


def test_build_ambiguity_family():
    data = scenario_dict(driver={"kind": "ambiguity", "base": {"kind": "perfect"},
                                 "u_grid": [0.3, -0.2, 0.0],
                                 "nu": [0.3, -0.2, 0.0]})
    built = Scenario.from_text(json.dumps(data)).build()
    assert built.family is not None
    assert built.family.u_grid == (0.3, -0.2, 0.0)
    # nu table follows the grid through the envelope's evaluation sites
    ctx = built.lattice.step_context(0, False)
    arr = built.family.stacked(ctx, np.zeros(1), np.zeros(1), np.ones(1))
    assert arr.shape[0] == 3


def test_per_step_rate_lists():
    data = scenario_dict(market={"r": [0.01, 0.02, 0.03, 0.01, 0.02, 0.03],
                                 "mu1": 0.09, "sigma1": 0.35, "mu2": 0.1,
                                 "sigma2": 0.2,
                                 "lambda_bar": [0.3, 0.3, 0.2, 0.2, 0.1, 0.0],
                                 "s1_0": 1.0, "s2_0": 1.0})
    built = Scenario.from_text(json.dumps(data)).build()
    assert np.allclose(built.lattice.r, [0.01, 0.02, 0.03, 0.01, 0.02, 0.03])
    assert built.lattice.lam[-1] == 0.0


# --- CLI commands and exit codes ---


def test_cli_price_flat_band_trivial(tmp_path, capsys):
    # xi = zeta = 2.5 and a vanishing generator: the price is the band value
    data = scenario_dict(
        market={"r": 0.0, "mu1": 0.0, "sigma1": 0.35, "mu2": 0.0,
                "sigma2": 0.2, "lambda_bar": 0.3, "s1_0": 1.0, "s2_0": 1.0},
        payoff={"xi": "2.5", "zeta": "2.5"})
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    assert main(["price", "--scenario", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seller_price"] == 2.5
    assert report["buyer_price"] == 2.5
    lines = (out / "price.csv").read_text().splitlines()
    assert lines[0] == "step,j,default_status,Y,Z,K,dA,dA_prime"
    # 6-step lattice: alive k+1 nodes per layer plus defaulted k from layer 1
    assert len(lines) == 1 + sum(k + 1 for k in range(7)) + sum(k for k in range(7))


def test_cli_oracle_two_step(tmp_path):
    data = scenario_dict(lattice={"horizon": 0.5, "n_steps": 2})
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    assert main(["oracle", "--scenario", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["gap_saddle"] < 1e-10
    assert report["gap_value"] < 1e-10
    assert report["n_rules"] == 9


def test_cli_hedge_x0_deficit_exits_3(tmp_path):
    path = write_scenario(tmp_path, scenario_dict())
    out = tmp_path / "out"
    assert main(["hedge", "--scenario", path, "--out", str(out)]) == 0
    price = json.loads((out / "report.json").read_text())["price"]
    code = main(["hedge", "--scenario", path, "--out", str(out),
                 "--x0-override", repr(price - 0.001)])
    assert code == 3
    report = json.loads((out / "report.json").read_text())
    assert report["violations"] > 0 and not report["ok"]


def test_cli_hedge_certifies_deep_lattice(tmp_path):
    """The node-minimum certificate covers all 2^n + n 2^(n-1) paths at n = 200."""
    n = 200
    path = write_scenario(tmp_path, scenario_dict(lattice={"horizon": 0.5, "n_steps": n}))
    out = tmp_path / "out"
    assert main(["hedge", "--scenario", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is True and report["violations"] == 0
    assert report["n_paths"] == 2 ** n + n * 2 ** (n - 1)


def test_cli_hedge_epsilon_rule(tmp_path):
    path = write_scenario(tmp_path, scenario_dict())
    out = tmp_path / "out"
    assert main(["hedge", "--scenario", path, "--out", str(out),
                 "--epsilon", "0.01"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rule"] == "sigma_eps" and report["epsilon"] == 0.01
    stops = (out / "stopping.csv").read_text().splitlines()
    assert stops[0] == "step,j,default_status,stop"
    assert all(line.split(",")[3] in ("0", "1") for line in stops[1:])


@pytest.mark.parametrize("flag,value", [
    ("--x0-override", "nan"), ("--x0-override", "inf"), ("--x0-override", "-inf"),
    ("--epsilon", "nan"), ("--epsilon", "inf"), ("--epsilon", "-inf"),
    ("--epsilon", "0"), ("--epsilon", "-0.01"),
])
def test_cli_hedge_rejects_non_finite_flags(tmp_path, capsys, flag, value):
    path = write_scenario(tmp_path, scenario_dict())
    out = tmp_path / "out"
    assert main(["hedge", "--scenario", path, "--out", str(out), f"{flag}={value}"]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "InvalidParams" and err["message"].startswith(f"{flag} must be")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command", ["price", "hedge", "robust", "oracle"])
def test_cli_seed_only_on_verify(tmp_path, capsys, command):
    path = write_scenario(tmp_path, scenario_dict())
    assert main([command, "--scenario", path, "--out", str(tmp_path), "--seed", "1"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "InvalidParams", "message": "unrecognized arguments: --seed 1"}


@pytest.mark.parametrize("argv,message", [
    (["price", "--scenario", "{s}", "--seed", "1"], "unrecognized arguments: --seed 1"),
    (["hedge", "--scenario", "{s}", "--x0-override", "abc"],
     "argument --x0-override: invalid float value: 'abc'"),
    (["price", "--scenario", "{s}", "--bogus"], "unrecognized arguments: --bogus"),
    (["quote", "--scenario", "{s}"], "argument command: invalid choice: 'quote'"),
    (["price"], "the following arguments are required: --scenario"),
    (["verify", "--scenario", "{s}", "--seed", "-1"], "--seed must be >= 0"),
])
def test_cli_usage_errors_exit_1_with_one_json_line(tmp_path, capsys, argv, message):
    path = write_scenario(tmp_path, scenario_dict())
    out = tmp_path / "out"
    argv = [a.replace("{s}", path) for a in argv] + ["--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.out == ""
    err = json.loads(lines[0])
    assert err["error"] == "InvalidParams" and err["message"].startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["hedge", "--help"]])
def test_cli_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 0
    assert "usage: gamehedge" in capsys.readouterr().out


# each error type's exit code, as the CLI's parse and solver tuples gave it
EXIT_CODES = {
    "ScenarioError": 1, "AuditFailure": 1, "BarrierViolation": 1, "InvalidParams": 1,
    "NuOutOfRange": 1, "EmptyGrid": 1,
    "NoContraction": 2, "PicardDivergence": 2, "TooLarge": 2,
    "UnknownNode": 2, "MismatchedInstances": 2,
}


def test_exit_code_per_error_type():
    types = {name: cls for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, errors.GameHedgeError)
             and cls is not errors.GameHedgeError}
    assert {name: cls.exit_code for name, cls in types.items()} == EXIT_CODES


def test_cli_parse_and_solver_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["price", "--scenario", str(bad), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "ScenarioError"

    missing = str(tmp_path / "nope.json")
    assert main(["price", "--scenario", missing, "--out", str(tmp_path)]) == 1

    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"lattice": "\xff"}')
    assert main(["price", "--scenario", str(latin), "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ScenarioError" and err["message"].startswith("scenario is not UTF-8")

    path = write_scenario(tmp_path, scenario_dict())  # 6 steps > oracle cap 4
    assert main(["oracle", "--scenario", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip().splitlines()[-1])["error"] == "TooLarge"

    assert main(["robust", "--scenario", path, "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("field,literal,message", [
    ("market.mu1", "NaN", "market.mu1 must be a finite number"),
    ("market.r", "Infinity", "market.r must be a finite number or a list of them"),
    ("market.r", "-1e400", "market.r must be a finite number or a list of them"),
    ("market.s1_0", "1" + "0" * 400, "market.s1_0 must be a finite number"),
    ("market.lambda_bar[1]", "1e999",
     "market.lambda_bar must be a finite number or a list of them"),
    ("lattice.horizon", "Infinity", "lattice.horizon must be a positive finite number"),
    ("driver.borrow_rate", "NaN", "driver.borrow_rate must be a finite number"),
    ("options.tolerance", "NaN", "options.tolerance must be a positive finite number"),
])
def test_cli_non_finite_input_exits_1_naming_field(tmp_path, capsys, field,
                                                   literal, message):
    data = scenario_dict(driver={"kind": "borrow_lend", "borrow_rate": 0.06},
                         options={})
    data["market"]["lambda_bar"] = [0.3] * 6
    section, key = field.split("[")[0].split(".")
    if "[" in field:
        data[section][key][1] = "@"
    else:
        data[section][key] = "@"
    path = tmp_path / "s.json"
    path.write_text(json.dumps(data).replace('"@"', literal), encoding="utf-8")
    assert main(["price", "--scenario", str(path), "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "ScenarioError", "message": message}


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("command", ["price", "verify"])
@pytest.mark.parametrize("payoff,message", [
    ({"xi": "pos(S1 - 0.95)", "zeta": "1e400"},
     "non-finite barrier at step 0, index 0: xi 0.05, zeta inf"),
    ({"xi": "pos(S1 - 0.95) + 1e400 - 1e400", "zeta": "pos(S1 - 0.95) + 0.04"},
     "non-finite barrier at step 0, index 0: xi nan, zeta 0.09"),
])
def test_cli_non_finite_barrier_exits_1_naming_node(tmp_path, capsys, command,
                                                    payoff, message):
    path = write_scenario(tmp_path, scenario_dict(payoff=payoff))
    out = tmp_path / "out"
    assert main([command, "--scenario", path, "--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "BarrierViolation", "message": message}
    assert not out.exists()


def test_cli_non_finite_driver_exits_2_naming_step(tmp_path, capsys, monkeypatch):
    import gamehedge.scenario as scenario_module

    real = scenario_module._make_builtin

    def overflowing(spec, mp):
        d = real(spec, mp)
        # finite on the audit's probe box |y| <= 2, infinite on values above 5
        return dataclasses.replace(
            d, fn=lambda ctx, y, z, k: d.fn(ctx, y, z, k) + np.where(y > 5.0, np.inf, 0.0))

    monkeypatch.setattr(scenario_module, "_make_builtin", overflowing)
    data = scenario_dict(payoff={"xi": "S1 * 10", "zeta": "S1 * 10 + 1"})
    path = write_scenario(tmp_path, data)
    assert main(["price", "--scenario", path, "--out", str(tmp_path / "out")]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "PicardDivergence",
                   "message": "non-finite iterate at step 5, iteration 1"}


def test_cli_verify_passes(tmp_path):
    path = write_scenario(tmp_path, scenario_dict())
    out = tmp_path / "out"
    assert main(["verify", "--scenario", path, "--out", str(out),
                 "--seed", "3"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ok"]
    assert report["apriori"]["applies"] and report["apriori"]["ok"]
    names = {c["name"] for c in report["checks"]}
    assert {"driver_monotonicity", "barrier_monotonicity",
            "root_between_barriers", "mutual_singularity",
            "push_only_on_contact"} <= names
    assert all(c["ok"] for c in report["checks"])
    assert all(a["ok"] for a in report["audits"])


def test_cli_verify_zero_generator_without_default(tmp_path):
    """r = mu1 = lambda_bar = 0 gives the generator constant 0; the
    stability estimate still applies rather than refusing the scenario."""
    data = scenario_dict(market={"r": 0.0, "mu1": 0.0, "sigma1": 0.5, "mu2": 0.0,
                                 "sigma2": 0.25, "lambda_bar": 0.0, "s1_0": 1.0,
                                 "s2_0": 1.0})
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    assert main(["verify", "--scenario", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["apriori"]["applies"] and report["ok"]


def test_cli_robust_determinism(tmp_path):
    data = scenario_dict(
        lattice={"horizon": 0.5, "n_steps": 4},
        driver={"kind": "ambiguity", "base": {"kind": "perfect"},
                "u_grid": [-0.2, 0.0, 0.3], "nu": [-0.2, 0.0, 0.3]})
    path = write_scenario(tmp_path, data)
    outputs = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["robust", "--scenario", path, "--out", str(out)]) == 0
        outputs[tag] = {name: (out / name).read_bytes()
                        for name in ("report.json", "alphas.csv",
                                     "worst_alpha.csv")}
    assert outputs["a"] == outputs["b"]
    report = json.loads(outputs["a"]["report.json"].decode())
    assert report["v0_via_G"] >= report["v0_via_grid"] - 1e-10
    assert abs(report["v0_via_G"] - report["frozen_value"]) < 1e-10
    assert report["certificate"]["violations"] == 0
    assert report["ok"] is report["certificate"]["ok"] is True


def test_cli_byte_determinism(tmp_path):
    path = write_scenario(tmp_path, scenario_dict())
    blobs = []
    for tag in ("x", "y"):
        out = tmp_path / tag
        assert main(["price", "--scenario", path, "--out", str(out)]) == 0
        blobs.append({n: (out / n).read_bytes()
                      for n in ("report.json", "price.csv")})
    assert blobs[0] == blobs[1]
