"""Byte fixtures for the CLI: exit code and sha256 of every file written.

Any change to the output bytes of `price`, `verify`, `hedge`, `robust` or
`oracle` on these scenarios fails here; speed work on the audit or the
writers must leave them as they are.  To re-record a deliberate format
change, run this file as a script (with `src` on PYTHONPATH) and paste its
output over GOLDEN.
"""

import copy
import hashlib
import json

import pytest

from gamehedge.cli import main

SCENARIOS = {
    "perfect_default": {
        "lattice": {"horizon": 0.5, "n_steps": 6},
        "market": {"r": 0.03, "mu1": 0.09, "sigma1": 0.35, "mu2": 0.1,
                   "sigma2": 0.2, "lambda_bar": 0.3, "s1_0": 1.0, "s2_0": 1.0},
        "driver": {"kind": "perfect"},
        "payoff": {"xi": "pos(S1 - 0.95)", "zeta": "pos(S1 - 0.95) + 0.04"},
    },
    "borrow_steps": {
        "lattice": {"horizon": 0.5, "n_steps": 5},
        "market": {"r": [0.01, 0.03, 0.02, 0.04, 0.02], "mu1": 0.08,
                   "sigma1": 0.3, "mu2": 0.05, "sigma2": 0.25,
                   "lambda_bar": [0.3, 0.0, 0.2, 0.4, 0.1],
                   "s1_0": 1.1, "s2_0": 1.0},
        "driver": {"kind": "borrow_lend", "borrow_rate": 0.07},
        "payoff": {"xi": "pos(S1 - 1.0) + 0.01 * defaulted",
                   "zeta": "pos(S1 - 1.0) + 0.05 - 0.02 * t"},
    },
    "ambiguity_tax": {
        "lattice": {"horizon": 0.5, "n_steps": 3},
        "market": {"r": 0.02, "mu1": 0.07, "sigma1": 0.4, "mu2": 0.06,
                   "sigma2": 0.15, "lambda_bar": 0.25, "s1_0": 0.9,
                   "s2_0": 1.0},
        "driver": {"kind": "ambiguity", "base": {"kind": "tax", "tax_rate": 0.2},
                   "u_grid": [-0.3, 0.0, 0.25], "nu": [-0.3, 0.0, 0.25]},
        "payoff": {"xi": "pos(1.0 - S1)", "zeta": "pos(1.0 - S1) + 0.03"},
    },
}

RUNS = {
    "perfect_default": (["price"], ["verify", "--seed", "5"], ["hedge"],
                        ["hedge", "--epsilon", "0.02"]),
    "borrow_steps": (["price"], ["verify", "--seed", "2"], ["hedge"]),
    "ambiguity_tax": (["price"], ["verify"], ["hedge"], ["robust"],
                      ["oracle"]),
}

GOLDEN = {
    'perfect_default price': (0, {
        'price.csv': 'e55478168618096f1e0be43e1e9118e23159b42b51b0b6f30ecfaa632a9319ac',
        'report.json': '7385b37e5a2c2216a3570482b5909c8669a3ceb423c550f4fd92765b76f6d5fb',
    }),
    'perfect_default verify --seed 5': (0, {
        'report.json': 'bfd49eb1539568fe982feba8d813a609db772a09d9fd2b29f7446eb88d63cb20',
    }),
    'perfect_default hedge': (0, {
        'report.json': '2349f1f3898ce3b9edeffeefb249c7d2d4bc0c9315995e9295f886bd3e502e93',
        'stopping.csv': 'fbddc87cfd2a91e4132a80bf828ecb8f0effb1d832860cd657c41995fa55ff39',
        'strategy.csv': 'c0d2630fba60e999c35c4e28f3ce1a889cfef6c0798ebe7a874a14891fd35544',
    }),
    'perfect_default hedge --epsilon 0.02': (0, {
        'report.json': '6529609cc8f420770fb2a52c7614d995284824ad934893477f4a0f92337fdb2b',
        'stopping.csv': 'ed76e8e96a227fe85a9c6551657b407420e4de1ff7a2873245d0d82cb9adc113',
        'strategy.csv': 'c0d2630fba60e999c35c4e28f3ce1a889cfef6c0798ebe7a874a14891fd35544',
    }),
    'borrow_steps price': (0, {
        'price.csv': '95adfded5f72a2da9c73ed2328a9c2277fae937af2e35ae8c28a777071e9cc91',
        'report.json': '126146a1f8956f8be342abf8e82b9c1aa8ffab8dfe56598246e4325b6a29afdf',
    }),
    'borrow_steps verify --seed 2': (0, {
        'report.json': '9103393c18addbbd9ea01557912aa280a83c4896945f8174fb1fb4abf8d78359',
    }),
    'borrow_steps hedge': (0, {
        'report.json': 'ac26f329ab5e77496a1d4b88d8518a5596285fc0599b0c7f844b50be2d26e501',
        'stopping.csv': '6b6791cba79159b6f1b169c292f499ed0529af42590d2d6f74d8cbc94aa92281',
        'strategy.csv': 'a96a40b2a09efa17cb56734076c15cf06b9f91e7a5f124cf403b367054721b71',
    }),
    'ambiguity_tax price': (0, {
        'price.csv': 'd508313d04682d62bb34460656e78ce19e840d54e81a34b2e70b35d2fe3f75fa',
        'report.json': '23240bb699d14a469cf432e969b83151d817c23883817570becec6cf656b2a6e',
    }),
    'ambiguity_tax verify': (0, {
        'report.json': 'cdd1399bcc579f68cb435c5acb4c18d48039ce2e900eee897ba71685eb786849',
    }),
    'ambiguity_tax hedge': (0, {
        'report.json': 'c007db8f3dadf37349fdf7b78969b8e22c394bafb54aba575407fe421a34dd48',
        'stopping.csv': '2c8a78f5f5eea7ea638dc70ef0242172216787e55434af7d7990a7bab142aa17',
        'strategy.csv': 'a48b149c6124f0fe3d7b3364ac50f1bf51c98aa15efe5412f172920a49d328c8',
    }),
    'ambiguity_tax robust': (0, {
        'alphas.csv': 'd25b7f6bc098a659425fe38f1387eb84350bd4ffb5f40a1043b3a8fabbba254f',
        'report.json': '9b07be2b2eda8d305b58f4b7de7646a256ca37662b35d6e735aac8ec840c6e94',
        'worst_alpha.csv': 'dec2c8dfd95ecf805dd95daf19851d2a39b5799c1a6678208744b80ad4fbac71',
    }),
    'ambiguity_tax oracle': (0, {
        'report.json': '256b53d2fb0b8fc7785bf5c7311de1b76754f4ddaf918e5c371a71b1fae982ee',
    }),
}


def run_outputs(tmp_path, name, argv):
    """(exit code, {file: sha256}) of one CLI run in a fresh directory."""
    work = tmp_path / (name + "_" + "_".join(argv).replace("-", ""))
    work.mkdir()
    scenario = work / "s.json"
    scenario.write_text(json.dumps(SCENARIOS[name]), encoding="utf-8")
    out = work / "out"
    code = main(argv[:1] + ["--scenario", str(scenario), "--out", str(out)]
                + argv[1:])
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(out.iterdir())}
    return code, hashes


@pytest.mark.parametrize("name,argv", [(n, a) for n, runs in RUNS.items()
                                       for a in runs])
def test_cli_output_bytes_match_golden(tmp_path, name, argv):
    code, hashes = run_outputs(tmp_path, name, argv)
    assert (code, hashes) == GOLDEN[name + " " + " ".join(argv)]
    # every input here is finite, so no report may hold NaN or Infinity
    (report,) = tmp_path.glob("*/out/report.json")
    json.loads(report.read_text(encoding="utf-8"), parse_constant=refuse_constant)


@pytest.mark.parametrize("band", ["0.03", "0.1"])
def test_robust_and_hedge_write_one_certificate(tmp_path, band):
    # on an ambiguity scenario both commands certify the envelope hedge; the
    # golden band puts the root on zeta, so sigma* stops at once, and the
    # wider one puts it strictly inside, where the grid models disagree
    data = copy.deepcopy(SCENARIOS["ambiguity_tax"])
    data["payoff"]["zeta"] = f"pos(1.0 - S1) + {band}"
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data), encoding="utf-8")
    reports = {}
    for cmd in ("hedge", "robust"):
        out = tmp_path / cmd
        assert main([cmd, "--scenario", str(scenario), "--out", str(out)]) == 0
        reports[cmd] = json.loads((out / "report.json").read_text(encoding="utf-8"))
    keys = ("n_paths", "violations", "min_slack_xi", "stop_slack",
            "min_slack_reference", "tolerance", "ok")
    assert reports["robust"]["certificate"] == {k: reports["hedge"][k] for k in keys}
    assert reports["robust"]["ok"] is reports["robust"]["certificate"]["ok"]


def test_cli_robust_root_inside_the_band(tmp_path):
    # the golden ambiguity scenario puts the root on zeta, so sigma* stops at
    # step 0; a band of 0.1 at 10 steps puts it strictly inside, where the
    # grid models disagree and the certificate has paths to cover
    data = copy.deepcopy(SCENARIOS["ambiguity_tax"])
    data["lattice"]["n_steps"] = 10
    data["payoff"]["zeta"] = "pos(1.0 - S1) + 0.1"
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(data), encoding="utf-8")
    reports = {}
    for cmd in ("price", "robust"):
        assert main([cmd, "--scenario", str(scenario), "--out", str(tmp_path / cmd)]) == 0
        reports[cmd] = json.loads((tmp_path / cmd / "report.json").read_text(encoding="utf-8"))
    price, robust = reports["price"], reports["robust"]
    v0, per_alpha = robust["v0_via_G"], robust["per_alpha"]
    assert price["xi_root"] < v0 < price["zeta_root"]
    assert len(set(per_alpha)) == len(per_alpha) == 3
    assert v0 >= max(per_alpha)
    assert robust["certificate"]["ok"] is robust["ok"] is True
    assert abs(robust["frozen_value"] - v0) <= 1e-10


def refuse_constant(constant):
    raise ValueError(f"report holds {constant}")


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for name, runs in RUNS.items():
            for argv in runs:
                code, hashes = run_outputs(pathlib.Path(tmp), name, argv)
                print(f"    {name + ' ' + ' '.join(argv)!r}: ({code}, {{")
                for fname, digest in hashes.items():
                    print(f"        {fname!r}: {digest!r},")
                print("    }),")
        print("}")
