import json
import math

import pytest

import lolrnet as ln
from lolrnet.cli import main

NAN = math.nan

# a valid argument set for each constructor
VALID = {
    ln.FinancialNetwork: dict(liabilities=[[0.0, 1.0], [2.0, 0.0]],
                              cash=[1.0, 1.0], drift=[0.1, 0.1],
                              vol=[0.2, 0.2], growth_rate=0.0, horizon=1.0),
    ln.RankWeights: dict(c_plus=1.0, c_minus=0.0, damping=0.85, epsilon=0.0),
    ln.RankThresholdsPolicy: dict(base=0.9,
                                  steps=((0.5, 0.05), (0.75, 0.04))),
    ln.ControlProblem: dict(mu=0.1, sigma=0.2, v_terminal=1.0,
                            horizon_remaining=1.0, q=0.9, psi_cap=0.5),
}

# (constructor, argument, value holding one NaN, field the error names)
NAN_CASES = [
    (ln.FinancialNetwork, "liabilities", [[0.0, NAN], [2.0, 0.0]],
     "liabilities[0][1]"),
    *[(ln.FinancialNetwork, name, [0.5, NAN], f"{name}[1]")
      for name in ("cash", "drift", "vol")],
    (ln.FinancialNetwork, "growth_rate", NAN, "growth_rate"),
    (ln.FinancialNetwork, "horizon", NAN, "horizon"),
    *[(ln.RankWeights, name, NAN, name)
      for name in ("c_plus", "c_minus", "damping", "epsilon")],
    (ln.RankThresholdsPolicy, "base", NAN, "base"),
    (ln.RankThresholdsPolicy, "steps", ((0.5, 0.05), (NAN, 0.04)),
     "steps[1].threshold"),
    (ln.RankThresholdsPolicy, "steps", ((0.5, NAN), (0.75, 0.04)),
     "steps[0].increment"),
    *[(ln.ControlProblem, name, NAN, name)
      for name in ("mu", "sigma", "v_terminal", "horizon_remaining", "q",
                   "psi_cap")],
]


def test_valid_arguments_construct():
    for cls, fields in VALID.items():
        cls(**fields)
    ln.ControlProblem(**{**VALID[ln.ControlProblem], "psi_cap": math.inf})


@pytest.mark.parametrize(
    "cls, name, value, field", NAN_CASES,
    ids=[f"{cls.__name__}-{field}" for cls, _, _, field in NAN_CASES])
def test_constructor_rejects_nan(cls, name, value, field):
    with pytest.raises(ln.InvalidValueError) as info:
        cls(**{**VALID[cls], name: value})
    assert info.value.field == field
    assert str(info.value) == f"{field}: {info.value.message}"


# ---------------------------------------------------------------------------
# metamorphic relations of the commands, which need no reference output
# ---------------------------------------------------------------------------

DECISION_COMMANDS = ("rank", "clearing", "regions", "control")


def run_doc(capsys, tmp_path, command, config):
    """The doc ``command`` writes for the config document ``config``."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--format", "doc"]) == 0
    return json.loads(capsys.readouterr().out)


def case_study():
    return json.loads(ln.case_study_path().read_text())


def rows(doc):
    """Each bank's entry of ``doc`` without its 1-based index."""
    return [{k: v for k, v in bank.items() if k != "index"}
            for bank in doc["banks"]]


def scaled_money(config, factor):
    """``config`` with every cash and liability entry times ``factor``."""
    return {**config,
            "banks": [{**bank, "cash": bank["cash"] * factor}
                      for bank in config["banks"]],
            "liabilities": [[v * factor for v in row]
                            for row in config["liabilities"]]}


@pytest.mark.parametrize("command", DECISION_COMMANDS)
def test_bank_order_permutes_every_row(capsys, tmp_path, command):
    config = case_study()
    order = [2, 0, 3, 1]
    permuted = {**config,
                "banks": [config["banks"][i] for i in order],
                "liabilities": [[config["liabilities"][i][j] for j in order]
                                for i in order]}
    plain = run_doc(capsys, tmp_path, command, config)
    moved = run_doc(capsys, tmp_path, command, permuted)
    expected = [rows(plain)[i] for i in order]
    if command == "rank":
        # the power iteration sums in bank order, so rank may move by an ulp
        for got, want in zip(rows(moved), expected):
            assert got == {**want, "rank": pytest.approx(want["rank"],
                                                         rel=1e-15)}
        assert moved["eigenvalue"] == pytest.approx(plain["eigenvalue"],
                                                    rel=1e-15)
    else:
        assert rows(moved) == expected


def test_money_unit_scales_amounts_and_keeps_decisions(capsys, tmp_path):
    config = {**case_study(), "policy": {"kind": "uniform", "q": 0.9}}
    doubled = scaled_money(config, 2)
    docs = {command: (run_doc(capsys, tmp_path, command, config),
                      run_doc(capsys, tmp_path, command, doubled))
            for command in ("clearing", "regions", "control")}
    plain, scaled = map(rows, docs["clearing"])
    for a, b in zip(plain, scaled):
        for field in ("obligation", "payment", "value"):
            assert b[field] == 2 * a[field], field
        assert b["defaulted"] == a["defaulted"]
    plain, scaled = map(rows, docs["regions"])
    for a, b in zip(plain, scaled):
        assert b["v_terminal"] == 2 * a["v_terminal"]
        assert (b["q"], b["region"], b["note"]) == (a["q"], a["region"],
                                                    a["note"])
    plain, scaled = map(rows, docs["control"])
    for a, b in zip(plain, scaled):
        assert b["expected_cost"] == 4 * a["expected_cost"]
        for field in ("q", "region", "psi_star",
                      "survival_prob_uncontrolled"):
            assert b[field] == a[field], field


def test_rank_depends_on_the_money_unit(capsys, tmp_path):
    # the + 1 in the rank weights' denominator N_j - min(N) + 1 is in money
    # units, so a rank_thresholds policy's targets depend on the currency
    config = case_study()
    plain = run_doc(capsys, tmp_path, "rank", config)
    doubled = run_doc(capsys, tmp_path, "rank", scaled_money(config, 2))
    ratios = [b["rank"] / a["rank"]
              for a, b in zip(plain["banks"], doubled["banks"])]
    assert max(abs(ratio - 1) for ratio in ratios) > 0.01
