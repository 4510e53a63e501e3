import math

import pytest

import lolrnet as ln

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
