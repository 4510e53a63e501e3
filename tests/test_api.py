import importlib
import pkgutil

import numpy as np
import pytest

import lolrnet as ln
from lolrnet.cli import run_command

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(ln.__path__)
                    if info.name != "__main__")

# the names a command or an acceptance oracle uses; a new export must have
# a caller too
PUBLIC_NAMES = {
    "__version__",
    # network
    "FinancialNetwork", "ClearingResult", "total_obligations",
    "relative_liabilities", "clearing_vector", "default_boundary",
    # ranking
    "RankWeights", "RankThresholdsPolicy", "RankingResult", "net_positions",
    "edge_weights", "google_matrix", "perron_rank",
    "assign_survival_probabilities", "rank_network",
    # control
    "Region", "ControlProblem", "ControlDecision", "rho",
    "survival_probability", "switching_rate", "no_action_threshold",
    "classify", "value_function", "network_decision",
    # simulate
    "SimConfig", "SimReport", "simulate_network", "bank_paths",
    # config
    "NetworkConfig", "load_config", "case_study_path", "printed_google_path",
    # errors
    "LolrnetError", "InvalidValueError", "ConfigError", "ConfigParseError",
    "SchemaVersionError", "ConfigValidationError", "ConvergenceError",
}


def test_package_exports_exactly_the_public_names():
    assert len(ln.__all__) == len(set(ln.__all__)) == 41
    assert set(ln.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", ["lolrnet"] + [f"lolrnet.{m}"
                                                for m in SUBMODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


def _network(**overrides):
    fields = dict(liabilities=[[0, 1], [1, 0]], cash=[1, 1], drift=[0, 0],
                  vol=[0.2, 0.2], growth_rate=0.0, horizon=1.0)
    return ln.FinancialNetwork(**{**fields, **overrides})


_PROBLEM = ln.ControlProblem(mu=0.1, sigma=0.2, v_terminal=1.0,
                             horizon_remaining=1.0, q=0.9)

# one call per input check outside the config loader, with the field its
# InvalidValueError must name
BAD_INPUTS = {
    "network-shape": (lambda: _network(liabilities=[[0, 1]]), "liabilities"),
    "network-empty": (lambda: _network(liabilities=np.zeros((0, 0)),
                                       cash=[], drift=[], vol=[]),
                      "liabilities"),
    "network-column": (lambda: _network(cash=[1]), "cash"),
    "rho-q": (lambda: ln.rho(1.0), "q"),
    "switching-x": (lambda: ln.switching_rate(_PROBLEM, 0.0), "x"),
    "value-x": (lambda: ln.value_function(_PROBLEM, -1.0, 0.1), "x"),
    "decision-q": (lambda: ln.network_decision(_network(), [0.9]), "q"),
    "google-shape": (lambda: ln.google_matrix(np.ones((2, 3))),
                     "gamma_plus"),
    "google-damping": (lambda: ln.google_matrix(np.ones((2, 2)), 1.0),
                       "damping"),
    "perron-shape": (lambda: ln.perron_rank(np.ones(3)), "google"),
    "sim-decisions": (lambda: ln.simulate_network(
        _network(), [], ln.SimConfig(paths=1)), "decisions"),
    "command": (lambda: run_command("transmogrify", None, None), "command"),
}


@pytest.mark.parametrize("call, field", BAD_INPUTS.values(),
                         ids=BAD_INPUTS.keys())
def test_bad_input_names_its_field(call, field):
    with pytest.raises(ln.InvalidValueError) as info:
        call()
    assert info.value.field == field
    assert str(info.value).startswith(f"{field}: ")
