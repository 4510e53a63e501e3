import importlib
import pkgutil

import pytest

import lolrnet as ln

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
    "RankWeights", "UniformPolicy", "RankThresholdsPolicy", "QPolicy",
    "RankingResult", "net_positions", "edge_weights", "google_matrix",
    "perron_rank", "assign_survival_probabilities", "rank_network",
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
    assert len(ln.__all__) == len(set(ln.__all__)) == 43
    assert set(ln.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", ["lolrnet"] + [f"lolrnet.{m}"
                                                for m in SUBMODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
