"""Interbank network analytics.

Models a system of banks with mutual liabilities, ranks them by systemic
importance, computes closed-form optimal last-resort lending rates under
terminal survival-probability constraints, and verifies the closed forms by
Monte Carlo simulation of the controlled dynamics.
"""

from .config import (NetworkConfig, case_study_path, load_config,
                     printed_google_path)
from .control import (ControlDecision, ControlProblem, Region, classify,
                      network_decision, no_action_threshold, rho,
                      survival_probability, switching_rate, value_function)
from .errors import (ConfigError, ConfigParseError, ConfigValidationError,
                     ConvergenceError, InvalidValueError, LolrnetError,
                     SchemaVersionError)
from .network import (ClearingResult, FinancialNetwork, clearing_vector,
                      default_boundary, relative_liabilities,
                      total_obligations)
from .ranking import (RankingResult, RankThresholdsPolicy, RankWeights,
                      assign_survival_probabilities, edge_weights,
                      google_matrix, net_positions, perron_rank, rank_network)
from .simulate import SimConfig, SimReport, bank_paths, simulate_network

__version__ = "0.1.0"

__all__ = [
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
]
