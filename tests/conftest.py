import json

import numpy as np
import pytest

import lolrnet as ln


@pytest.fixture(scope="session")
def case_config():
    return ln.load_config(ln.case_study_path())


@pytest.fixture(scope="session")
def case_network(case_config):
    return case_config.network


@pytest.fixture(scope="session")
def printed_google():
    doc = json.loads(ln.printed_google_path().read_text())
    return np.asarray(doc["google"], dtype=float)


@pytest.fixture(scope="session")
def case_q(case_config, case_network):
    result = ln.rank_network(case_network, case_config.weights)
    return ln.assign_survival_probabilities(result.rank, case_config.policy)
