import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lolrnet as ln
from _support import (CASE_CASH, CREDITOR_TABLE, FIXTURE_EIGENVALUE,
                      FIXTURE_RANK, gamma_oracle, google_oracle,
                      random_network)


def as_network(table, cash):
    n = len(cash)
    return ln.FinancialNetwork(liabilities=table, cash=cash, drift=[0.1] * n,
                               vol=[0.2] * n, growth_rate=0.0, horizon=1.0)


@pytest.fixture(scope="module")
def verbatim_net():
    # the creditor-oriented table fed in as-is, for formula-level checks
    return as_network(CREDITOR_TABLE, CASE_CASH)


class TestRankWeights:
    def test_coefficients_must_sum_to_one(self):
        with pytest.raises(ValueError, match="equal 1"):
            ln.RankWeights(c_plus=0.5, c_minus=0.6)

    def test_damping_open_interval(self):
        for d in (0.0, 1.0):
            with pytest.raises(ValueError, match="damping"):
                ln.RankWeights(c_plus=1.0, c_minus=0.0, damping=d)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            ln.RankWeights(c_plus=1.0, c_minus=0.0, epsilon=-0.1)


class TestNetPositions:
    def test_no_liabilities_equals_cash(self):
        net = as_network([[0, 0], [0, 0]], [3.0, 4.0])
        assert np.array_equal(ln.net_positions(net), [3.0, 4.0])

    def test_verbatim_table(self, verbatim_net):
        # oracle: cash + column sums - row sums of the table as given
        assert ln.net_positions(verbatim_net) == pytest.approx(
            [10.2, -5.0, 28.0, -6.0], abs=1e-12)

    def test_cash_shift_moves_positions_uniformly(self, verbatim_net):
        shifted = as_network(CREDITOR_TABLE, [c + 2.5 for c in CASE_CASH])
        assert ln.net_positions(shifted) == pytest.approx(
            ln.net_positions(verbatim_net) + 2.5, abs=1e-12)


class TestEdgeWeights:
    def test_verbatim_credit_weighted_entry(self, verbatim_net):
        # oracle: L[2][1] / (N_2 - min(N) + 1) = 5 / 2
        w = ln.RankWeights(c_plus=0.0, c_minus=1.0)
        gamma_plus, _ = ln.edge_weights(verbatim_net, w)
        assert gamma_plus[0, 1] == pytest.approx(2.5, abs=1e-14)

    def test_zero_diagonal(self, verbatim_net):
        gamma_plus, gamma_minus = ln.edge_weights(
            verbatim_net, ln.RankWeights(c_plus=0.3, c_minus=0.7))
        assert np.all(np.diag(gamma_plus) == 0)
        assert np.all(np.diag(gamma_minus) == 0)

    def test_swapping_coefficients_transposes_numerators(self, verbatim_net):
        # swapping (c_plus, c_minus) transposes the un-normalized weights;
        # the full matrices do not swap because the normalizer stays with
        # the column vertex
        a_plus, _ = ln.edge_weights(
            verbatim_net, ln.RankWeights(c_plus=0.3, c_minus=0.7))
        b_plus, _ = ln.edge_weights(
            verbatim_net, ln.RankWeights(c_plus=0.7, c_minus=0.3))
        positions = ln.net_positions(verbatim_net)
        denom = positions - positions.min() + 1.0
        assert b_plus * denom[None, :] == pytest.approx(
            (a_plus * denom[None, :]).T, abs=1e-12)

    def test_antisymmetry_relation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            net = random_network(rng)
            gamma_plus, gamma_minus = ln.edge_weights(
                net, ln.RankWeights(c_plus=0.5, c_minus=0.5))
            assert np.array_equal(gamma_minus, gamma_plus.T)

    def test_epsilon_lifts_degeneracy(self, case_network):
        gamma_plus, _ = ln.edge_weights(
            case_network, ln.RankWeights(c_plus=0.0, c_minus=1.0,
                                         epsilon=1e-3))
        assert np.all(gamma_plus.sum(axis=1) > 0)

    def test_matches_plain_python_oracle(self, case_network):
        gamma_plus, _ = ln.edge_weights(
            case_network, ln.RankWeights(c_plus=1.0, c_minus=0.0))
        oracle, _ = gamma_oracle(case_network.liabilities.tolist(),
                                 case_network.cash.tolist(), 1.0, 0.0)
        assert gamma_plus == pytest.approx(np.array(oracle), abs=1e-14)


def with_pure_lenders(net, lenders, isolated=()):
    """``net`` with the debts of ``lenders`` and every liability of
    ``isolated`` zeroed."""
    liab = net.liabilities.copy()
    liab[list(lenders)] = 0.0
    liab[:, list(isolated)] = 0.0
    liab[list(isolated)] = 0.0
    return ln.FinancialNetwork(
        liabilities=liab, cash=net.cash, drift=net.drift, vol=net.vol,
        growth_rate=net.growth_rate, horizon=net.horizon)


class TestGoogleMatrix:
    def test_all_zero_weights_uniform(self):
        tau, google = ln.google_matrix(np.zeros((4, 4)), 0.85)
        assert np.all(tau == 1.0 / 4)
        assert np.all(google == 1.0 / 4)

    def test_dangling_vertex_gets_uniform_column(self, case_network):
        # in the debtor-oriented fixture nobody owes bank 3, so pure
        # credit weighting leaves vertex 2 without outgoing weight
        gamma_plus, _ = ln.edge_weights(
            case_network, ln.RankWeights(c_plus=0.0, c_minus=1.0))
        assert not gamma_plus[2].any()
        tau, _ = ln.google_matrix(gamma_plus, 0.85)
        assert np.all(tau[:, 2] == 1.0 / 4)
        # every other column keeps the plain normalization
        others = [0, 1, 3]
        assert np.array_equal(
            tau[:, others],
            gamma_plus[:, others] / gamma_plus.sum(axis=1)[others])

    def test_isolated_bank_ranks(self, case_network):
        # a fifth bank with no liabilities in or out has zero weight for
        # every epsilon, and still gets a finite, positive rank
        liabilities = np.zeros((5, 5))
        liabilities[:4, :4] = case_network.liabilities
        net = ln.FinancialNetwork(
            liabilities=liabilities,
            cash=[*case_network.cash, 1.0],
            drift=[*case_network.drift, 0.1],
            vol=[*case_network.vol, 0.2],
            growth_rate=case_network.growth_rate,
            horizon=case_network.horizon)
        result = ln.rank_network(net, ln.RankWeights(c_plus=0.5, c_minus=0.5,
                                                     epsilon=0.5))
        assert np.all(np.isfinite(result.rank))
        assert np.all(result.rank > 0)

    def test_entry_floor_with_equality_at_zero_tau(self, case_network):
        gamma_plus, _ = ln.edge_weights(
            case_network, ln.RankWeights(c_plus=1.0, c_minus=0.0))
        tau, google = ln.google_matrix(gamma_plus, 0.85)
        floor = (1.0 - 0.85) / 4  # the library's own floor arithmetic
        assert np.all(google >= floor)
        assert np.array_equal(google == floor, tau == 0.0)

    def test_scale_invariance(self, case_network):
        gamma_plus, _ = ln.edge_weights(
            case_network, ln.RankWeights(c_plus=1.0, c_minus=0.0))
        tau, google = ln.google_matrix(gamma_plus, 0.85)
        tau2, google2 = ln.google_matrix(2.0 * gamma_plus, 0.85)
        assert np.array_equal(tau, tau2)      # power-of-two scaling is exact
        assert np.array_equal(google, google2)
        tau3, google3 = ln.google_matrix(3.0 * gamma_plus, 0.85)
        assert google3 == pytest.approx(google, abs=1e-12)

    def test_matches_plain_python_oracle(self, case_network):
        gamma_plus, _ = ln.edge_weights(
            case_network, ln.RankWeights(c_plus=1.0, c_minus=0.0))
        _, google = ln.google_matrix(gamma_plus, 0.85)
        oracle = google_oracle(gamma_plus.tolist(), 0.85)
        assert google == pytest.approx(np.array(oracle), abs=1e-12)

    def test_dangling_bank_matches_plain_python_oracle(self, case_network):
        # bank 4 owes nothing, so debt weighting leaves its row empty
        net = with_pure_lenders(case_network, [3])
        gamma_plus, _ = ln.edge_weights(
            net, ln.RankWeights(c_plus=1.0, c_minus=0.0))
        _, google = ln.google_matrix(gamma_plus, 0.85)
        oracle = google_oracle(gamma_plus.tolist(), 0.85)
        assert np.array_equal(google[:, 3], np.array(oracle)[:, 3])
        assert google == pytest.approx(np.array(oracle), abs=1e-12)

    @given(seed=st.integers(0, 2**32 - 1),
           c_plus=st.sampled_from([1.0, 0.5, 0.0]),
           damping=st.floats(0.05, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_pure_lenders_rank(self, seed, c_plus, damping):
        rng = np.random.default_rng(seed)
        net = random_network(rng)
        lenders = rng.choice(net.n, int(rng.integers(1, net.n + 1)),
                             replace=False)
        isolated = lenders[:1] if rng.random() < 0.3 else ()
        net = with_pure_lenders(net, lenders, isolated)
        result = ln.rank_network(net, ln.RankWeights(
            c_plus=c_plus, c_minus=1.0 - c_plus, damping=damping))
        assert np.all(np.isfinite(result.rank)) and np.all(result.rank > 0)
        residual = np.linalg.norm(result.google @ result.rank
                                  - result.eigenvalue * result.rank)
        assert residual <= 1e-9


class TestPerronRank:
    def test_bundled_fixture_eigenpair(self, printed_google):
        eigenvalue, rank = ln.perron_rank(printed_google)
        assert eigenvalue == pytest.approx(FIXTURE_EIGENVALUE, abs=1e-3)
        assert rank == pytest.approx(FIXTURE_RANK, abs=1e-3)
        assert int(np.argmax(rank)) == 2

    def test_uniform_matrix_rank_one(self):
        n = 5
        eigenvalue, rank = ln.perron_rank(np.full((n, n), 1.0 / n))
        assert eigenvalue == pytest.approx(1.0, abs=1e-12)
        assert rank == pytest.approx(np.full(n, 1.0 / np.sqrt(n)), abs=1e-12)

    def test_permutation_equivariance(self, printed_google):
        perm = np.array([2, 0, 3, 1])
        shuffled = printed_google[np.ix_(perm, perm)]
        lam_a, rank_a = ln.perron_rank(printed_google)
        lam_b, rank_b = ln.perron_rank(shuffled)
        assert lam_b == pytest.approx(lam_a, abs=1e-10)
        assert rank_b == pytest.approx(rank_a[perm], abs=1e-9)

    def test_residual_bound_and_positivity(self, printed_google):
        eigenvalue, rank = ln.perron_rank(printed_google)
        residual = np.linalg.norm(printed_google @ rank - eigenvalue * rank)
        assert residual <= 1e-12
        assert np.all(rank > 0)
        assert np.linalg.norm(rank) == pytest.approx(1.0, abs=1e-12)

    def test_iteration_limit(self):
        # eigenvalues 1 +- 2e-9: the second eigencomponent decays by a
        # factor 1 - 4e-9 per step, far too slowly for 10,000 steps
        with pytest.raises(ln.ConvergenceError) as info:
            ln.perron_rank(np.array([[1.0, 1e-9], [4e-9, 1.0]]))
        assert info.value.residual > 1e-12
        assert info.value.last_iterate.shape == (2,)

    def test_rejects_nonpositive_matrix(self):
        for bad in (0.0, math.nan):
            with pytest.raises(ValueError, match="strictly positive") as info:
                ln.perron_rank(np.array([[1.0, bad], [1.0, 1.0]]))
            assert info.value.field == "google[0][1]"


class TestAssignSurvivalProbabilities:
    def policy(self):
        return ln.RankThresholdsPolicy(base=0.9,
                                       steps=((0.5, 0.05), (0.75, 0.04)))

    def test_threshold_policy_on_fixture_rank(self):
        q = ln.assign_survival_probabilities(np.array(FIXTURE_RANK),
                                             self.policy())
        assert q == pytest.approx([0.9, 0.9, 0.99, 0.9], abs=1e-15)
        assert q[2] == pytest.approx(0.99, abs=1e-15)
        assert q[0] == 0.9

    def test_uniform_policy_ignores_rank(self):
        q = ln.assign_survival_probabilities(np.array(FIXTURE_RANK),
                                             ln.RankThresholdsPolicy(base=0.9))
        assert np.array_equal(q, np.full(4, 0.9))

    def test_nan_rank_rejected(self):
        policy = ln.RankThresholdsPolicy(base=0.9, steps=((0.5, 0.09),))
        with pytest.raises(ln.InvalidValueError) as info:
            ln.assign_survival_probabilities(np.array([math.nan, 0.9]), policy)
        assert info.value.field == "rank[0]"

    def test_ceiling_must_stay_below_one(self):
        with pytest.raises(ValueError, match="below 1"):
            ln.RankThresholdsPolicy(base=0.9, steps=((0.5, 0.05), (0.7, 0.05)))

    def test_thresholds_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            ln.RankThresholdsPolicy(base=0.5, steps=((0.7, 0.1), (0.6, 0.1)))

    @given(st.lists(st.floats(0.0, 2.0), min_size=2, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_rank(self, ranks):
        q = ln.assign_survival_probabilities(np.array(ranks), self.policy())
        order = np.argsort(ranks)
        assert np.all(np.diff(q[order]) >= 0)
        assert np.all((q >= 0) & (q < 1))


class TestPipelineReproducesFixtureMatrix:
    """The full pipeline on the shipped network reproduces the bundled
    rounded Google matrix, eigenvalue, and rank."""

    def test_google_matrix_matches_to_rounding(self, case_config,
                                               case_network, printed_google):
        result = ln.rank_network(case_network, case_config.weights)
        assert np.max(np.abs(result.google - printed_google)) < 5e-5

    def test_eigenpair_matches_fixture_rounding(self, case_config,
                                                  case_network):
        result = ln.rank_network(case_network, case_config.weights)
        assert result.eigenvalue == pytest.approx(FIXTURE_EIGENVALUE,
                                                  abs=1e-3)
        assert result.rank == pytest.approx(FIXTURE_RANK, abs=1e-3)
        assert int(np.argmax(result.rank)) == 2

    def test_formula_as_written_does_not_reproduce_fixture(self,
                                                           printed_google):
        # independent arithmetic oracle, creditor table fed verbatim with
        # pure credit weighting: the result is far from the fixture matrix,
        # while the debtor-oriented transpose with pure debt weighting
        # reproduces it to its four-decimal rounding
        gamma, _ = gamma_oracle(CREDITOR_TABLE, CASE_CASH, 0.0, 1.0)
        as_written = google_oracle(gamma, 0.85)
        deviation = np.max(np.abs(np.array(as_written) - printed_google))
        assert deviation > 0.1

        debtor = np.array(CREDITOR_TABLE).T.tolist()
        gamma_t, _ = gamma_oracle(debtor, CASE_CASH, 1.0, 0.0)
        swapped = google_oracle(gamma_t, 0.85)
        assert np.max(np.abs(np.array(swapped) - printed_google)) < 5e-5
