import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lolrnet as ln
from _support import (B1_BOUNDARY_T1, B3_OBLIGATION_T1, CASE_GROWTH,
                      clearing_oracle, random_network)


def tiny_net(liabilities, cash, growth=0.0, horizon=1.0):
    n = len(cash)
    return ln.FinancialNetwork(liabilities=liabilities, cash=cash,
                               drift=[0.1] * n, vol=[0.2] * n,
                               recovery=[0.5] * n, growth_rate=growth,
                               horizon=horizon)


class TestFinancialNetworkInvariants:
    def test_rejects_negative_liability(self):
        with pytest.raises(ValueError, match="non-negative"):
            tiny_net([[0, -1], [0, 0]], [1, 1])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            tiny_net([[1, 0], [0, 0]], [1, 1])

    def test_rejects_nonpositive_vol(self):
        with pytest.raises(ValueError, match="vol"):
            ln.FinancialNetwork(liabilities=[[0]], cash=[1], drift=[0],
                                vol=[0], recovery=[0.5], growth_rate=0,
                                horizon=1)

    def test_rejects_recovery_outside_open_interval(self):
        for r in (0.0, 1.0):
            with pytest.raises(ValueError, match="recovery"):
                ln.FinancialNetwork(liabilities=[[0]], cash=[1], drift=[0],
                                    vol=[1], recovery=[r], growth_rate=0,
                                    horizon=1)

    def test_arrays_are_read_only(self):
        net = tiny_net([[0, 1], [0, 0]], [1, 1])
        with pytest.raises(ValueError):
            net.liabilities[0, 1] = 5.0


class TestTotalObligations:
    def test_zero_matrix_gives_zero_vector(self):
        net = tiny_net([[0, 0], [0, 0]], [1, 1])
        assert np.array_equal(ln.total_obligations(net, 0.7), [0.0, 0.0])

    def test_case_study_bank3_at_horizon(self, case_network):
        # oracle: bank 3 owes 10 + 5, grown by exp(0.08)
        got = ln.total_obligations(case_network, 1.0)[2]
        assert got == pytest.approx(B3_OBLIGATION_T1, abs=1e-12)
        assert got == pytest.approx(15.0 * math.exp(CASE_GROWTH), abs=1e-12)

    def test_zero_growth_is_time_invariant(self):
        net = tiny_net([[0, 2, 1], [0, 0, 3], [1, 0, 0]], [1, 1, 1])
        assert np.array_equal(ln.total_obligations(net, 0.0),
                              ln.total_obligations(net, 0.9))

    def test_time_outside_horizon_rejected(self, case_network):
        with pytest.raises(ValueError, match="outside"):
            ln.total_obligations(case_network, 1.5)
        with pytest.raises(ValueError, match="outside"):
            ln.total_obligations(case_network, -0.1)


class TestRelativeLiabilities:
    def test_zero_matrix(self):
        net = tiny_net([[0, 0], [0, 0]], [1, 1])
        assert np.array_equal(ln.relative_liabilities(net, 0.0),
                              np.zeros((2, 2)))

    def test_case_study_bank1_row(self, case_network):
        # bank 1 owes 5 and 10 out of 15
        row = ln.relative_liabilities(case_network, 0.0)[0]
        assert row == pytest.approx([0.0, 1/3, 0.0, 2/3], abs=1e-15)

    def test_growth_cancels(self, case_network):
        assert np.array_equal(ln.relative_liabilities(case_network, 0.0),
                              ln.relative_liabilities(case_network, 1.0))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_or_zero(self, seed):
        net = random_network(np.random.default_rng(seed))
        sums = ln.relative_liabilities(net, 0.0).sum(axis=1)
        assert np.all((np.abs(sums - 1.0) <= 1e-12) | (sums == 0.0))


class TestClearingVector:
    def test_mutual_debts_pay_in_full(self):
        # one Picard step verifies 1 ^ (1 + 0.5) = 1
        net = tiny_net([[0, 1], [1, 0]], [0.5, 0.5])
        res = ln.clearing_vector(net)
        assert res.payments == pytest.approx([1.0, 1.0], abs=1e-12)
        assert not res.defaulted.any()

    def test_no_inflow_nothing_payable(self):
        net = tiny_net([[0, 1], [0, 0]], [0.0, 0.0])
        res = ln.clearing_vector(net)
        assert res.payments == pytest.approx([0.0, 0.0], abs=1e-12)
        assert res.defaulted.tolist() == [True, False]
        assert res.values == pytest.approx([0.0, 0.0])

    def test_rich_network_pays_everything(self):
        liab = [[0, 2, 0], [1, 0, 1], [3, 0, 0]]
        net = tiny_net(liab, [10.0, 10.0, 10.0])
        res = ln.clearing_vector(net)
        ubar = ln.total_obligations(net, 0.0)
        assert np.array_equal(res.payments, ubar)
        expected = net.cash + ln.relative_liabilities(net, 0.0).T @ ubar - ubar
        assert res.values == pytest.approx(expected, abs=1e-12)
        assert np.all(res.values >= 0)

    def test_iteration_limit_error_carries_state(self):
        net = tiny_net([[0, 1], [0, 0]], [0.0, 0.0])
        with pytest.raises(ln.ConvergenceError) as info:
            ln.clearing_vector(net, max_iter=1)
        assert info.value.residual > 0
        assert info.value.last_iterate.shape == (2,)

    def test_parameter_validation(self, case_network):
        with pytest.raises(ValueError):
            ln.clearing_vector(case_network, tol=0.0)
        with pytest.raises(ValueError):
            ln.clearing_vector(case_network, max_iter=0)

    @pytest.mark.parametrize("kwargs", [
        dict(tol=math.nan), dict(max_iter=math.nan), dict(max_iter=2.5),
        dict(max_iter=math.inf), dict(max_iter=True),
    ], ids=["tol-nan", "max_iter-nan", "max_iter-2.5", "max_iter-inf",
            "max_iter-bool"])
    def test_nan_and_non_integer_parameters(self, case_network, kwargs):
        with pytest.raises(ValueError):
            ln.clearing_vector(case_network, **kwargs)

    def test_near_full_payment_not_flagged(self):
        # shortfall below the relative flag tolerance
        net = tiny_net([[0, 1], [0, 0]], [1.0 - 1e-12, 0.0])
        res = ln.clearing_vector(net)
        assert not res.defaulted[0]

    def test_lattice_bounds_and_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            net = random_network(rng)
            t = float(rng.uniform(0, net.horizon))
            res = ln.clearing_vector(net, t)
            ubar = ln.total_obligations(net, t)
            assert np.all(res.payments >= -1e-12)
            assert np.all(res.payments <= ubar + 1e-12)
            mapped = np.minimum(
                ubar, ln.relative_liabilities(net, t).T @ res.payments + net.cash)
            assert np.max(np.abs(res.payments - mapped)) <= 1e-9

    def test_matches_double_start_oracle_and_monotone_in_cash(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            net = random_network(rng)
            liab = net.liabilities.tolist()
            cash = net.cash.tolist()
            res = ln.clearing_vector(net)
            down = clearing_oracle(liab, cash, start_full=True)
            up = clearing_oracle(liab, cash, start_full=False)
            assert res.payments == pytest.approx(down, abs=1e-8)
            if max(abs(a - b) for a, b in zip(down, up)) <= 1e-8:
                assert res.payments == pytest.approx(up, abs=1e-7)
            # bump one cash entry: no payment may decrease
            k = int(rng.integers(net.n))
            bumped_cash = net.cash.copy()
            bumped_cash[k] += float(rng.uniform(0.1, 3.0))
            bumped = ln.FinancialNetwork(
                liabilities=net.liabilities, cash=bumped_cash,
                drift=net.drift, vol=net.vol, recovery=net.recovery,
                growth_rate=net.growth_rate, horizon=net.horizon)
            res_up = ln.clearing_vector(bumped)
            assert np.all(res_up.payments >= res.payments - 1e-9)

    def test_picard_iterates_decrease_from_full_payment(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            net = random_network(rng)
            ubar = ln.total_obligations(net, 0.0)
            pi_t = ln.relative_liabilities(net, 0.0).T
            u = ubar.copy()
            for _ in range(50):
                nxt = np.minimum(ubar, pi_t @ u + net.cash)
                assert np.all(nxt <= u + 1e-12)
                u = nxt


class TestNetLiabilityMatrix:
    def test_zero_payments_identity(self, case_network):
        assert np.array_equal(
            ln.net_liability_matrix(case_network, np.zeros(4)),
            case_network.liabilities)

    def test_full_payments_zero_row_sums(self, case_network):
        payments = case_network.liabilities.sum(axis=1)
        tilde = ln.net_liability_matrix(case_network, payments)
        assert tilde.sum(axis=1) == pytest.approx(np.zeros(4), abs=1e-12)

    def test_case_study_bank2_diagonal(self, case_network):
        tilde = ln.net_liability_matrix(case_network, [0.0, 4.0, 0.0, 0.0])
        assert tilde[1, 1] == -4.0

    def test_wrong_length_rejected(self, case_network):
        with pytest.raises(ValueError):
            ln.net_liability_matrix(case_network, [1.0, 2.0])


class TestDefaultBoundary:
    def test_case_study_bank3_at_horizon(self, case_network):
        # nobody owes bank 3, so the boundary is its full grown obligation
        assert ln.default_boundary(case_network, 2, 1.0) == pytest.approx(
            B3_OBLIGATION_T1, abs=1e-12)

    def test_case_study_bank1_at_horizon(self, case_network):
        # owes 15, is owed 10, grown by exp(0.08)
        assert ln.default_boundary(case_network, 0, 1.0) == pytest.approx(
            B1_BOUNDARY_T1, abs=1e-12)

    def test_net_creditors_have_negative_boundary(self, case_network):
        assert ln.default_boundary(case_network, 1, 1.0) < 0
        assert ln.default_boundary(case_network, 3, 1.0) < 0

    def test_recovery_scales_pre_horizon_boundary(self, case_network):
        # recovery 0.5 in the fixture: half the unscaled net obligation
        ubar = ln.total_obligations(case_network, 0.4)
        incoming = ln.relative_liabilities(case_network, 0.4).T @ ubar
        unscaled = ubar[0] - incoming[0]
        assert ln.default_boundary(case_network, 0, 0.4) == pytest.approx(
            0.5 * unscaled, abs=1e-12)

    def test_linear_in_recovery_before_horizon(self):
        nets = [tiny_net([[0, 3], [1, 0]], [1, 1]) for _ in range(1)]
        base = nets[0]
        scaled = ln.FinancialNetwork(
            liabilities=base.liabilities, cash=base.cash, drift=base.drift,
            vol=base.vol, recovery=[0.8, 0.8], growth_rate=0.0, horizon=1.0)
        v_half = ln.default_boundary(base, 0, 0.3)
        v_08 = ln.default_boundary(scaled, 0, 0.3)
        assert v_08 == pytest.approx(v_half * 0.8 / 0.5, abs=1e-12)

    def test_continuous_in_time_before_horizon(self, case_network):
        times = np.linspace(0.0, 0.999, 200)
        values = [ln.default_boundary(case_network, 0, t) for t in times]
        diffs = np.abs(np.diff(values))
        assert diffs.max() < 1e-2  # smooth exponential, no jumps before T

    def test_index_out_of_range(self, case_network):
        with pytest.raises(IndexError):
            ln.default_boundary(case_network, 4, 0.0)
        for index in ([0, 4], [-1, 2]):
            with pytest.raises(IndexError):
                ln.default_boundary(case_network, np.array(index), 0.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_index_array_matches_scalar_calls_exactly(self, case_network,
                                                      seed):
        for net in (case_network, random_network(np.random.default_rng(seed))):
            for t in (0.5 * net.horizon, net.horizon):
                batch = ln.default_boundary(net, np.arange(net.n), t)
                assert isinstance(batch, np.ndarray)
                assert batch.tolist() == [ln.default_boundary(net, i, t)
                                          for i in range(net.n)]


class TestGraphMatrices:
    def test_empty_graph(self):
        net = tiny_net([[0, 0], [0, 0]], [1, 1])
        gm = ln.build_graph_matrices(net)
        assert gm.m == 0
        assert np.array_equal(gm.adjacency, np.zeros((2, 2), dtype=int))

    def test_case_study_edge_count(self, case_network):
        assert ln.build_graph_matrices(case_network).m == 6

    def test_single_liability(self):
        net = tiny_net([[0, 2], [0, 0]], [1, 1])
        gm = ln.build_graph_matrices(net)
        assert gm.adjacency_in[0, 1] == 1
        assert gm.adjacency.tolist() == [[0, 1], [1, 0]]

    def test_structural_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            net = random_network(rng)
            gm = ln.build_graph_matrices(net)
            assert np.array_equal(gm.adjacency, gm.adjacency.T)
            assert np.all(np.diag(gm.adjacency) == 0)
            assert np.array_equal(gm.adjacency_in, gm.adjacency_out.T)
            assert np.array_equal(gm.adjacency,
                                  gm.adjacency_in + gm.adjacency_out)
            if gm.m:
                assert np.all(gm.incidence_in.sum(axis=0) == 1)
                assert np.all(gm.incidence_out.sum(axis=0) == 1)
