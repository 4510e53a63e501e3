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
                               growth_rate=growth, horizon=horizon)


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
                                vol=[0], growth_rate=0, horizon=1)

    def test_rejects_overflowing_obligations(self):
        big = 1e308
        with pytest.raises(ln.InvalidValueError, match="^liabilities: row"):
            tiny_net([[0, big, big], [0, 0, 0], [0, 0, 0]], [1, 1, 1])
        with pytest.raises(ln.InvalidValueError, match="^growth_rate: grown"):
            tiny_net([[0, big], [0, 0]], [1, 1], growth=1.0)
        # a negative rate shrinks obligations, so only time 0 counts
        tiny_net([[0, big], [0, 0]], [1, 1], growth=-1.0)

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
        for t in (1.5, -0.1, math.nan):
            with pytest.raises(ln.InvalidValueError) as info:
                ln.total_obligations(case_network, t)
            assert str(info.value) == f"t: must lie in [0, 1.0], got {t!r}"


class TestRelativeLiabilities:
    def test_zero_matrix(self):
        net = tiny_net([[0, 0], [0, 0]], [1, 1])
        assert np.array_equal(ln.relative_liabilities(net),
                              np.zeros((2, 2)))

    def test_negative_zero_debt_row_reads_positive_zero(self):
        # -0.0 passes the non-negativity check; a row that owes nothing is
        # +0.0 however its zeros are signed
        net = tiny_net([[0.0, -0.0, -0.0], [-0.0, 0.0, 2.0],
                        [1.0, 3.0, 0.0]], [1, 1, 1])
        pi = ln.relative_liabilities(net)
        assert not np.signbit(pi[0]).any()
        assert np.array_equal(pi, [[0, 0, 0], [0, 0, 1], [0.25, 0.75, 0]])

    def test_case_study_bank1_row(self, case_network):
        # bank 1 owes 5 and 10 out of 15
        row = ln.relative_liabilities(case_network)[0]
        assert row == pytest.approx([0.0, 1/3, 0.0, 2/3], abs=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one_or_zero(self, seed):
        net = random_network(np.random.default_rng(seed))
        sums = ln.relative_liabilities(net).sum(axis=1)
        assert np.all((np.abs(sums - 1.0) <= 1e-12) | (sums == 0.0))


class TestClearingVector:
    def test_mutual_debts_pay_in_full(self):
        # the first round finds both banks solvent: 1 ^ (1 + 0.5) = 1
        net = tiny_net([[0, 1], [1, 0]], [0.5, 0.5])
        res = ln.clearing_vector(net)
        assert res.payments == pytest.approx([1.0, 1.0], abs=1e-12)
        assert not res.defaulted.any()
        assert res.iterations == 1

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
        expected = net.cash + ln.relative_liabilities(net).T @ ubar - ubar
        assert res.values == pytest.approx(expected, abs=1e-12)
        assert np.all(res.values >= 0)

    @pytest.mark.parametrize("leak", [0.01, 0.001])
    def test_leaky_zero_cash_ring_pays_nothing(self, leak):
        # ten cashless banks each owe 1 - leak to the next and leak to a
        # sink; a step-size stopping rule stops short of 0 or runs out here
        liab = np.zeros((11, 11))
        for i in range(10):
            liab[i, (i + 1) % 10] = 1.0 - leak
            liab[i, 10] = leak
        res = ln.clearing_vector(tiny_net(liab, [0.0] * 11))
        assert np.all(res.payments == 0.0)
        assert res.residual == 0.0
        assert res.defaulted.tolist() == [True] * 10 + [False]

    # cashless closed classes: the star balances every bank's inflow and
    # outflow, so all pay in full; in the chain B owes 0.3 but receives 0.2
    # at most, and C is paid exactly what it owes, so C stays solvent
    @pytest.mark.parametrize("liab, growth, t, defaulted", [
        ([[0, 0.1, 0.3], [0.1, 0, 0], [0.3, 0, 0]], 0.1, 0.0, [False] * 3),
        ([[0, 0.1, 0.3], [0.1, 0, 0], [0.3, 0, 0]], 0.1, 0.5, [False] * 3),
        ([[0, 0.1, 0.3], [0.1, 0, 0], [0.3, 0, 0]], 0.1, 1.0, [False] * 3),
        ([[0, 0.1, 0], [0.1, 0, 0.2], [0, 0.1, 0]], 0.0, 0.0,
         [True, True, False]),
        ([[0, 0.1, 0], [0.1, 0, 0.2], [0, 0.1, 0]], 0.05, 1.0,
         [True, True, False]),
    ])
    def test_zero_cash_closed_class_keeps_zero_equity_banks_solvent(
            self, liab, growth, t, defaulted):
        net = tiny_net(liab, [0.0] * 3, growth=growth)
        res = ln.clearing_vector(net, t)
        assert res.payments == pytest.approx(
            clearing_oracle(liab, [0.0] * 3, growth, t), abs=1e-12)
        assert res.defaulted.tolist() == defaulted

    def test_zero_cash_strongly_connected_networks_match_oracle(self):
        # a closed class without cash has a solvent bank with zero equity
        # at the greatest clearing vector; rounding must not default it
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            liab = np.round(rng.uniform(0.01, 1.0, (n, n))
                            * (rng.random((n, n)) < 0.5), 2)
            np.fill_diagonal(liab, 0.0)
            liab[np.arange(n), (np.arange(n) + 1) % n] += 0.1
            growth, t = float(rng.uniform(0.0, 0.2)), float(rng.uniform(0, 1))
            res = ln.clearing_vector(tiny_net(liab, [0.0] * n, growth), t)
            oracle = clearing_oracle(liab.tolist(), [0.0] * n, growth, t)
            assert res.payments == pytest.approx(oracle, abs=1e-9)
            assert not res.defaulted.all()

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
                ubar, ln.relative_liabilities(net).T @ res.payments + net.cash)
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
                drift=net.drift, vol=net.vol, growth_rate=net.growth_rate,
                horizon=net.horizon)
            res_up = ln.clearing_vector(bumped)
            assert np.all(res_up.payments >= res.payments - 1e-9)

    def test_picard_iterates_decrease_from_full_payment(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            net = random_network(rng)
            ubar = ln.total_obligations(net, 0.0)
            pi_t = ln.relative_liabilities(net).T
            u = ubar.copy()
            for _ in range(50):
                nxt = np.minimum(ubar, pi_t @ u + net.cash)
                assert np.all(nxt <= u + 1e-12)
                u = nxt


class TestDefaultBoundary:
    def test_case_study_bank3_at_horizon(self, case_network):
        # nobody owes bank 3, so the boundary is its full grown obligation
        assert ln.default_boundary(case_network)[2] == pytest.approx(
            B3_OBLIGATION_T1, abs=1e-12)

    def test_case_study_bank1_at_horizon(self, case_network):
        # owes 15, is owed 10, grown by exp(0.08)
        assert ln.default_boundary(case_network)[0] == pytest.approx(
            B1_BOUNDARY_T1, abs=1e-12)

    def test_net_creditors_have_negative_boundary(self, case_network):
        boundary = ln.default_boundary(case_network)
        assert boundary[1] < 0
        assert boundary[3] < 0
