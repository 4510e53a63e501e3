import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lolrnet as ln
from _support import (B1_BOUNDARY_T1, B1_SURVIVAL_UNCONTROLLED,
                      B3_OBLIGATION_T1, B3_PSI_STAR,
                      B3_SURVIVAL_UNCONTROLLED, RHO_Q90, RHO_Q99,
                      Y1_THRESHOLD, Y1_THRESHOLD_Q95, Y3_THRESHOLD)

BANK1 = ln.ControlProblem(mu=0.2, sigma=0.1, v_terminal=B1_BOUNDARY_T1,
                          horizon_remaining=1.0, q=0.9)
BANK3 = ln.ControlProblem(mu=0.3, sigma=0.2, v_terminal=B3_OBLIGATION_T1,
                          horizon_remaining=1.0, q=0.99)


class TestControlProblemInvariants:
    def test_rejections(self):
        good = dict(mu=0.1, sigma=0.2, v_terminal=1.0, horizon_remaining=1.0,
                    q=0.5)
        ln.ControlProblem(**good)
        for bad in (dict(sigma=0.0), dict(horizon_remaining=0.0),
                    dict(q=0.0), dict(q=1.0), dict(v_terminal=0.0),
                    dict(psi_cap=0.0)):
            with pytest.raises(ValueError):
                ln.ControlProblem(**{**good, **bad})


class TestRho:
    def test_half_is_zero(self):
        assert ln.rho(0.5) == 0.0
        # +0.0, so a uniform q = 0.5 never renders as -0
        assert math.copysign(1.0, ln.rho(0.5)) == 1.0

    def test_q90(self):
        # oracle: high-precision standard normal quantile of 0.1
        assert ln.rho(0.9) == pytest.approx(RHO_Q90, abs=1e-4)

    def test_q99(self):
        assert ln.rho(0.99) == pytest.approx(RHO_Q99, abs=1e-4)

    def test_deep_tail(self):
        # oracle: mpmath's normal quantile of 1e-12, negated
        assert ln.rho(1e-12) == pytest.approx(7.034483825301132, rel=1e-15)

    def test_domain(self):
        for q in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                ln.rho(q)

    @given(st.floats(1e-3, 1.0 - 1e-3))
    @settings(max_examples=200, deadline=None)
    def test_antisymmetry(self, q):
        assert abs(ln.rho(q) + ln.rho(1.0 - q)) <= 1e-12

    def test_antisymmetry_exact_on_representable_complements(self):
        # dyadic grid: q and 1 - q are both exact, so the mirrored
        # evaluation must cancel to zero
        for k in range(1, 4096):
            q = k / 4096.0
            assert ln.rho(q) + ln.rho(1.0 - q) == 0.0

    def test_tail_round_trip(self):
        # the normal tail 0.5 * erfc(z / sqrt(2)) must invert rho to near
        # machine precision, deep in the lower tail included
        qs = np.concatenate([np.geomspace(1e-300, 1.0 - 1e-12, 3001),
                             1.0 - np.geomspace(1e-12, 0.5, 501)])
        for q in qs:
            back = 0.5 * math.erfc(ln.rho(float(q)) / math.sqrt(2.0))
            assert abs(back - q) <= 1e-12 * q


class TestSurvivalProbability:
    def test_bank1_uncontrolled(self):
        got = ln.survival_probability(BANK1, 5.2, 0.0)
        assert got == pytest.approx(B1_SURVIVAL_UNCONTROLLED, abs=1e-12)
        assert 1.0 - got == pytest.approx(0.062, abs=1e-3)

    def test_bank3_uncontrolled(self):
        got = ln.survival_probability(BANK3, 13.0, 0.0)
        assert got == pytest.approx(B3_SURVIVAL_UNCONTROLLED, abs=1e-12)
        assert 1.0 - got == pytest.approx(0.388, abs=1e-3)

    @pytest.mark.parametrize("d, expected", [
        (3.0, 1.104524849929272e-05),
        (5.0, 7.687298972140175e-13),
        (6.0, 1.0759868356249456e-17),
    ])
    def test_deep_distress_tail(self, d, expected):
        # sigma = 1 and tau = 0.5 make the erfc argument exactly
        # -(mu - 1/2) / 2 at x = v_terminal; oracle values from mpmath.
        # 1 - erf(d) cancels here, and is exactly 0 beyond d = 5.9
        p = ln.ControlProblem(mu=0.5 - 2.0 * d, sigma=1.0, v_terminal=1.0,
                              horizon_remaining=0.5, q=0.5)
        got = ln.survival_probability(p, 1.0, 0.0)
        assert abs(got - expected) <= 4 * math.ulp(expected)

    def test_symmetric_point_is_half(self):
        p = ln.ControlProblem(mu=0.15, sigma=0.3, v_terminal=2.0,
                              horizon_remaining=2.0, q=0.7)
        psi = 0.05
        x = p.v_terminal * math.exp(-(p.mu + psi - p.sigma**2 / 2)
                                    * p.horizon_remaining)
        assert ln.survival_probability(p, x, psi) == pytest.approx(0.5,
                                                                   abs=1e-14)

    def test_strictly_increasing_in_x_and_psi(self):
        xs = np.linspace(5.0, 25.0, 30)
        probs = [ln.survival_probability(BANK3, x, 0.0) for x in xs]
        assert np.all(np.diff(probs) > 0)
        psis = np.linspace(0.0, 1.0, 30)
        probs = [ln.survival_probability(BANK3, 13.0, s) for s in psis]
        assert np.all(np.diff(probs) > 0)

    def test_domain(self):
        with pytest.raises(ValueError):
            ln.survival_probability(BANK3, 0.0, 0.0)
        with pytest.raises(ValueError):
            ln.survival_probability(BANK3, 13.0, -0.1)

    def test_rate_above_cap_rejected(self):
        capped = dataclasses.replace(BANK3, psi_cap=0.5)
        assert ln.survival_probability(capped, 13.0, 0.5) > 0.0
        with pytest.raises(ln.InvalidValueError) as info:
            ln.survival_probability(capped, 13.0, 0.6)
        assert str(info.value) == "psi: must not exceed psi_cap 0.5"


class TestRateCheck:
    @pytest.mark.parametrize("psi", [-0.1, math.nan, math.inf, True, "0.1",
                                     None])
    def test_one_rule_for_every_rate_input(self, case_network, psi):
        # the closed forms and the path rebuild reject a rate alike; BANK3
        # is uncapped, so survival_probability refuses inf by this rule
        assert BANK3.psi_cap == math.inf
        calls = [lambda: ln.survival_probability(BANK3, 13.0, psi),
                 lambda: ln.value_function(BANK3, 13.0, psi),
                 lambda: ln.bank_paths(case_network, 2, psi,
                                       ln.SimConfig(paths=2))]
        messages = set()
        for call in calls:
            with pytest.raises(ln.InvalidValueError) as info:
                call()
            assert info.value.field == "psi"
            messages.add(info.value.message)
        assert len(messages) == 1


class TestSwitchingRate:
    def test_bank3_rate(self):
        got = ln.switching_rate(BANK3, 13.0)
        assert got == pytest.approx(B3_PSI_STAR, abs=1e-12)
        assert got == pytest.approx(0.40837, abs=1e-5)

    def test_round_trip_on_bank3(self):
        rate = ln.switching_rate(BANK3, 13.0)
        assert ln.survival_probability(BANK3, 13.0, rate) == pytest.approx(
            0.99, abs=1e-12)

    def test_median_target_drops_quantile_term(self):
        p = ln.ControlProblem(mu=0.12, sigma=0.25, v_terminal=3.0,
                              horizon_remaining=1.5, q=0.5)
        expected = (p.sigma**2 / 2 - p.mu) \
            + math.log(p.v_terminal / 2.0) / p.horizon_remaining
        assert ln.switching_rate(p, 2.0) == pytest.approx(expected, abs=1e-14)

    def test_zero_on_the_no_action_curve(self):
        x = math.exp(ln.no_action_threshold(BANK3))
        assert ln.switching_rate(BANK3, x) == pytest.approx(0.0, abs=1e-12)

    def test_strictly_decreasing_in_x(self):
        xs = np.linspace(2.0, 30.0, 50)
        rates = [ln.switching_rate(BANK3, x) for x in xs]
        assert np.all(np.diff(rates) < 0)


class TestNoActionThreshold:
    def test_bank1(self):
        assert ln.no_action_threshold(BANK1) == pytest.approx(Y1_THRESHOLD,
                                                              abs=1e-5)

    def test_bank3(self):
        assert ln.no_action_threshold(BANK3) == pytest.approx(Y3_THRESHOLD,
                                                              abs=1e-4)

    def test_correction_terms_vanish(self):
        p = ln.ControlProblem(mu=0.02, sigma=0.2, v_terminal=7.0,
                              horizon_remaining=1.0, q=0.5)
        assert ln.no_action_threshold(p) == pytest.approx(math.log(7.0),
                                                          abs=1e-14)

    def test_increasing_in_q(self):
        qs = np.linspace(0.05, 0.95, 40)
        ys = [ln.no_action_threshold(
            ln.ControlProblem(mu=0.2, sigma=0.1,
                              v_terminal=B1_BOUNDARY_T1,
                              horizon_remaining=1.0, q=q)) for q in qs]
        assert np.all(np.diff(ys) > 0)


class TestClassify:
    def test_bank1_needs_no_action(self):
        decision = ln.classify(BANK1, 5.2)
        assert decision.region is ln.Region.NO_ACTION
        assert decision.psi_star == 0.0
        assert decision.expected_cost == 0.0
        assert math.log(5.2) > decision.threshold_log_x

    def test_bank3_action_uncapped(self):
        decision = ln.classify(BANK3, 13.0)
        assert decision.region is ln.Region.ACTION
        assert decision.psi_star == pytest.approx(B3_PSI_STAR, abs=1e-12)
        assert decision.expected_cost > 0

    def test_bank3_infeasible_under_small_cap(self):
        capped = ln.ControlProblem(mu=0.3, sigma=0.2,
                                   v_terminal=B3_OBLIGATION_T1,
                                   horizon_remaining=1.0, q=0.99, psi_cap=0.1)
        decision = ln.classify(capped, 13.0)
        assert decision.region is ln.Region.INFEASIBLE
        assert decision.psi_star is None
        assert decision.expected_cost == math.inf

    def test_boundary_ties(self):
        x_zero = math.exp(ln.no_action_threshold(BANK3))
        assert ln.classify(BANK3, x_zero).region is ln.Region.NO_ACTION
        rate = ln.switching_rate(BANK3, 13.0)
        capped = ln.ControlProblem(mu=0.3, sigma=0.2,
                                   v_terminal=B3_OBLIGATION_T1,
                                   horizon_remaining=1.0, q=0.99,
                                   psi_cap=rate)
        assert ln.classify(capped, 13.0).region is ln.Region.ACTION

    def test_region_ordering_with_finite_cap(self):
        capped = ln.ControlProblem(mu=0.3, sigma=0.2,
                                   v_terminal=B3_OBLIGATION_T1,
                                   horizon_remaining=1.0, q=0.99,
                                   psi_cap=0.25)
        x_high = math.exp(ln.no_action_threshold(capped))
        x_low = x_high * math.exp(-capped.psi_cap * capped.horizon_remaining)
        for x in np.linspace(0.2 * x_low, 0.95 * x_low, 7):
            assert ln.classify(capped, x).region is ln.Region.INFEASIBLE
        for x in np.linspace(1.05 * x_low, 0.95 * x_high, 7):
            assert ln.classify(capped, x).region is ln.Region.ACTION
        for x in np.linspace(1.05 * x_high, 3.0 * x_high, 7):
            assert ln.classify(capped, x).region is ln.Region.NO_ACTION


class TestValueFunction:
    def test_zero_rate_costs_nothing(self):
        assert ln.value_function(BANK3, 13.0, 0.0) == 0.0

    def test_closed_form_value_bank3(self):
        # oracle: 0.5 psi^2 x^2 expm1(c)/c with c = 2(mu+psi) + sigma^2;
        # the Monte Carlo engine cross-checks this in the acceptance suite
        got = ln.value_function(BANK3, 13.0, B3_PSI_STAR)
        c = 2 * (0.3 + B3_PSI_STAR) + 0.04
        expected = 0.5 * B3_PSI_STAR**2 * 169.0 * math.expm1(c) / c
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(31.844615022035097, abs=1e-9)

    def test_overflowing_exponential(self):
        # c * tau = 1387.9: exp(c * tau) overflows, x^2 * exp(c * tau) need
        # not; expected value from mpmath at 50 digits
        psi = 693.6125488247062
        assert ln.value_function(BANK3, 1e-300, psi) == pytest.approx(
            95721.64842512815, rel=1e-12)
        assert ln.value_function(BANK3, 1.0, psi) == math.inf
        # a zero rate costs nothing even where exp(c * tau) overflows
        fast = ln.ControlProblem(mu=400.0, sigma=0.2, v_terminal=1.0,
                                 horizon_remaining=1.0, q=0.5)
        assert ln.value_function(fast, 1.0, 0.0) == 0.0

    def test_removable_singularity_branch(self):
        # dyadic values make c = 2(mu + psi) + sigma^2 == 0 exactly
        p = ln.ControlProblem(mu=-0.625, sigma=0.5, v_terminal=1.0,
                              horizon_remaining=0.25, q=0.5)
        assert 2 * (p.mu + 0.5) + p.sigma**2 == 0.0
        assert ln.value_function(p, 1.0, 0.5) == pytest.approx(
            0.5 * 0.25 * 0.25, abs=1e-15)

    def test_continuity_across_singularity(self):
        tau, psi, x = 0.1, 0.5, 1.0
        at_zero = 0.5 * psi**2 * x**2 * tau
        for c in (1e-7, -1e-7):
            mu = (c - 0.1**2) / 2 - psi
            p = ln.ControlProblem(mu=mu, sigma=0.1, v_terminal=1.0,
                                  horizon_remaining=tau, q=0.5)
            assert abs(ln.value_function(p, x, psi) - at_zero) < 1e-9

    def test_nonnegative_and_increasing_in_psi(self):
        psis = np.linspace(0.0, 2.0, 40)
        values = [ln.value_function(BANK3, 13.0, s) for s in psis]
        assert values[0] == 0.0
        assert np.all(np.diff(values) > 0)


class TestNanInputs:
    @pytest.mark.parametrize("call", [
        lambda: ln.survival_probability(BANK3, math.nan, 0.0),
        lambda: ln.survival_probability(BANK3, 13.0, math.nan),
        lambda: ln.switching_rate(BANK3, math.nan),
        lambda: ln.value_function(BANK3, math.nan, B3_PSI_STAR),
        lambda: ln.value_function(BANK3, 13.0, math.nan),
        lambda: ln.value_function(BANK3, 13.0, math.inf),
        lambda: ln.classify(BANK3, math.nan),
    ], ids=["survival-x", "survival-psi", "switching-x", "value-x",
            "value-psi", "value-psi-inf", "classify-x"])
    def test_rejected(self, call):
        with pytest.raises(ValueError):
            call()


class TestRoundTripProperty:
    @given(st.floats(-0.5, 0.8), st.floats(0.05, 1.0), st.floats(0.1, 50.0),
           st.floats(0.05, 4.0), st.floats(0.01, 0.99), st.floats(0.01, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_survival_of_switching_rate_is_q(self, mu, sigma, v, tau, q,
                                             target_rate):
        p = ln.ControlProblem(mu=mu, sigma=sigma, v_terminal=v,
                              horizon_remaining=tau, q=q)
        # place x so the switching rate equals target_rate > 0
        offset = (sigma**2 / 2 - mu) - sigma * ln.rho(q) / math.sqrt(tau)
        log_x = math.log(v) + (offset - target_rate) * tau
        if abs(log_x) > 50:
            return
        x = math.exp(log_x)
        rate = ln.switching_rate(p, x)
        assert rate == pytest.approx(target_rate, rel=1e-9, abs=1e-9)
        assert ln.survival_probability(p, x, rate) == pytest.approx(
            q, abs=1e-10)


class TestNetworkDecision:
    def test_case_study_regions(self, case_network, case_q):
        decisions = ln.network_decision(case_network, case_q)
        regions = [d.region for d in decisions]
        assert regions == [ln.Region.NO_ACTION, ln.Region.NO_ACTION,
                           ln.Region.ACTION, ln.Region.NO_ACTION]
        # net creditors carry no threshold and survive surely
        for i in (1, 3):
            assert decisions[i].threshold_log_x is None
            assert decisions[i].survival_prob_uncontrolled == 1.0
        assert decisions[2].psi_star == pytest.approx(B3_PSI_STAR, abs=1e-9)

    def test_raising_bank1_target_forces_action(self, case_network):
        q = np.array([0.95, 0.9, 0.99, 0.9])
        decisions = ln.network_decision(case_network, q)
        assert decisions[0].region is ln.Region.ACTION
        assert decisions[0].threshold_log_x == pytest.approx(
            Y1_THRESHOLD_Q95, abs=1e-4)
        assert decisions[0].threshold_log_x > math.log(5.2)

    def test_easy_targets_cost_nothing(self, case_network):
        decisions = ln.network_decision(case_network, np.full(4, 0.5))
        assert all(d.region is ln.Region.NO_ACTION for d in decisions)
        assert sum(d.expected_cost for d in decisions) == 0.0

    def test_cost_additivity_is_exact(self, case_network, case_q):
        decisions = ln.network_decision(case_network, case_q)
        total = sum(d.expected_cost for d in decisions)
        per_bank = []
        for i, d in enumerate(decisions):
            if d.region is ln.Region.ACTION:
                p = ln.ControlProblem(
                    mu=float(case_network.drift[i]),
                    sigma=float(case_network.vol[i]),
                    v_terminal=float(
                        ln.default_boundary(case_network)[i]),
                    horizon_remaining=1.0, q=float(case_q[i]))
                per_bank.append(ln.value_function(
                    p, float(case_network.cash[i]), d.psi_star))
            else:
                per_bank.append(0.0)
        assert total == sum(per_bank)

    def test_q_validation(self, case_network):
        with pytest.raises(ValueError):
            ln.network_decision(case_network, np.array([0.5, 0.5, 0.5]))
        with pytest.raises(ValueError):
            ln.network_decision(case_network, np.array([0.5, 0.5, 1.0, 0.5]))

    def test_decision_time_inside_horizon(self, case_network, case_q):
        with pytest.raises(ValueError):
            ln.network_decision(case_network, case_q, t=1.0)

    @pytest.mark.parametrize("q,t,field", [
        ([0.9, 0.9, math.nan, 0.9], 0.0, "q[2]"),
        ([0.9, 0.0, 0.99, 0.9], 0.0, "q[1]"),
        ([0.9, 0.9, 0.99, 0.9], math.nan, "t"),
        ([0.9, 0.9, 0.99, 0.9], -0.5, "t"),
    ])
    def test_bad_entry_is_named(self, case_network, q, t, field):
        with pytest.raises(ln.InvalidValueError) as info:
            ln.network_decision(case_network, np.array(q), t=t)
        assert info.value.field == field

    @pytest.mark.parametrize("psi_cap", [math.nan, -1.0, 0.0])
    def test_psi_cap_checked_when_no_bank_can_default(self, psi_cap):
        # nobody owes anything, so no bank builds a ControlProblem
        net = ln.FinancialNetwork(liabilities=np.zeros((3, 3)),
                                  cash=[1.0, 2.0, 3.0], drift=[0.1] * 3,
                                  vol=[0.2] * 3, growth_rate=0.0, horizon=1.0)
        q = np.full(3, 0.9)
        assert all(d.region is ln.Region.NO_ACTION
                   for d in ln.network_decision(net, q))
        with pytest.raises(ln.InvalidValueError) as info:
            ln.network_decision(net, q, psi_cap=psi_cap)
        assert str(info.value) == (
            "psi_cap: must be positive (math.inf for no cap)")
