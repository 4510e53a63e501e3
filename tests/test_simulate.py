import math

import numpy as np
import pytest

import lolrnet as ln
import lolrnet.simulate as engine
from _support import (B1_SURVIVAL_UNCONTROLLED, B3_PSI_STAR,
                      B3_SURVIVAL_UNCONTROLLED, reference_simulation,
                      report_equal, two_sample_z)


@pytest.fixture(scope="module")
def uncontrolled(case_network):
    return ln.network_decision(case_network, np.full(4, 0.5))


@pytest.fixture(scope="module")
def controlled(case_network, case_q):
    return ln.network_decision(case_network, case_q)


class TestCounterAddressing:
    def test_philox_counter_unit_is_four_words(self):
        # the engine's addressing assumes one counter step == 4 raw words
        key = np.array([11, 3], dtype=np.uint64)
        full = np.random.Generator(np.random.Philox(key=key)).random(64)
        part = np.random.Generator(
            np.random.Philox(key=key, counter=5)).random(8)
        assert np.array_equal(part, full[20:28])

    def test_streams_differ_across_banks_and_seeds(self, case_network,
                                                   uncontrolled):
        cfg = ln.SimConfig(paths=500, steps=4, seed=9)
        report = ln.simulate_network(case_network, uncontrolled, cfg,
                                     threads=1)
        other = ln.simulate_network(
            case_network, uncontrolled,
            ln.SimConfig(paths=500, steps=4, seed=10), threads=1)
        assert not np.array_equal(report.terminal_mean, other.terminal_mean)


class TestDeterminism:
    def test_same_seed_bit_identical(self, case_network, controlled):
        cfg = ln.SimConfig(paths=7_000, steps=16, seed=5)
        a = ln.simulate_network(case_network, controlled, cfg, threads=1)
        b = ln.simulate_network(case_network, controlled, cfg, threads=1)
        assert report_equal(a, b)

    def test_thread_count_invariance(self, case_network, controlled):
        cfg = ln.SimConfig(paths=40_000, steps=32, seed=5)
        reports = [ln.simulate_network(case_network, controlled, cfg,
                                       threads=k) for k in (1, 2, 8)]
        assert report_equal(reports[0], reports[1])
        assert report_equal(reports[0], reports[2])

    def test_env_variable_caps_threads(self, case_network, controlled,
                                       monkeypatch):
        cfg = ln.SimConfig(paths=5_000, steps=8, seed=5)
        base = ln.simulate_network(case_network, controlled, cfg, threads=1)
        monkeypatch.setenv("LOLRNET_THREADS", "3")
        assert report_equal(
            base, ln.simulate_network(case_network, controlled, cfg))

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
    def test_env_variable_must_be_positive_integer(self, case_network,
                                                   controlled, monkeypatch,
                                                   value):
        monkeypatch.setenv("LOLRNET_THREADS", value)
        cfg = ln.SimConfig(paths=10, steps=2, seed=5)
        with pytest.raises(ValueError) as info:
            ln.simulate_network(case_network, controlled, cfg)
        assert str(info.value) == (
            f"LOLRNET_THREADS must be a positive integer, got {value!r}")

    @pytest.mark.parametrize("value", [0, -3, 2.5, True, "2"])
    def test_explicit_threads_must_be_positive_integer(self, case_network,
                                                       controlled, value):
        cfg = ln.SimConfig(paths=10, steps=2, seed=5)
        with pytest.raises(ValueError) as info:
            ln.simulate_network(case_network, controlled, cfg, threads=value)
        assert str(info.value) == (
            f"threads must be a positive integer, got {value!r}")


class TestKernelMatchesReference:
    """The chunked in-place kernel equals the one-chunk unfused reference.

    Chunk size is not part of the draw contract, so every field must agree
    bit for bit at any chunk size and thread count.
    """

    @pytest.mark.parametrize("chunk", [engine._CHUNK, 6, 5])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("paths,steps,antithetic,record", [
        (37, 7, False, 0),
        (37, 7, True, 5),
        (33, 8, True, 40),
        (20, 1, False, 3),
        (31, 13, False, 12),
    ])
    def test_every_field_equal(self, case_network, controlled, monkeypatch,
                               chunk, threads, paths, steps, antithetic,
                               record):
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        cfg = ln.SimConfig(paths=paths, steps=steps, seed=17,
                           antithetic=antithetic)
        got = ln.simulate_network(case_network, controlled, cfg,
                                  threads=threads, record_paths=record)
        assert report_equal(got, reference_simulation(
            case_network, controlled, cfg, record_paths=record))


class TestStatisticalAgreement:
    def test_case_study_default_frequencies(self, case_network, uncontrolled,
                                            controlled):
        cfg = ln.SimConfig(paths=60_000, seed=7)
        plain = ln.simulate_network(case_network, uncontrolled, cfg,
                                    threads=1)
        assert abs(plain.default_freq[0] - (1 - B1_SURVIVAL_UNCONTROLLED)) \
            <= plain.default_ci_halfwidth[0] + 1e-12
        assert abs(plain.default_freq[2] - (1 - B3_SURVIVAL_UNCONTROLLED)) \
            <= plain.default_ci_halfwidth[2] + 1e-12
        # net creditors never default
        assert plain.default_freq[1] == 0.0
        assert plain.default_freq[3] == 0.0

        helped = ln.simulate_network(case_network, controlled, cfg, threads=1)
        assert abs(helped.default_freq[2] - 0.01) \
            <= helped.default_ci_halfwidth[2] + 1e-12

    def test_meta_consistency_over_seeds(self, case_network, uncontrolled):
        hits = 0
        for seed in range(20):
            cfg = ln.SimConfig(paths=2_500, seed=seed)
            report = ln.simulate_network(case_network, uncontrolled, cfg,
                                         threads=1)
            ok = True
            for i, survival in ((0, B1_SURVIVAL_UNCONTROLLED),
                                (2, B3_SURVIVAL_UNCONTROLLED)):
                bound = 4 * report.default_ci_halfwidth[i]
                ok = ok and abs(report.default_freq[i] - (1 - survival)) <= bound
            hits += ok
        assert hits >= 19

    def test_step_count_does_not_move_default_estimator(self, case_network,
                                                        controlled):
        n = 40_000
        coarse = ln.simulate_network(case_network, controlled,
                                     ln.SimConfig(paths=n, steps=1, seed=11),
                                     threads=1)
        fine = ln.simulate_network(case_network, controlled,
                                   ln.SimConfig(paths=n, steps=200, seed=12),
                                   threads=1)
        for i in range(4):
            z = two_sample_z(coarse.default_freq[i], n, fine.default_freq[i],
                             n)
            assert abs(z) < 2.576  # two-sample z-test at 1%

    def test_antithetic_leaves_means_within_ci(self, case_network,
                                               controlled):
        n = 30_000
        plain = ln.simulate_network(case_network, controlled,
                                    ln.SimConfig(paths=n, seed=21), threads=1)
        paired = ln.simulate_network(
            case_network, controlled,
            ln.SimConfig(paths=n, seed=21, antithetic=True), threads=1)
        for i in range(4):
            tolerance = (plain.default_ci_halfwidth[i]
                         + paired.default_ci_halfwidth[i] + 1e-12)
            assert abs(plain.default_freq[i] - paired.default_freq[i]) \
                <= tolerance

    def test_antithetic_pairs_mirror_draws(self, case_network, uncontrolled):
        cfg = ln.SimConfig(paths=8, steps=1, seed=3, antithetic=True)
        report = ln.simulate_network(case_network, uncontrolled, cfg,
                                     threads=1, record_paths=8)
        paths = report.trajectories[0]
        x0 = case_network.cash[0]
        # mirrored draw: the log increments of a pair sum to twice the drift part
        log_inc = np.log(paths[:, -1] / x0)
        drift_part = (case_network.drift[0] - case_network.vol[0]**2 / 2)
        for k in range(0, 8, 2):
            assert log_inc[k] + log_inc[k + 1] == pytest.approx(
                2 * drift_part, abs=1e-12)


class TestCostEstimation:
    @pytest.mark.parametrize("psi", [math.nan, math.inf, -0.1])
    def test_rejects_bad_rate(self, case_network, psi):
        with pytest.raises(ValueError):
            ln.estimate_cost(case_network, 0, psi,
                             ln.SimConfig(paths=10, steps=2), threads=1)

    def test_zero_rate_costs_exactly_zero(self, case_network):
        mean, halfwidth = ln.estimate_cost(case_network, 2, 0.0,
                                           ln.SimConfig(paths=2_000, seed=1),
                                           threads=1)
        assert mean == 0.0
        assert halfwidth == 0.0

    def test_matches_closed_form_within_ci(self, case_network):
        cfg = ln.SimConfig(paths=40_000, steps=200, seed=2)
        mean, halfwidth = ln.estimate_cost(case_network, 2, B3_PSI_STAR, cfg,
                                           threads=1)
        p = ln.ControlProblem(mu=0.3, sigma=0.2,
                              v_terminal=ln.default_boundary(case_network, 2,
                                                             1.0),
                              horizon_remaining=1.0, q=0.99)
        closed = ln.value_function(p, 13.0, B3_PSI_STAR)
        assert abs(mean - closed) <= 3 * halfwidth

    def test_deterministic_scaling_with_zero_vol(self):
        # sigma -> 0 limit: the path is deterministic and the trapezoid cost
        # must scale exactly like the quadrature of the closed-form path
        horizon, steps, x0, mu = 1.0, 64, 2.0, 0.1
        dt = horizon / steps

        def deterministic_cost(psi):
            grid = x0 * np.exp((mu + psi) * dt * np.arange(steps + 1))
            squares = grid**2
            integral = dt * (squares[0] / 2 + squares[1:-1].sum()
                             + squares[-1] / 2)
            return 0.5 * psi**2 * integral

        net = ln.FinancialNetwork(liabilities=[[0.0]], cash=[x0], drift=[mu],
                                  vol=[1e-12], recovery=[0.5],
                                  growth_rate=0.0, horizon=horizon)
        cfg = ln.SimConfig(paths=64, steps=steps, seed=4)
        low, _ = ln.estimate_cost(net, 0, 0.2, cfg, threads=1)
        high, _ = ln.estimate_cost(net, 0, 0.4, cfg, threads=1)
        ratio = deterministic_cost(0.4) / deterministic_cost(0.2)
        assert high / low == pytest.approx(ratio, rel=1e-6)


class TestInfeasibleFallback:
    def test_flagged_and_simulated_uncontrolled(self, case_network):
        q = np.array([0.9, 0.9, 0.99, 0.9])
        decisions = ln.network_decision(case_network, q, psi_cap=0.1)
        assert decisions[2].region is ln.Region.INFEASIBLE
        cfg = ln.SimConfig(paths=4_000, seed=13)
        report = ln.simulate_network(case_network, decisions, cfg, threads=1)
        assert report.infeasible_fallback.tolist() == [False, False, True,
                                                       False]
        plain = ln.simulate_network(
            case_network, ln.network_decision(case_network, np.full(4, 0.5)),
            cfg, threads=1)
        assert report.default_freq[2] == plain.default_freq[2]
        assert report.mean_cost[2] == 0.0


class TestReportShape:
    def test_fields_and_trajectories(self, case_network, controlled):
        cfg = ln.SimConfig(paths=120, steps=10, seed=6)
        report = ln.simulate_network(case_network, controlled, cfg,
                                     threads=1, record_paths=50)
        assert report.paths_used == 120
        assert report.seed_used == 6
        assert report.trajectories.shape == (4, 50, 11)
        assert np.allclose(report.trajectories[:, :, 0],
                           case_network.cash[:, None])
        assert np.all(report.default_ci_halfwidth >= 0)
        assert np.all((report.default_freq >= 0) & (report.default_freq <= 1))

    def test_ci_shrinks_with_paths(self, case_network, uncontrolled):
        small = ln.simulate_network(case_network, uncontrolled,
                                    ln.SimConfig(paths=2_000, seed=8),
                                    threads=1)
        large = ln.simulate_network(case_network, uncontrolled,
                                    ln.SimConfig(paths=32_000, seed=8),
                                    threads=1)
        # quadrupling paths should roughly quarter the squared half-width
        assert large.default_ci_halfwidth[2] < small.default_ci_halfwidth[2] / 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ln.SimConfig(paths=0)
        with pytest.raises(ValueError):
            ln.SimConfig(paths=1, steps=0)
        with pytest.raises(ValueError):
            ln.SimConfig(paths=1, seed=-1)

    @pytest.mark.parametrize("kwargs", [
        dict(paths=math.nan), dict(paths=2.5), dict(paths=True),
        dict(paths=10, steps=math.inf), dict(paths=10, steps=2.0),
        dict(paths=10, seed=1.5), dict(paths=10, seed=None),
    ], ids=["paths-nan", "paths-2.5", "paths-bool", "steps-inf",
            "steps-float", "seed-float", "seed-none"])
    def test_config_requires_integers(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            ln.SimConfig(**kwargs)

    def test_config_accepts_numpy_integers(self):
        cfg = ln.SimConfig(paths=np.int64(3), steps=np.int32(2),
                           seed=np.uint64(2**64 - 1))
        assert cfg.seed == 2**64 - 1
