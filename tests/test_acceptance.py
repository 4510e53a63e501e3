"""Acceptance gate: every shipped-behavior criterion at its stated tolerance.

Each test prints one `[acceptance] ... PASS/FAIL` line so the suite log
doubles as the acceptance report.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import lolrnet as ln
from lolrnet.cli import run_command
from _support import (CASE_CASH, CREDITOR_TABLE, FIXTURE_RANK,
                      clearing_oracle, gamma_oracle, google_oracle,
                      random_network, reports_equal)

PATHS = 100_000
SEED = 42  # the CLI's default --seed


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def decisions(case_network, case_q):
    return ln.network_decision(case_network, case_q)


def test_criterion_1_switching_thresholds(case_config):
    start = time.perf_counter()
    doc, _ = run_command("regions", case_config, SimpleNamespace(time=0.0))
    elapsed = time.perf_counter() - start
    y1 = doc["banks"][0]["threshold_log_x"]
    y3 = doc["banks"][2]["threshold_log_x"]
    notes = [doc["banks"][i]["note"] for i in (1, 3)]
    ok = (abs(y1 - 1.622593) <= 1e-5 and abs(y3 - 2.97332) <= 1e-4
          and all(n == "net creditor / no default possible" for n in notes)
          and elapsed < 0.1)
    _verdict("criterion 1 switching thresholds", ok,
             f"y1={y1:.6f}, y3={y3:.5f}, runtime={elapsed:.3f}s")


def test_criterion_2_closed_form_default_probabilities(case_network, case_q):
    start = time.perf_counter()
    boundary1 = ln.default_boundary(case_network)[0]
    boundary3 = ln.default_boundary(case_network)[2]
    bank1 = ln.ControlProblem(mu=0.2, sigma=0.1, v_terminal=boundary1,
                              horizon_remaining=1.0, q=float(case_q[0]))
    bank3 = ln.ControlProblem(mu=0.3, sigma=0.2, v_terminal=boundary3,
                              horizon_remaining=1.0, q=float(case_q[2]))
    p1 = 1.0 - ln.survival_probability(bank1, 5.2, 0.0)
    p3 = 1.0 - ln.survival_probability(bank3, 13.0, 0.0)
    rate = ln.switching_rate(bank3, 13.0)
    p3_controlled = 1.0 - ln.survival_probability(bank3, 13.0, rate)
    elapsed = time.perf_counter() - start
    ok = (abs(p1 - 0.0615) <= 1e-3 and abs(p3 - 0.388) <= 1e-3
          and abs(p3_controlled - 0.0100) <= 1e-6 and elapsed < 0.1)
    _verdict("criterion 2 closed-form default probabilities", ok,
             f"bank1={p1:.4f}, bank3={p3:.4f}, "
             f"bank3 controlled={p3_controlled:.6f}, runtime={elapsed:.3f}s")


def test_criterion_3_monte_carlo_agreement(case_network, decisions):
    cfg = ln.SimConfig(paths=PATHS, steps=200, seed=SEED)
    start = time.perf_counter()
    plain, helped = ln.simulate_network(case_network, decisions, cfg)
    elapsed = time.perf_counter() - start

    checks = [
        ("bank1 uncontrolled", plain.default_freq[0],
         plain.default_ci_halfwidth[0], 0.06151163381974756),
        ("bank3 uncontrolled", plain.default_freq[2],
         plain.default_ci_halfwidth[2], 0.38801523309363517),
        ("bank3 controlled", helped.default_freq[2],
         helped.default_ci_halfwidth[2], 0.01),
    ]
    ok = True
    parts = []
    for label, freq, halfwidth, target in checks:
        inside = abs(freq - target) <= halfwidth and halfwidth < 0.005
        ok = ok and inside
        parts.append(f"{label}: {freq:.5f} vs {target:.5f} +-{halfwidth:.5f}")
    ok = ok and elapsed < 5.0
    parts.append(f"runtime {elapsed:.2f}s")
    _verdict("criterion 3 Monte Carlo agreement", ok, "; ".join(parts))


def test_criterion_4_eigen_fixture(printed_google):
    start = time.perf_counter()
    eigenvalue, rank = ln.perron_rank(printed_google)
    elapsed = time.perf_counter() - start
    component_err = float(np.max(np.abs(rank - np.array(FIXTURE_RANK))))
    ok = (abs(eigenvalue - 1.2892) <= 1e-3 and component_err <= 1e-3
          and int(np.argmax(rank)) == 2 and elapsed < 0.1)
    _verdict("criterion 4 eigen fixture", ok,
             f"lambda={eigenvalue:.5f}, max component err={component_err:.1e}, "
             f"top bank={int(np.argmax(rank)) + 1}, runtime={elapsed:.3f}s")


def test_criterion_5_policy_mapping():
    policy = ln.RankThresholdsPolicy(base=0.9,
                                     steps=((0.5, 0.05), (0.75, 0.04)))
    q = ln.assign_survival_probabilities(np.array(FIXTURE_RANK), policy)
    oracle = 0.9 + 0.05 * (np.array(FIXTURE_RANK) > 0.5) \
        + 0.04 * (np.array(FIXTURE_RANK) > 0.75)
    exact = np.array_equal(q, oracle)
    close = np.max(np.abs(q - np.array([0.9, 0.9, 0.99, 0.9]))) <= 1e-15
    _verdict("criterion 5 policy mapping", exact and close,
             f"q={q.tolist()}")


def test_criterion_6_value_function_oracle(case_network, decisions):
    # bank 3's controlled row runs at its decided rate psi*
    psi = decisions[2].psi_star
    boundary3 = ln.default_boundary(case_network)[2]
    problem = ln.ControlProblem(mu=0.3, sigma=0.2, v_terminal=boundary3,
                                horizon_remaining=1.0, q=0.99)
    closed = ln.value_function(problem, 13.0, psi)
    cfg = ln.SimConfig(paths=PATHS, steps=200, seed=SEED)
    _, report = ln.simulate_network(case_network, decisions, cfg)
    estimate, halfwidth = report.mean_cost[2], report.cost_ci_halfwidth[2]
    rel_err = abs(estimate - closed) / closed
    _verdict("criterion 6 value-function oracle", rel_err <= 0.02,
             f"psi*={psi!r}, closed={closed:.4f}, monte carlo="
             f"{estimate:.4f}+-{halfwidth:.4f}, rel err={rel_err:.4%}")


def test_criterion_7_property_suites(case_network, decisions):
    failures = []

    # clearing lattice bounds and monotonicity on 200 random networks,
    # against a plain-Python double-start Picard oracle, at t = 0 and at a
    # random t in [0, horizon]
    rng = np.random.default_rng(2024)
    t_rng = np.random.default_rng(2025)
    for trial in range(200):
        net = random_network(rng)
        res = ln.clearing_vector(net)
        ubar = ln.total_obligations(net, 0.0)
        if not (np.all(res.payments >= -1e-12)
                and np.all(res.payments <= ubar + 1e-12)):
            failures.append(f"lattice bound violated on trial {trial}")
        mapped = np.minimum(ubar, ln.relative_liabilities(net).T
                            @ res.payments + net.cash)
        if np.max(np.abs(res.payments - mapped)) > 1e-9:
            failures.append(f"fixed-point residual too large on trial {trial}")
        down = clearing_oracle(net.liabilities.tolist(), net.cash.tolist(),
                               start_full=True)
        up = clearing_oracle(net.liabilities.tolist(), net.cash.tolist(),
                             start_full=False)
        if max(abs(a - b) for a, b in zip(res.payments, down)) > 1e-7:
            failures.append(f"greatest fixed point mismatch on trial {trial}")
        if max(abs(a - b) for a, b in zip(down, up)) <= 1e-8 \
                and max(abs(a - b) for a, b in zip(res.payments, up)) > 1e-6:
            failures.append(f"unique fixed point mismatch on trial {trial}")
        k = int(rng.integers(net.n))
        richer_cash = net.cash.copy()
        richer_cash[k] += float(rng.uniform(0.1, 4.0))
        richer = ln.FinancialNetwork(
            liabilities=net.liabilities, cash=richer_cash, drift=net.drift,
            vol=net.vol, growth_rate=net.growth_rate, horizon=net.horizon)
        if np.any(ln.clearing_vector(richer).payments
                  < res.payments - 1e-9):
            failures.append(f"monotonicity violated on trial {trial}")

        # the same network at a random time: payments, round count and the
        # reported residual
        t = float(t_rng.uniform(0.0, net.horizon))
        res_t = ln.clearing_vector(net, t)
        oracle_t = clearing_oracle(net.liabilities.tolist(), net.cash.tolist(),
                                   net.growth_rate, t)
        if max(abs(a - b) for a, b in zip(res_t.payments, oracle_t)) > 1e-9:
            failures.append(f"oracle mismatch at t={t:.3f} on trial {trial}")
        if not 1 <= res_t.iterations <= net.n + 1:
            failures.append(f"{res_t.iterations} rounds on trial {trial}")
        ubar_t = ln.total_obligations(net, t)
        residual_t = float(np.max(np.abs(res_t.payments - np.minimum(
            ubar_t, ln.relative_liabilities(net).T @ res_t.payments
            + net.cash))))
        if abs(res_t.residual - residual_t) \
                > 1e-12 * max(1.0, float(ubar_t.max())):
            failures.append(f"reported residual {res_t.residual:.2e} != "
                            f"{residual_t:.2e} on trial {trial}")

        # relative liabilities row-stochasticity on the same networks
        sums = ln.relative_liabilities(net).sum(axis=1)
        if not np.all((np.abs(sums - 1.0) <= 1e-12) | (sums == 0.0)):
            failures.append(f"row stochasticity violated on trial {trial}")

        # edge-weight antisymmetry and the Google entry floor
        gamma_plus, gamma_minus = ln.edge_weights(
            net, ln.RankWeights(c_plus=0.5, c_minus=0.5))
        if not np.array_equal(gamma_minus, gamma_plus.T):
            failures.append(f"gamma antisymmetry violated on trial {trial}")
        tau, google = ln.google_matrix(gamma_plus, 0.85)
        floor = (1.0 - 0.85) / net.n
        if not (np.all(google >= floor)
                and np.array_equal(google == floor, tau == 0.0)):
            failures.append(f"google floor violated on trial {trial}")

    # round trip survival(switching_rate) == q on 1000 random problems
    rng = np.random.default_rng(77)
    for trial in range(1000):
        p = ln.ControlProblem(
            mu=float(rng.uniform(-0.5, 0.8)),
            sigma=float(rng.uniform(0.05, 1.0)),
            v_terminal=float(rng.uniform(0.1, 50.0)),
            horizon_remaining=float(rng.uniform(0.05, 4.0)),
            q=float(rng.uniform(0.01, 0.99)))
        target = float(rng.uniform(1e-4, 5.0))
        offset = (p.sigma**2 / 2 - p.mu) \
            - p.sigma * ln.rho(p.q) / math.sqrt(p.horizon_remaining)
        log_x = math.log(p.v_terminal) + (offset - target) * p.horizon_remaining
        if abs(log_x) > 50:
            continue
        x = math.exp(log_x)
        back = ln.survival_probability(p, x, ln.switching_rate(p, x))
        if abs(back - p.q) > 1e-10:
            failures.append(f"round trip off by {abs(back - p.q):.2e} "
                            f"on trial {trial}")

    # quantile-factor antisymmetry on a grid of exactly complementable values
    qs = [k / 8192.0 for k in range(1, 8192)]
    worst = max(abs(ln.rho(q) + ln.rho(1.0 - q)) for q in qs)
    if worst > 1e-12:
        failures.append(f"rho antisymmetry worst residual {worst:.2e}")

    # seed-fixed bit-reproducibility: two runs with the same seed
    cfg = ln.SimConfig(paths=20_000, steps=32, seed=SEED)
    reports = [ln.simulate_network(case_network, decisions, cfg)
               for _ in range(2)]
    if not reports_equal(reports[0], reports[1]):
        failures.append("two simulation runs with the same seed differ")

    _verdict("criterion 7 property suites", not failures,
             "; ".join(failures) if failures else
             "200 clearing networks at t = 0 and a random t, 1000 round "
             "trips, rho antisymmetry, row stochasticity, gamma "
             "antisymmetry, google floor, two same-seed simulation runs "
             "bit-identical")


def test_criterion_8_fixture_derivation_disclosure(printed_google):
    """Attempt to re-derive the bundled rounded Google matrix from the
    edge-weight formula with an independent arithmetic oracle, and record
    the outcome either way."""
    gamma, positions = gamma_oracle(CREDITOR_TABLE, CASE_CASH, 0.0, 1.0)
    as_written = google_oracle(gamma, 0.85)
    as_written_dev = (float(np.max(np.abs(np.array(as_written)
                                          - printed_google)))
                      if as_written is not None else math.inf)

    debtor = np.array(CREDITOR_TABLE, dtype=float).T.tolist()
    gamma_t, positions_t = gamma_oracle(debtor, CASE_CASH, 1.0, 0.0)
    swapped = google_oracle(gamma_t, 0.85)
    swapped_dev = float(np.max(np.abs(np.array(swapped) - printed_google)))

    print("[acceptance] criterion 8 disclosure: edge-weight formula as "
          f"written (creditor table, pure credit weighting, N={positions}) "
          f"-> max deviation {as_written_dev:.4f} from the bundled matrix: "
          "MISMATCH")
    print("[acceptance] criterion 8 disclosure: transposed debtor table "
          f"with swapped coefficients (N={positions_t}) -> max deviation "
          f"{swapped_dev:.1e}: MATCH to the fixture's four-decimal rounding; "
          "the shipped configuration uses this orientation")

    documented = as_written_dev > 0.1 and swapped_dev < 5e-5
    _verdict("criterion 8 non-reproducible disclosure", documented,
             f"as-written deviation {as_written_dev:.4f} recorded, "
             f"reconciled form deviation {swapped_dev:.1e} recorded")
