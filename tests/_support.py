"""Shared test helpers: reference tables and independent oracles.

The closed-form oracles are deliberately written in plain Python (lists and
loops, no numpy) so they cannot share a code path with the library.  The
simulation reference needs numpy's generator and operations to be bitwise
comparable, but it shares no code with the engine's chunked, in-place kernel.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.special import ndtri

import lolrnet as ln

# Creditor-oriented table of the bundled four-bank example: entry (i, j) is
# the amount owed TO bank i+1 BY bank j+1.  The shipped fixture stores the
# transpose (debtor orientation).
CREDITOR_TABLE = [
    [0, 0, 10, 0],
    [5, 0, 5, 5],
    [0, 0, 0, 0],
    [10, 4, 0, 0],
]

CASE_CASH = [5.2, 6.0, 13.0, 3.0]
CASE_DRIFT = [0.2, 0.15, 0.3, 0.05]
CASE_VOL = [0.1, 0.25, 0.2, 0.4]
CASE_GROWTH = 0.08

# rounded dominant eigenpair of the bundled Google-matrix fixture
FIXTURE_EIGENVALUE = 1.2892
FIXTURE_RANK = [0.3516, 0.1342, 0.9177, 0.1275]

# frozen oracle values (derivations in comments)
B3_OBLIGATION_T1 = 16.24930601512438   # 15 * exp(0.08)
B1_BOUNDARY_T1 = 5.416435338374793     # (15 - 10) * exp(0.08)
RHO_Q90 = -1.2815515655446004          # -Phi^-1(0.9), checked against mpmath
RHO_Q99 = -2.3263478740408408          # -Phi^-1(0.99), checked against mpmath
B1_SURVIVAL_UNCONTROLLED = 0.9384883661802524
B3_SURVIVAL_UNCONTROLLED = 0.6119847669063648
B3_PSI_STAR = 0.4083704184488415
Y1_THRESHOLD = 1.622593               # reference rounding, +-1e-5
Y3_THRESHOLD = 2.97332                # reference rounding, +-1e-4
Y1_THRESHOLD_Q95 = 1.6589             # reference rounding at q1 = 0.95


def grown(matrix, growth, t):
    factor = math.exp(growth * t)
    return [[v * factor for v in row] for row in matrix]


def clearing_oracle(liabilities, cash, growth=0.0, t=0.0, start_full=True,
                    tol=1e-12, iters=200_000):
    """Plain-Python Picard iteration for the clearing fixed point.

    Starting from full payment converges down to the greatest fixed point;
    starting from zero converges up to the least one.
    """
    liab = grown(liabilities, growth, t)
    n = len(cash)
    ubar = [sum(row) for row in liab]
    pi = [[(liab[i][j] / ubar[i] if ubar[i] > 0 else 0.0) for j in range(n)]
          for i in range(n)]
    u = list(ubar) if start_full else [0.0] * n
    for _ in range(iters):
        nxt = [min(ubar[i],
                   cash[i] + sum(pi[j][i] * u[j] for j in range(n)))
               for i in range(n)]
        if max(abs(a - b) for a, b in zip(u, nxt)) <= tol:
            return nxt
        u = nxt
    raise AssertionError("oracle did not converge")


def gamma_oracle(table, cash, c_plus, c_minus):
    """Plain-Python evaluation of the edge-weight formula.

    gamma_plus[i][j] = (c_plus * L[i][j] + c_minus * L[j][i])
                       / (N[j] - min(N) + 1)
    with N[j] = cash[j] + (total owed to j) - (total owed by j), reading the
    given table as debtor-oriented.
    """
    n = len(cash)
    owed_to = [sum(table[i][j] for i in range(n)) for j in range(n)]
    owed_by = [sum(table[j][i] for i in range(n)) for j in range(n)]
    positions = [cash[j] + owed_to[j] - owed_by[j] for j in range(n)]
    low = min(positions)
    gamma = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            gamma[i][j] = (c_plus * table[i][j] + c_minus * table[j][i]) \
                / (positions[j] - low + 1.0)
    return gamma, positions


def google_oracle(gamma, damping):
    """Plain-Python column-normalized transition and damped matrix."""
    n = len(gamma)
    outdeg = [sum(row) for row in gamma]
    google = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if outdeg[j] == 0:
                return None
            google[i][j] = (1.0 - damping) / n \
                + damping * gamma[i][j] / outdeg[j]
    return google


def random_network(rng, max_banks=6, min_banks=2):
    """Small random network with a sparse positive liabilities matrix."""
    n = int(rng.integers(min_banks, max_banks + 1))
    liab = rng.uniform(0.0, 10.0, (n, n)) * (rng.random((n, n)) < 0.6)
    np.fill_diagonal(liab, 0.0)
    return ln.FinancialNetwork(
        liabilities=liab,
        cash=rng.uniform(0.0, 5.0, n),
        drift=rng.uniform(-0.2, 0.4, n),
        vol=rng.uniform(0.05, 0.6, n),
        recovery=rng.uniform(0.1, 0.9, n),
        growth_rate=float(rng.uniform(0.0, 0.2)),
        horizon=float(rng.uniform(0.5, 2.0)),
    )


def two_sample_z(p1, n1, p2, n2):
    pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
    var = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
    if var == 0:
        return 0.0
    return (p1 - p2) / math.sqrt(var)


def report_equal(a: ln.SimReport, b: ln.SimReport) -> bool:
    """Bitwise equality of every field of two simulation reports."""
    for field in dataclasses.fields(ln.SimReport):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                    and x.shape == y.shape and np.array_equal(x, y)):
                return False
        elif x != y:
            return False
    return True


def reference_simulation(net: ln.FinancialNetwork, decisions, cfg: ln.SimConfig,
                         record_paths: int = 0) -> ln.SimReport:
    """Unfused reference for ``simulate_network``: one chunk per bank.

    Draws follow the documented counter layout (``ceil(steps / 4)`` Philox
    blocks per path, one word per normal, antithetic pairs sharing the draws
    of path ``p // 2``), and the path arithmetic is the textbook expression
    on fresh arrays.  It must agree with the engine bit for bit.
    """
    n, paths = net.n, cfg.paths
    psi = np.array([d.psi_star if d.region is ln.Region.ACTION else 0.0
                    for d in decisions])
    terminal = np.empty((n, paths))
    cost = np.zeros((n, paths))
    recorded = []
    for i in range(n):
        x0, sigma, rate = float(net.cash[i]), float(net.vol[i]), float(psi[i])
        mu_eff = float(net.drift[i] + psi[i])
        steps = cfg.steps if (rate > 0 or record_paths > 0) else 1
        dt = net.horizon / steps
        blocks = -(-steps // 4)
        base = -(-paths // 2) if cfg.antithetic else paths
        key = np.array([cfg.seed, i], dtype=np.uint64)
        uniforms = np.random.Generator(np.random.Philox(key=key)).random(
            base * blocks * 4)
        uniforms = np.maximum(uniforms, 2.0**-54)
        z = ndtri(uniforms.reshape(base, blocks * 4)[:, :steps])
        if cfg.antithetic:
            signs = np.where(np.arange(paths) % 2 == 0, 1.0, -1.0)
            z = z[np.arange(paths) // 2] * signs[:, None]
        increments = (mu_eff - 0.5 * sigma**2) * dt + sigma * math.sqrt(dt) * z
        log_path = np.cumsum(increments, axis=1) + math.log(x0)
        terminal[i] = np.exp(log_path[:, -1])
        values = np.exp(log_path)
        if rate > 0:
            squares = np.square(values)
            cost[i] = 0.5 * rate**2 * dt * (
                0.5 * x0**2 + squares[:, :-1].sum(axis=1)
                + 0.5 * squares[:, -1])
        if record_paths > 0:
            take = min(record_paths, paths)
            rows = np.empty((take, steps + 1))
            rows[:, 0] = x0
            rows[:, 1:] = values[:take]
            recorded.append(rows)
    boundary = ln.default_boundary(net, np.arange(n), net.horizon)
    freq = (terminal < boundary[:, None]).mean(axis=1)
    logvar = (np.log(terminal).var(axis=1, ddof=1) if paths > 1
              else np.zeros(n))
    return ln.SimReport(
        default_freq=freq,
        default_ci_halfwidth=1.959963984540054 * np.sqrt(
            freq * (1.0 - freq) / paths),
        mean_cost=cost.mean(axis=1), terminal_mean=terminal.mean(axis=1),
        terminal_logvar=logvar, paths_used=paths, seed_used=cfg.seed,
        infeasible_fallback=np.array(
            [d.region is ln.Region.INFEASIBLE for d in decisions]),
        trajectories=np.stack(recorded) if record_paths > 0 else None)
