"""Shared test helpers: reference tables and independent oracles.

The closed-form oracles are deliberately written in plain Python (lists and
loops, no numpy) so they cannot share a code path with the library.  The
simulation reference needs numpy's generator and operations to be bitwise
comparable, but it shares no code with the engine's chunked, in-place kernel.
The Euler-Maruyama oracle uses numpy for speed, with its own stream and its
own discretisation of the dynamics.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

import lolrnet as ln
import lolrnet.simulate as engine

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
    """Plain-Python column-normalized transition and damped matrix.

    A vertex with zero outdegree gets the uniform transition column 1/n.
    """
    n = len(gamma)
    outdeg = [sum(row) for row in gamma]
    google = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            tau = gamma[i][j] / outdeg[j] if outdeg[j] != 0 else 1.0 / n
            google[i][j] = (1.0 - damping) / n + damping * tau
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
        growth_rate=float(rng.uniform(0.0, 0.2)),
        horizon=float(rng.uniform(0.5, 2.0)),
    )


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


def reports_equal(a, b) -> bool:
    """Bitwise equality of two ``(uncontrolled, controlled)`` report pairs."""
    return len(a) == len(b) and all(map(report_equal, a, b))


def _reference_normals(cfg: ln.SimConfig, i: int, rows: int,
                       slab: int | None = None) -> list[np.ndarray]:
    """Each chunk's first ``rows`` rows of normals of bank ``i``, one
    (rows, paths in chunk) array per chunk.

    Chunk ``c`` (``engine._CHUNK`` paths, read at call time) reads
    ``standard_normal`` step-major from ``SFC64(SeedSequence(words))``,
    where ``words`` holds the low and high 32-bit words of ``seed``, ``i``
    and ``c``, in fills of ``slab`` rows (all at once when None); when
    antithetic, one column per path pair, negated for the pair's odd path.
    """
    chunks = []
    for c, lo in enumerate(range(0, cfg.paths, engine._CHUNK)):
        size = min(engine._CHUNK, cfg.paths - lo)
        cols = -(-size // 2) if cfg.antithetic else size
        words = np.array([*divmod(cfg.seed, 2**32)[::-1],
                          *divmod(i, 2**32)[::-1],
                          *divmod(c, 2**32)[::-1]], dtype=np.uint32)
        gen = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(words)))
        height = slab or rows
        draws = np.concatenate([
            gen.standard_normal((min(height, rows - k), cols))
            for k in range(0, rows, height)])
        if cfg.antithetic:
            signs = np.where(np.arange(size) % 2 == 0, 1.0, -1.0)
            draws = draws[:, np.arange(size) // 2] * signs
        chunks.append(draws)
    return chunks


def _reference_arrays(net: ln.FinancialNetwork, decisions, cfg: ln.SimConfig
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole-bank arrays (banks, paths) behind ``simulate_network``: the
    rate-zero walk ``w = log(X_N / x0)``, the terminal values and the costs
    under ``decisions``.

    Draws follow the documented chunk layout (``_reference_normals``): every
    path takes one exact step over the horizon from row 0 of its chunk's
    stream, at the bank's own drift.  Stream independence rests on
    ``SeedSequence`` hashing, a partial chunk's draws depend on its path
    count, and the draws are fixed only within one numpy version (NEP 19).
    The chunks are joined along the path axis and the path arithmetic is
    the textbook expression on fresh arrays.  A bank at rate ``psi`` takes
    the rate-zero walk plus ``psi T``.  A path's cost
    is the expectation of its trapezoid sum on the ``steps`` grid given its
    terminal value, the even series ``X_N sum_m c_m (w / wmax)^(2m)`` by
    Horner's rule, with ``c_m = wmax^(2m) / (2m)! sum_k a_k u_k^(2m) / x0``,
    ``u_k = 2k/N - 1`` and ``a_k`` the coefficients of the cost as a
    polynomial in ``r = (X_N / x0)^(2/N)``.  The degree and ``wmax``, the
    largest ``|w|``, are taken per chunk of ``engine._CHUNK`` paths.
    """
    n, paths = net.n, cfg.paths
    psi = np.array([d.psi_star if d.region is ln.Region.ACTION else 0.0
                    for d in decisions])
    walk = np.empty((n, paths))
    terminal = np.empty((n, paths))
    cost = np.zeros((n, paths))
    for i in range(n):
        x0, sigma, rate = float(net.cash[i]), float(net.vol[i]), float(psi[i])
        mu, horizon = float(net.drift[i]), net.horizon
        z = np.concatenate(_reference_normals(cfg, i, 1), axis=1)[0]
        w = (mu - 0.5 * sigma**2) * horizon + sigma * math.sqrt(horizon) * z
        walk[i] = w
        if rate > 0:
            w = w + rate * horizon
        terminal[i] = np.exp(w + math.log(x0))
        if rate > 0:
            # a_k = 0.5 psi^2 dt w_k E[X_k^2 | X_N] / r^k on the cost grid,
            # w_k the trapezoid weights, divided by x0
            grid = cfg.steps
            grid_dt = horizon / grid
            k = np.arange(grid + 1)
            a = np.exp(2 * sigma**2 * grid_dt * k * (1 - k / grid))
            a[[0, -1]] *= 0.5
            a *= 0.5 * rate**2 * grid_dt * x0
            u2 = ((2 * k - grid) / grid) ** 2
            for lo in range(0, paths, engine._CHUNK):
                part = slice(lo, lo + engine._CHUNK)
                wmax = float(np.abs(w[part]).max())
                # factors wmax^(2m) / (2m)! up to the degree: the smallest
                # K with W^(K+1) / (2K+2)! <= 2^-55 and W <= (2K+3)(K+2)
                big = wmax**2
                factors = [1.0]
                while True:
                    m = len(factors)
                    factor = factors[-1] * (big / ((2 * m - 1) * (2 * m)))
                    if factor <= 2.0**-55 and big <= (2 * m + 1) * (m + 1):
                        break
                    factors.append(factor)
                coef = [a.sum()]
                powers = a
                for factor in factors[1:]:
                    powers = powers * u2
                    coef.append(powers.sum() * factor)
                x = (w[part] * (1 / wmax if wmax else 0.0)) ** 2
                total = np.full(len(x), coef[-1])
                for c in coef[-2::-1]:
                    total = total * x + c
                cost[i, part] = total * terminal[i, part]
    return walk, terminal, cost


def _draw_order_chunks(values: np.ndarray, cfg: ln.SimConfig):
    """``values`` (paths,) split into chunks of ``engine._CHUNK`` paths,
    each in draw order: for pairs, every pair's first path, then every
    pair's second."""
    for lo in range(0, cfg.paths, engine._CHUNK):
        part = values[lo:lo + engine._CHUNK]
        yield (np.concatenate([part[0::2], part[1::2]]) if cfg.antithetic
               else part)


def chunked_mean(values: np.ndarray, cfg: ln.SimConfig) -> float:
    """The engine's mean of per-path ``values``: each chunk summed in draw
    order, the chunk sums added by ``math.fsum``."""
    return math.fsum(part.sum()
                     for part in _draw_order_chunks(values, cfg)) / cfg.paths


def _chan_m2(values: np.ndarray, cfg: ln.SimConfig) -> float:
    """Sum of squared deviations of ``values``: per chunk about the chunk's
    mean, combined in chunk order by Chan, Golub and LeVeque's update,
    the running mean taken from the running sum."""
    size = 0
    for part in _draw_order_chunks(values, cfg):
        chunk_sum = part.sum()
        chunk_m2 = ((part - chunk_sum / len(part)) ** 2).sum()
        if size:
            delta = chunk_sum / len(part) - total / size
            m2 += chunk_m2 + delta * delta * (
                size * len(part) / (size + len(part)))
            total, size = total + chunk_sum, size + len(part)
        else:
            size, total, m2 = len(part), chunk_sum, chunk_m2
    return m2


def _report(freq, mean_cost, cost_sd, terminal_mean, logvar, decisions,
            cfg: ln.SimConfig) -> ln.SimReport:
    """A report from per-bank estimates; ``cost_sd`` is each bank's sample
    standard deviation of the per-path cost (0 at one path)."""
    freq = np.asarray(freq, dtype=float)
    return ln.SimReport(
        default_freq=freq,
        default_ci_halfwidth=1.959963984540054 * np.sqrt(
            freq * (1.0 - freq) / cfg.paths),
        mean_cost=np.asarray(mean_cost, dtype=float),
        cost_ci_halfwidth=1.959963984540054 * np.asarray(
            cost_sd, dtype=float) / math.sqrt(cfg.paths),
        terminal_mean=np.asarray(terminal_mean, dtype=float),
        terminal_logvar=np.asarray(logvar, dtype=float),
        infeasible_fallback=np.array(
            [d.region is ln.Region.INFEASIBLE for d in decisions]))


def reference_simulation(net: ln.FinancialNetwork, decisions,
                         cfg: ln.SimConfig) -> ln.SimReport:
    """Unfused reference for ``simulate_network``, on whole-bank arrays
    (``_reference_arrays``) reduced chunk by chunk.

    A default count is an integer.  The terminal mean and the mean cost
    are ``chunked_mean``s.  The log-variance is that of the rate-zero walk
    ``w`` in either scenario (a shift by ``psi T`` leaves a variance
    alone), its M2 combined over the chunks in chunk order
    (``_chan_m2``), and so is the cost's for its half-width.  It must agree
    with the engine bit for bit.
    """
    walk, terminal, cost = _reference_arrays(net, decisions, cfg)
    boundary = ln.default_boundary(net)

    def variance(values):
        return _chan_m2(values, cfg) / (cfg.paths - 1) if cfg.paths > 1 \
            else 0.0

    return _report(
        [int(np.count_nonzero(x < b)) / cfg.paths
         for x, b in zip(terminal, boundary)],
        [chunked_mean(c, cfg) for c in cost],
        [math.sqrt(variance(c)) for c in cost],
        [chunked_mean(x, cfg) for x in terminal],
        [variance(w) for w in walk], decisions, cfg)


def whole_array_simulation(net: ln.FinancialNetwork, decisions,
                           cfg: ln.SimConfig) -> ln.SimReport:
    """``simulate_network``'s estimates by whole-array numpy on the same
    draws: each field one numpy reduction over a bank's paths in path
    order, the log-variance that of the rate-zero walk ``w``."""
    walk, terminal, cost = _reference_arrays(net, decisions, cfg)
    if cfg.paths == 1:
        cost_sd, logvar = np.zeros(net.n), np.zeros(net.n)
    else:
        cost_sd, logvar = cost.std(axis=1, ddof=1), walk.var(axis=1, ddof=1)
    return _report(
        (terminal < ln.default_boundary(net)[:, None]).mean(axis=1),
        cost.mean(axis=1), cost_sd, terminal.mean(axis=1), logvar,
        decisions, cfg)


def reference_paths(net: ln.FinancialNetwork, i: int, psi: float,
                    cfg: ln.SimConfig, slab: int | None = None) -> np.ndarray:
    """Unfused reference for ``bank_paths``: bank ``i``'s paths at rate
    ``psi`` as one (paths, steps + 1) array.

    Row 0 of each chunk's stream (``_reference_normals``, read in fills of
    ``slab`` rows) gives the terminal step ``W``, as in
    ``reference_simulation``, and rows 1 to ``N = steps`` the interior:
    with ``S_k`` the running sum of ``sigma sqrt(dt) z_k``, ``log(X_k /
    x0) = (k/N) W + (S_k - (k/N) S_N)``, a Brownian bridge from 0 to ``W``.
    Column 0 is ``x0``.  It must agree with the engine bit for bit.
    """
    x0, sigma, mu = float(net.cash[i]), float(net.vol[i]), float(net.drift[i])
    horizon, steps = net.horizon, cfg.steps
    z = np.concatenate(_reference_normals(cfg, i, steps + 1, slab), axis=1)
    w = ((mu - 0.5 * sigma**2) * horizon + sigma * math.sqrt(horizon) * z[0]
         + psi * horizon)
    s = np.cumsum(sigma * math.sqrt(horizon / steps) * z[1:], axis=0)
    frac = (np.arange(1, steps + 1) / steps)[:, None]
    bridge = frac * w + (s - frac * s[-1])
    paths = np.empty((cfg.paths, steps + 1))
    paths[:, 0] = x0
    paths[:, 1:] = np.exp(bridge + math.log(x0)).T
    return paths


def euler_maruyama(x0: float, drift: float, sigma: float, horizon: float,
                   steps: int, paths: int, seed: int):
    """Plain Euler-Maruyama on ``dX = drift X dt + sigma X dW``, an oracle
    that shares nothing with the engine's exact step.

    Runs ``2 * steps`` fine intervals and ``steps`` coarse ones on the same
    Brownian path, a coarse increment being the sum of two fine ones, so
    the gap between the two runs measures the scheme's weak error.  The
    increments come from its own ``SFC64(seed)`` stream, one fine step of
    ``paths`` normals at a time.  Returns ``(coarse, fine)``, each a pair
    of per-path arrays: the terminal value and the trapezoid integral of
    ``X^2`` over the horizon on that run's grid.
    """
    gen = np.random.Generator(np.random.SFC64(seed))
    dt = horizon / (2 * steps)
    coarse, fine = np.full(paths, x0), np.full(paths, x0)
    # trapezoid sums of X^2, each end point at half weight
    coarse_sq = np.full(paths, 0.5 * x0**2 * 2 * dt)
    fine_sq = np.full(paths, 0.5 * x0**2 * dt)
    for _ in range(steps):
        dw = [math.sqrt(dt) * gen.standard_normal(paths) for _ in range(2)]
        for w in dw:
            fine = fine + drift * fine * dt + sigma * fine * w
            fine_sq += fine**2 * dt
        coarse = (coarse + drift * coarse * 2 * dt
                  + sigma * coarse * (dw[0] + dw[1]))
        coarse_sq += coarse**2 * 2 * dt
    # the terminal point was summed at full weight, and takes half
    fine_sq -= 0.5 * fine**2 * dt
    coarse_sq -= coarse**2 * dt
    return (coarse, coarse_sq), (fine, fine_sq)
