"""Monte Carlo engine for controlled lognormal bank dynamics.

Every path takes one exact step over the horizon (a lognormal transition),
so the terminal distribution carries no discretization bias.  The step grid
only matters for the cost integral, which uses the trapezoid rule, and each
path's cost is the exact conditional expectation of that trapezoid sum given
the path's terminal value (conditional Monte Carlo, Glasserman 2004, section
4.1).  Given its end points, a Brownian path is a Brownian bridge whatever its
drift, so with ``r = (X_N / x0)^(2/N)`` and ``t_k = k T / N``

    E[X_k^2 | X_N] = x0^2 exp(2 sigma^2 t_k (1 - k/N)) r^k,

and the cost is a polynomial in ``r`` with coefficients fixed per bank.
They are palindromic, so in ``w = log(X_N / x0)`` the cost is ``X_N``
times an even power series in ``w`` with positive coefficients, cut where
its relative tail is below ``2^-54`` for the largest ``|w|`` of the chunk
of paths it runs on, and evaluated by Horner's rule
(``_cost_coefficients``).  Its degree depends on that largest ``|w|``
alone, about 10 terms for the case study, so the work per path is the same
at any step count, and the grid of ``steps`` intervals sets only the
series' coefficients.  The estimator is unbiased for the same grid quantity
as the pathwise trapezoid with a smaller variance, and it uses only the law
of the dynamics, never the closed-form value function it is checked
against.

``simulate_network`` returns two reports, the uncontrolled scenario and the
controlled one.  At a constant rate ``psi`` the controlled ``w`` is the
uncontrolled one plus ``psi T`` (common random numbers by construction,
Glasserman 2004, section 4.2), so each bank is simulated once: one task per
chunk draws the rate-zero walk and finishes both scenarios, cost included.
A zero-rate bank (no action, or infeasible) fills both reports' rows.

Reproducibility contract: paths run in fixed chunks of ``_CHUNK`` (16,384).
Chunk ``c`` of bank ``i`` draws from its own SFC64 stream, seeded by
``SeedSequence`` hashing (numpy's documented mechanism for independent
parallel streams) of the low and high 32-bit words of the seed, ``i`` and
``c``.  It takes ``standard_normal`` (numpy's ziggurat) step-major, one
row of one normal per column at a time.  Row 0 is the terminal step, the
only row the estimates read, so a partial chunk's draws depend on its path
count.  Antithetic pairing is the default: a chunk draws one column per
path pair, taken by the pair's even path and negated for its odd path, and
``antithetic=False`` draws one column per path.  The chunk size is part of
the draw contract, and it fixes which paths share a cost series, but the
thread count is not: a fixed seed yields bit-identical reports at any
parallelism level, within one numpy version (NEP 19).  A worker holds one
row of a chunk, as (blocks, columns): one block of every path, or for pairs
the drawn block and its negation.  Each bank is reduced in path order as
soon as it is simulated.

The 95% half-widths use the iid formula.  It is conservative under
pairing: the default indicator, the terminal value and the conditional cost
are each monotone in the draws, so a pair's negated draws never raise their
variance (Glasserman 2004, section 4.2).

``bank_paths`` rebuilds a bank's paths on the grid of ``steps`` intervals,
one chunk at a time.  It reads row 0 of the chunk's stream and adds ``psi
T`` as the simulation does, then reads rows 1 to ``steps``, and fills the
interior by Brownian bridge (Glasserman 2004, section 3.1).  With ``W`` the
terminal step's ``log(X_N / x0)`` and ``S_k`` the running sum of ``sigma
sqrt(dt) z_k`` over those rows,

    log(X_k / x0) = (k/N) W + (S_k - (k/N) S_N),

a Brownian bridge from 0 to ``W`` whatever the drift.  At ``k = N`` the
bracket is exactly 0, so every rebuilt terminal value is bit for bit the one
behind the estimates, and rebuilding paths moves no estimate.
"""

from __future__ import annotations

import math
import numbers
import os
import queue
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .control import ControlDecision, Region
from .errors import MUST_BE_FINITE, is_int, require
from .network import FinancialNetwork, default_boundary

__all__ = ["SimConfig", "SimReport", "simulate_network", "estimate_cost",
           "bank_paths"]

# fixed work unit and draw-addressing unit, so chunk boundaries never
# depend on the thread count; even, so no antithetic pair spans two chunks
_CHUNK = 16_384

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

# bound on the first omitted term of the cost series, relative to the sum
_TAIL = 2.0**-55


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters.

    ``steps`` is the number of intervals of the cost's trapezoid grid and
    of the paths ``bank_paths`` rebuilds; the simulation itself takes one
    exact step whatever its value.  ``antithetic`` (the default) pairs
    consecutive paths with mirrored draws; an odd trailing path stays
    unmirrored.  False draws every path iid.
    """

    paths: int
    steps: int = 200
    seed: int = 42
    antithetic: bool = True

    def __post_init__(self):
        for name in ("paths", "steps", "seed"):
            if not is_int(getattr(self, name)):
                raise ValueError(
                    f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.paths < 1:
            raise ValueError("paths must be at least 1")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not isinstance(self.antithetic, (bool, np.bool_)):
            raise ValueError(
                f"antithetic must be a bool, got {self.antithetic!r}")


@dataclass(frozen=True)
class SimReport:
    """Per-bank Monte Carlo estimates.

    ``default_ci_halfwidth`` holds 95% normal-approximation half-widths for
    the default frequencies, by the iid formula: conservative for
    antithetic runs, whose default indicator is monotone in the draws.
    ``mean_cost`` averages each path's expected trapezoid cost on the
    ``steps`` grid given its terminal value.  ``infeasible_fallback`` flags
    banks whose control decision was infeasible and that were therefore
    simulated uncontrolled; it is set only in a controlled report.
    """

    default_freq: np.ndarray
    default_ci_halfwidth: np.ndarray
    mean_cost: np.ndarray
    terminal_mean: np.ndarray
    terminal_logvar: np.ndarray
    paths_used: int
    seed_used: int
    infeasible_fallback: np.ndarray


def _generator(seed: int, stream: int, lo: int) -> np.random.Generator:
    """The SFC64 generator of the chunk that starts at path ``lo``."""
    # fixed width: SeedSequence pads short entropy with zero words, so a
    # plain (seed, bank, chunk) key gives (2**32, 0, 0) the stream of (0, 1, 0)
    words = np.array([v >> shift & 0xFFFFFFFF
                      for v in (int(seed), stream, lo // _CHUNK)
                      for shift in (0, 32)], dtype=np.uint32)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))


def _draw(gen: np.random.Generator, z: np.ndarray) -> None:
    """Fill ``z`` (blocks, [rows,] columns) with the chunk's next normals.

    Block 0 takes the stream step-major, and successive fills continue it
    row by row.  An antithetic fill's block 1 is the negation of block 0:
    column ``j`` of the two blocks holds paths ``2j`` and ``2j + 1`` of the
    chunk.
    """
    gen.standard_normal(out=z[0])
    if len(z) == 2:
        np.negative(z[0], out=z[1])


def _scatter(dst: np.ndarray, src: np.ndarray) -> None:
    """Write ``src`` (blocks, columns, ...) into ``dst`` in path order.

    Path ``p`` of the chunk is column ``p // blocks`` of block
    ``p % blocks``; the columns past ``dst``'s paths (an odd antithetic
    chunk's unpaired mirror) are dropped.
    """
    blocks = len(src)
    for b in range(blocks):
        part = dst[b::blocks]
        part[...] = src[b, :len(part)]


def _chunk_buffers(cfg: SimConfig, workers: int) -> queue.SimpleQueue:
    """One row of a full chunk per worker, allocated by the calling thread.

    Workers borrow a row for each chunk and put it back, so a run
    allocates ``workers`` rows whatever its bank and chunk counts.  Buffers
    allocated by the short-lived worker threads would be kept by the
    allocator in per-thread arenas, and a run whose threads start before
    the last run's have fully exited opens new arenas, so peak memory would
    grow by a row at a time over repeated runs.
    """
    blocks = 2 if cfg.antithetic else 1
    width = blocks * -(-min(_CHUNK, cfg.paths) // blocks)
    buffers = queue.SimpleQueue()
    for _ in range(workers):
        buffers.put(np.empty(width))
    return buffers


def _resolve_threads(threads: int | None) -> int:
    if threads is not None:
        if not (is_int(threads) and threads >= 1):
            raise ValueError(
                f"threads must be a positive integer, got {threads!r}")
        return int(threads)
    env = os.environ.get("LOLRNET_THREADS")
    if env:
        count = int(env) if env.strip().isdecimal() else 0
        if count < 1:
            raise ValueError(
                f"LOLRNET_THREADS must be a positive integer, got {env!r}")
        return count
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(paths: int):
    for lo in range(0, paths, _CHUNK):
        yield lo, min(lo + _CHUNK, paths)


def _cost_coefficients(x0: float, sigma: float, psi: float,
                       horizon: float, steps: int,
                       wmax: float) -> np.ndarray:
    """Coefficients ``c_0 .. c_K`` of the expected trapezoid cost of paths
    with ``|w| <= wmax``, ``w = log(X_N / x0)``, as the even series
    ``X_N sum_m c_m (w / wmax)^(2m)``.

    With ``N = steps``, the cost's polynomial in ``r = (X_N / x0)^(2/N)``
    has coefficients ``a_k = 0.5 psi^2 dt w_k x0^2 exp(2 sigma^2 t_k (1 -
    k/N))``, ``w_k`` the trapezoid weights (1/2 at both ends, 1 inside).
    They are palindromic, ``a_k = a_(N-k)``, so with ``u_k = 2k/N - 1``
    the cost is ``X_N / x0 sum_k a_k exp(u_k w)``, and pairing ``k`` with
    ``N - k`` turns it into ``X_N / x0 sum_k a_k cosh(u_k w)``.  Expanding
    the cosh,

        c_m = rho_m wmax^(2m) / ((2m)! x0),  rho_m = sum_k a_k u_k^(2m).

    Every term is positive and ``rho_m <= rho_0`` (``|u_k| <= 1``), so
    cutting the series after the smallest ``K`` with ``W^(K+1) / (2K+2)!
    <= 2^-55`` and ``W <= (2K+3)(K+2)``, ``W = wmax^2`` (each later term
    at most half of the one before), leaves a relative tail of at most
    ``2^-54``.  ``K`` depends on ``wmax`` alone, not on ``steps``.
    Scaled by ``wmax^(2m)``, no coefficient underflows as ``m`` grows;
    ``wmax^(2m) / (2m)!`` overflows only for ``wmax`` past about 709,
    where ``X_N = x0 e^w`` leaves the float range, and then it raises.
    """
    dt = horizon / steps
    k = np.arange(steps + 1)
    a = np.exp(2 * sigma**2 * dt * k * (1 - k / steps))
    a[[0, -1]] *= 0.5
    a *= 0.5 * psi**2 * dt * x0
    u2 = ((2 * k - steps) / steps) ** 2
    big = wmax**2
    # term = W^m / (2m)!, the bound on term m relative to the sum
    coef, term, m = [a.sum()], 1.0, 0
    while True:
        m += 1
        term *= big / ((2 * m - 1) * (2 * m))
        if term <= _TAIL and 2 * big <= (2 * m + 1) * (2 * m + 2):
            return np.array(coef)
        if not math.isfinite(term):
            raise ValueError(
                f"the lending cost of a path with |log(X_N / x0)| = {wmax!r}"
                " overflows")
        a *= u2
        coef.append(a.sum() * term)


def _cost_series(coef: np.ndarray, walk: np.ndarray, wmax: float,
                 scratch: np.ndarray, out: np.ndarray) -> None:
    """Write the even series ``coef`` in ``(w / wmax)^2``, ``w`` from
    ``walk``, into ``out`` by Horner's rule, ``(w / wmax)^2`` into
    ``scratch``.  Times ``X_N`` it is each path's expected cost."""
    # wmax is 0 only when every w is
    x = np.multiply(walk, 1 / wmax if wmax else 0.0, out=scratch)
    np.square(x, out=x)
    out[...] = coef[-1]
    for c in coef[-2::-1]:
        out *= x
        out += c


def _check_bank(net: FinancialNetwork, i: int, psi: float) -> None:
    require(is_int(i) and 0 <= i < net.n, "i",
            f"must be an integer bank index in [0, {net.n}), got {i!r}")
    require(isinstance(psi, numbers.Real) and not isinstance(psi, bool),
            "psi", f"must be a real number, got {psi!r}")
    require(math.isfinite(psi), "psi", MUST_BE_FINITE)
    require(psi >= 0, "psi", "must be non-negative")


def _terminal_walk(mu: float, sigma: float, horizon: float, cfg: SimConfig,
                   stream: int, lo: int,
                   walk: np.ndarray) -> np.random.Generator:
    """Fill ``walk`` (blocks, columns) with the rate-zero ``log(X_N / x0)``
    of the chunk that starts at path ``lo``, one exact step over the
    horizon from row 0 of the chunk's stream, and return the stream
    positioned after it."""
    # the same IEEE operations as the textbook one-step
    # ``(mu - sigma^2/2) T + sigma sqrt(T) z``
    gen = _generator(cfg.seed, stream, lo)
    _draw(gen, walk)
    walk *= sigma * math.sqrt(horizon)
    walk += (mu - 0.5 * sigma**2) * horizon
    return gen


def _run_bank_chunk(x0: float, mu: float, sigma: float, psi: float,
                    horizon: float, cfg: SimConfig, stream: int, lo: int,
                    hi: int, buffers: queue.SimpleQueue,
                    terminal_out: np.ndarray,
                    cost_out: np.ndarray | None) -> None:
    # terminal row 0 at rate zero; row 1 and the costs at psi, when given
    borrowed = buffers.get()
    try:
        blocks = 2 if cfg.antithetic else 1
        z = borrowed[:blocks * -(-(hi - lo) // blocks)].reshape(blocks, -1)
        _terminal_walk(mu, sigma, horizon, cfg, stream, lo, z)
        terminal = terminal_out[:, lo:hi]
        _scatter(terminal[0], z)
        if cost_out is not None:
            # a constant rate shifts the walk by psi T; the spent draws'
            # buffer takes the series' (w / wmax)^2
            walk = np.add(terminal[0], psi * horizon, out=terminal[1])
            wmax = float(max(walk.max(), -walk.min()))
            coef = _cost_coefficients(x0, sigma, psi, horizon, cfg.steps,
                                      wmax)
            _cost_series(coef, walk, wmax, borrowed[:hi - lo],
                         cost_out[lo:hi])
        terminal += math.log(x0)
        np.exp(terminal, out=terminal)
        if cost_out is not None:
            cost_out[lo:hi] *= terminal[1]
    finally:
        # a lost row would leave a later chunk waiting forever
        buffers.put(borrowed)


def _workers(threads: int | None, paths: int) -> int:
    """The thread cap, but no more workers than a bank has chunks."""
    return min(_resolve_threads(threads), -(-paths // _CHUNK))


def _simulate_bank(x0: float, mu: float, sigma: float, psi: float,
                   horizon: float, cfg: SimConfig, stream: int,
                   executor: ThreadPoolExecutor, buffers: queue.SimpleQueue
                   ) -> tuple[np.ndarray, np.ndarray | None]:
    # rate zero costs nothing on any grid, so a zero-rate bank returns one
    # row of terminal values and ``cost`` None
    terminal = np.empty((2 if psi > 0 else 1, cfg.paths))
    cost = np.empty(cfg.paths) if psi > 0 else None
    futures = [executor.submit(_run_bank_chunk, x0, mu, sigma, psi, horizon,
                               cfg, stream, lo, hi, buffers, terminal, cost)
               for lo, hi in _chunks(cfg.paths)]
    for future in futures:
        future.result()
    return terminal, cost


def simulate_network(net: FinancialNetwork, decisions: list[ControlDecision],
                     cfg: SimConfig, threads: int | None = None
                     ) -> tuple[SimReport, SimReport]:
    """Simulate every bank uncontrolled and under its decided lending rate.

    Returns ``(uncontrolled, controlled)``.  The uncontrolled report runs
    every bank at rate zero.  The controlled one gives each bank effective
    drift ``mu + psi_star`` (zero rate for no-action and infeasible banks).
    Banks have independent drivers and each is simulated once: an action
    bank's controlled ``log(X_N / x0)`` is its uncontrolled one plus
    ``psi_star T`` (common random numbers, Glasserman 2004, section 4.2),
    and a zero-rate bank's two rows are equal.  A bank
    defaults when its terminal value falls strictly below its terminal
    default boundary; survival is inclusive at equality.  Infeasible
    decisions are refused: the bank is simulated uncontrolled and flagged in
    the controlled report's ``infeasible_fallback``, the only field in which
    its two rows differ.

    Parameters
    ----------
    net : FinancialNetwork
    decisions : list[ControlDecision]
        One decision per bank, as produced by ``control.network_decision``.
    cfg : SimConfig
    threads : int, optional
        Worker cap; falls back to the LOLRNET_THREADS environment variable,
        then to the CPUs this process may run on.  Results are bit-identical
        regardless.
    """
    if len(decisions) != net.n:
        raise ValueError(f"need {net.n} decisions, got {len(decisions)}")
    n = net.n
    psi_eff = np.zeros(n)
    infeasible = np.zeros(n, dtype=bool)
    for i, decision in enumerate(decisions):
        if decision.region is Region.ACTION:
            psi_eff[i] = decision.psi_star
        elif decision.region is Region.INFEASIBLE:
            infeasible[i] = True

    # row 0 of each estimate is the uncontrolled scenario and row 1 the
    # controlled one.  Each bank is reduced as soon as it is simulated, so
    # memory stays O(paths) at any bank count
    boundary = default_boundary(net)
    freq = np.empty((2, n))
    terminal_mean = np.empty((2, n))
    logvar = np.zeros((2, n))
    mean_cost = np.zeros((2, n))
    workers = _workers(threads, cfg.paths)
    buffers = _chunk_buffers(cfg, workers)
    with ThreadPoolExecutor(max_workers=workers) as executor:
        for i in range(n):
            terminal, cost = _simulate_bank(
                float(net.cash[i]), float(net.drift[i]), float(net.vol[i]),
                float(psi_eff[i]), net.horizon, cfg, stream=i,
                executor=executor, buffers=buffers)
            # a zero-rate bank's one row fills both scenarios
            scenarios = [[0, 1]] if cost is None else [[0], [1]]
            for rows, x in zip(scenarios, terminal):
                freq[rows, i] = (x < boundary[i]).mean()
                terminal_mean[rows, i] = x.mean()
                if cfg.paths > 1:
                    logvar[rows, i] = np.log(x, out=x).var(ddof=1)
            if cost is not None:
                mean_cost[1, i] = cost.mean()

    halfwidth = _Z95 * np.sqrt(freq * (1.0 - freq) / cfg.paths)
    return tuple(
        SimReport(default_freq=freq[s], default_ci_halfwidth=halfwidth[s],
                  mean_cost=mean_cost[s], terminal_mean=terminal_mean[s],
                  terminal_logvar=logvar[s], paths_used=cfg.paths,
                  seed_used=cfg.seed,
                  infeasible_fallback=(infeasible if s
                                       else np.zeros(n, dtype=bool)))
        for s in (0, 1))


def estimate_cost(net: FinancialNetwork, i: int, psi: float, cfg: SimConfig,
                  threads: int | None = None) -> tuple[float, float]:
    """Monte Carlo estimate of the expected lending cost for bank ``i``.

    Mean over paths of half the trapezoid integral of the squared loan flow
    at constant rate ``psi`` on the ``cfg.steps`` grid, each path's integral
    taken as its exact expectation given the path's terminal value, with a
    95% confidence half-width.  The paths are ``simulate_network``'s, so
    the mean is bit for bit its controlled ``mean_cost`` at rate ``psi``;
    a partial chunk's draws depend on its path count, and hold within one
    numpy version (NEP 19).  The half-width uses
    the iid formula, conservative under ``cfg.antithetic`` because the
    conditional cost is monotone in the draws.
    """
    _check_bank(net, i, psi)
    workers = _workers(threads, cfg.paths)
    with ThreadPoolExecutor(max_workers=workers) as executor:
        _, cost = _simulate_bank(
            float(net.cash[i]), float(net.drift[i]), float(net.vol[i]),
            float(psi), net.horizon, cfg, stream=int(i), executor=executor,
            buffers=_chunk_buffers(cfg, workers))
    if cost is None:
        return 0.0, 0.0
    halfwidth = (_Z95 * float(cost.std(ddof=1)) / math.sqrt(cfg.paths)
                 if cfg.paths > 1 else 0.0)
    return float(cost.mean()), halfwidth


def bank_paths(net: FinancialNetwork, i: int, psi: float,
               cfg: SimConfig) -> Iterator[np.ndarray]:
    """Bank ``i``'s paths at constant rate ``psi`` on the ``cfg.steps``
    grid, one (chunk paths, steps + 1) array per chunk in path order, each
    built on the calling thread when it is asked for.  Column 0 is the
    bank's cash and column ``steps`` bit for bit the terminal value behind
    the estimates for the same bank, rate and ``cfg``; the interior is a
    Brownian bridge between them (see the module docstring)."""
    _check_bank(net, i, psi)
    return (_chunk_paths(float(net.cash[i]), float(net.drift[i]),
                         float(net.vol[i]), float(psi), net.horizon, cfg,
                         int(i), lo, hi)
            for lo, hi in _chunks(cfg.paths))


def _chunk_paths(x0: float, mu: float, sigma: float, psi: float,
                 horizon: float, cfg: SimConfig, stream: int, lo: int,
                 hi: int) -> np.ndarray:
    blocks = 2 if cfg.antithetic else 1
    cols = -(-(hi - lo) // blocks)
    walk = np.empty((blocks, cols))
    gen = _terminal_walk(mu, sigma, horizon, cfg, stream, lo, walk)
    # the same shift as the simulation's, so X_N is bit for bit its own
    walk += psi * horizon
    # (blocks, steps, columns): row k - 1 holds step k
    z = np.empty((blocks, cfg.steps, cols))
    _draw(gen, z)
    z *= sigma * math.sqrt(horizon / cfg.steps)
    np.cumsum(z, axis=1, out=z)
    # the bracket S_k - (k/N) S_N first, so it is exactly 0 at k = N
    frac = (np.arange(1, cfg.steps + 1) / cfg.steps)[:, None]
    z -= frac * z[:, -1:]
    z += frac * walk[:, None]
    z += math.log(x0)
    np.exp(z, out=z)
    paths = np.empty((hi - lo, cfg.steps + 1))
    paths[:, 0] = x0
    _scatter(paths[:, 1:], z.transpose(0, 2, 1))
    return paths
