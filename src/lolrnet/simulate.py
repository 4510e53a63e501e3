"""Monte Carlo engine for controlled lognormal bank dynamics.

Transitions are sampled exactly (lognormal increments), so the terminal
distribution carries no discretization bias and the step grid only matters
for the cost integral, which uses the trapezoid rule.  Banks running at a
zero lending rate have an identically zero cost, so they are simulated on a
single exact step over the whole horizon unless trajectories are being
recorded; the terminal law is unchanged.

Reproducibility contract: paths run in fixed chunks of ``_CHUNK`` (16,384).
Chunk ``c`` of bank ``i`` draws from its own SFC64 stream, seeded by
``SeedSequence`` hashing (numpy's documented mechanism for independent
parallel streams) of the low and high 32-bit words of the seed, ``i`` and
``c``.  It takes ``standard_normal`` (numpy's ziggurat) step-major, of shape
``(steps_eff, paths in chunk)``, so a partial chunk's draws depend on its
path count; antithetic runs draw one column per path pair and negate it for
the pair's odd path.  The chunk size is part of the draw contract and the
thread count is not: a fixed seed yields bit-identical reports at any
parallelism level, within one numpy version (NEP 19).  Each bank is reduced
in path order as soon as it is simulated.

A chunk's path arithmetic runs in place on the one array that received its
normals.  A run allocates one such chunk buffer per worker (``_CHUNK`` x
steps x 8 bytes, 26 MB at 200 steps; antithetic runs add the half-size
buffer of shared draws) and reuses it for every chunk of every bank, so
simulation time is dominated by drawing the normals.
"""

from __future__ import annotations

import math
import os
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .control import ControlDecision, Region
from .errors import MUST_BE_FINITE, is_int, require
from .network import FinancialNetwork, default_boundary

__all__ = ["SimConfig", "SimReport", "simulate_network", "estimate_cost"]

# fixed work unit and draw-addressing unit, so chunk boundaries never
# depend on the thread count; even, so no antithetic pair spans two chunks
_CHUNK = 16_384

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters.

    ``steps`` is the number of grid intervals per horizon.  ``antithetic``
    pairs consecutive paths with mirrored draws; an odd trailing path stays
    unmirrored.
    """

    paths: int
    steps: int = 200
    seed: int = 42
    antithetic: bool = False

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


@dataclass(frozen=True)
class SimReport:
    """Per-bank Monte Carlo estimates.

    ``default_ci_halfwidth`` holds 95% normal-approximation half-widths for
    the default frequencies.  ``infeasible_fallback`` flags banks whose
    control decision was infeasible and that were therefore simulated
    uncontrolled.  ``trajectories`` (banks x recorded paths x grid points,
    including the starting value) is present only when recording was
    requested.
    """

    default_freq: np.ndarray
    default_ci_halfwidth: np.ndarray
    mean_cost: np.ndarray
    terminal_mean: np.ndarray
    terminal_logvar: np.ndarray
    paths_used: int
    seed_used: int
    infeasible_fallback: np.ndarray
    trajectories: np.ndarray | None = None


def _normals(seed: int, stream: int, lo: int, hi: int, steps: int,
             full: np.ndarray, half: np.ndarray | None) -> np.ndarray:
    """Step-major standard normal draws for paths ``[lo, hi)`` of one chunk.

    Returns shape (steps, hi - lo), a view of the flat buffer ``full``,
    which the caller holds alone, so the path arithmetic can run in place
    on it.  ``half`` is None, or for an antithetic run a flat buffer for
    the shared draws of the chunk's path pairs.  Streams are independent by
    ``SeedSequence`` hashing; a partial chunk's draws depend on its path
    count, and hold within one numpy version (NEP 19).
    """
    size = hi - lo
    z = full[:steps * size].reshape(steps, size)
    # fixed width: SeedSequence pads short entropy with zero words, so a
    # plain (seed, bank, chunk) key gives (2**32, 0, 0) the stream of (0, 1, 0)
    words = np.array([v >> shift & 0xFFFFFFFF
                      for v in (int(seed), stream, lo // _CHUNK)
                      for shift in (0, 32)], dtype=np.uint32)
    gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(words)))
    if half is None:
        gen.standard_normal(out=z)
        return z
    pairs = (size + 1) // 2
    shared = half[:steps * pairs].reshape(steps, pairs)
    gen.standard_normal(out=shared)
    z[:, 0::2] = shared
    # paths with an odd global index, as lo is even
    np.negative(shared[:, :size // 2], out=z[:, 1::2])
    return z


def _chunk_buffers(cfg: SimConfig, workers: int) -> queue.SimpleQueue:
    """One set of chunk buffers per worker, allocated by the calling thread.

    Workers borrow a set for each chunk and put it back, so a run allocates
    ``workers`` sets whatever its bank and chunk counts.  Buffers allocated
    by the short-lived worker threads would be kept by the allocator in
    per-thread arenas, and a run whose threads start before the last run's
    have fully exited opens new arenas, so peak memory would grow by a chunk
    buffer at a time over repeated runs in one process.
    """
    rows = min(_CHUNK, cfg.paths)
    buffers = queue.SimpleQueue()
    for _ in range(min(workers, -(-cfg.paths // _CHUNK))):
        half = (np.empty((rows + 1) // 2 * cfg.steps) if cfg.antithetic
                else None)
        buffers.put((np.empty(rows * cfg.steps), half))
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


def _running_sum(rows: np.ndarray) -> None:
    # in place, one row add per step: bit-identical to (and much faster
    # than) cumsum(axis=0), and in step order even where numpy would sum a
    # one-path chunk's axis 0 pairwise
    for k in range(1, len(rows)):
        np.add(rows[k], rows[k - 1], out=rows[k])


def _run_bank_chunk(x0: float, mu_eff: float, sigma: float, psi: float,
                    horizon: float, steps_eff: int, cfg: SimConfig,
                    stream: int, lo: int, hi: int,
                    buffers: queue.SimpleQueue,
                    terminal_out: np.ndarray, cost_out: np.ndarray | None,
                    record_out: np.ndarray | None, record_limit: int) -> None:
    # one working array per chunk: every step below overwrites ``z``, and
    # each is the same IEEE operation on the same operands as the textbook
    # ``log x0 + cumsum((mu - sigma^2/2) dt + sigma sqrt(dt) z)``
    full, half = buffers.get()
    try:
        dt = horizon / steps_eff
        z = _normals(cfg.seed, stream, lo, hi, steps_eff, full, half)
        z *= sigma * math.sqrt(dt)
        z += (mu_eff - 0.5 * sigma**2) * dt
        _running_sum(z)
        z += math.log(x0)
        np.exp(z[-1], out=terminal_out[lo:hi])

        need_record = record_out is not None and lo < record_limit
        if cost_out is None and not need_record:
            return
        np.exp(z, out=z)
        if need_record:
            take = min(hi, record_limit) - lo
            record_out[lo:lo + take, 0] = x0
            record_out[lo:lo + take, 1:] = z[:, :take].T
        if cost_out is not None:
            np.square(z, out=z)
            _running_sum(z[:-1])
            interior = z[-2] if steps_eff > 1 else 0.0
            cost_out[lo:hi] = 0.5 * psi**2 * dt * (
                0.5 * x0**2 + interior + 0.5 * z[-1])
    finally:
        # a lost set would leave a later chunk waiting forever
        buffers.put((full, half))


def _simulate_bank(x0: float, mu_eff: float, sigma: float, psi: float,
                   horizon: float, cfg: SimConfig, stream: int,
                   executor: ThreadPoolExecutor, buffers: queue.SimpleQueue,
                   record_paths: int
                   ) -> tuple[np.ndarray, np.ndarray | None,
                              np.ndarray | None]:
    # zero-rate banks cost nothing on any grid, so they return ``cost`` None,
    # and one exact step suffices unless the caller wants the trajectory on
    # the full grid
    steps_eff = cfg.steps if (psi > 0 or record_paths > 0) else 1
    terminal = np.empty(cfg.paths)
    cost = np.empty(cfg.paths) if psi > 0 else None
    record = None
    if record_paths > 0:
        record = np.empty((min(record_paths, cfg.paths), steps_eff + 1))

    futures = [executor.submit(_run_bank_chunk, x0, mu_eff, sigma, psi,
                               horizon, steps_eff, cfg, stream, lo, hi,
                               buffers, terminal, cost, record, record_paths)
               for lo, hi in _chunks(cfg.paths)]
    for future in futures:
        future.result()
    return terminal, cost, record


def simulate_network(net: FinancialNetwork, decisions: list[ControlDecision],
                     cfg: SimConfig, threads: int | None = None,
                     record_paths: int = 0) -> SimReport:
    """Simulate every bank under its decided lending rate.

    Each bank evolves with effective drift ``mu + psi_star`` (zero rate for
    no-action banks) and independent drivers.  A bank defaults when its
    terminal value falls strictly below its terminal default boundary;
    survival is inclusive at equality.  Infeasible decisions are refused: the
    bank is simulated uncontrolled and flagged in ``infeasible_fallback``.

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
    record_paths : int
        When positive, keep the value grid of the first ``record_paths``
        paths of every bank in ``trajectories``.  This forces the full step
        grid for every bank, so a zero-rate bank's chunk streams are read
        ``steps`` normals per path instead of one, and its draws differ from
        an unrecorded run.
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

    # each bank is reduced as soon as it is simulated, so memory stays
    # O(paths) at any bank count
    boundary = default_boundary(net, net.horizon)
    freq = np.empty(n)
    terminal_mean = np.empty(n)
    logvar = np.zeros(n)
    mean_cost = np.zeros(n)
    recorded = []
    workers = _resolve_threads(threads)
    buffers = _chunk_buffers(cfg, workers)
    with ThreadPoolExecutor(max_workers=workers) as executor:
        for i in range(n):
            terminal, cost, rec_i = _simulate_bank(
                float(net.cash[i]), float(net.drift[i] + psi_eff[i]),
                float(net.vol[i]), float(psi_eff[i]), net.horizon, cfg,
                stream=i, executor=executor, buffers=buffers,
                record_paths=record_paths)
            freq[i] = (terminal < boundary[i]).mean()
            terminal_mean[i] = terminal.mean()
            if cfg.paths > 1:
                logvar[i] = np.log(terminal, out=terminal).var(ddof=1)
            if cost is not None:
                mean_cost[i] = cost.mean()
            recorded.append(rec_i)

    halfwidth = _Z95 * np.sqrt(freq * (1.0 - freq) / cfg.paths)
    trajectories = np.stack(recorded) if record_paths > 0 else None
    return SimReport(default_freq=freq, default_ci_halfwidth=halfwidth,
                     mean_cost=mean_cost, terminal_mean=terminal_mean,
                     terminal_logvar=logvar, paths_used=cfg.paths,
                     seed_used=cfg.seed, infeasible_fallback=infeasible,
                     trajectories=trajectories)


def estimate_cost(net: FinancialNetwork, i: int, psi: float, cfg: SimConfig,
                  threads: int | None = None) -> tuple[float, float]:
    """Monte Carlo estimate of the expected lending cost for bank ``i``.

    Mean over paths of half the trapezoid integral of the squared loan flow
    at constant rate ``psi``, with a 95% confidence half-width.  Draws use the
    same step-major SFC64 chunk streams as ``simulate_network``, independent
    by ``SeedSequence`` hashing; a partial chunk's draws depend on its path
    count, and hold within one numpy version (NEP 19).
    """
    if not 0 <= i < net.n:
        raise IndexError(f"bank index {i} out of range for {net.n} banks")
    require(math.isfinite(psi), "psi", MUST_BE_FINITE)
    require(psi >= 0, "psi", "must be non-negative")
    workers = _resolve_threads(threads)
    buffers = _chunk_buffers(cfg, workers)
    with ThreadPoolExecutor(max_workers=workers) as executor:
        _, cost, _ = _simulate_bank(
            float(net.cash[i]), float(net.drift[i] + psi), float(net.vol[i]),
            float(psi), net.horizon, cfg, stream=i, executor=executor,
            buffers=buffers, record_paths=0)
    if cost is None:
        return 0.0, 0.0
    mean = float(cost.mean())
    if cfg.paths > 1:
        halfwidth = _Z95 * float(cost.std(ddof=1)) / math.sqrt(cfg.paths)
    else:
        halfwidth = 0.0
    return mean, halfwidth
