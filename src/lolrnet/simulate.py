"""Monte Carlo engine for controlled lognormal bank dynamics.

Transitions are sampled exactly (lognormal increments), so the terminal
distribution carries no discretization bias and the step grid only matters
for the cost integral, which uses the trapezoid rule.  Banks running at a
zero lending rate have an identically zero cost, so they are simulated on a
single exact step over the whole horizon unless trajectories are being
recorded; the terminal law is unchanged.

Reproducibility contract: draws are counter-addressed in a Philox keystream
keyed by ``(seed, bank)``.  A bank's paths use ``ceil(steps_eff / 4)``
counter blocks each (four 64-bit words per block), path ``p`` owning blocks
``[p * blocks, (p + 1) * blocks)``, where ``steps_eff`` is that bank's grid
size.  Normals come from inverting uniforms, one word per draw, so the value
consumed at ``(seed, bank, path, step)`` never depends on chunking or thread
count, and a fixed seed yields bit-identical reports at any parallelism
level.  Reductions run over full path-indexed arrays in index order.

Paths run in chunks of ``_CHUNK``.  The chunk size is not part of the draw
contract: every report field is bit-identical at any chunk size.  A chunk's
path arithmetic runs in place on the one array that received its uniforms,
so each worker holds one chunk buffer (``_CHUNK`` x steps x 8 bytes, 26 MB
at 200 steps; antithetic runs add the half-size buffer of shared draws) at a
time, and simulation time is dominated by drawing the normals.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .control import ControlDecision, Region
from .errors import MUST_BE_FINITE, is_int, require
from .network import FinancialNetwork, default_boundary

__all__ = ["SimConfig", "SimReport", "simulate_network", "estimate_cost"]

# raw 64-bit words produced per Philox counter increment
_WORDS_PER_BLOCK = 4

# fixed work unit so chunk boundaries never depend on the thread count
_CHUNK = 16_384

# smallest positive uniform; keeps ndtri finite on the one-in-2^53 zero draw
_U_FLOOR = 2.0**-54

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


def _blocks_per_path(steps: int) -> int:
    return -(-steps // _WORDS_PER_BLOCK)


def _normals(seed: int, stream: int, lo: int, hi: int, steps: int,
             antithetic: bool) -> np.ndarray:
    """Standard normal draws for paths ``[lo, hi)``, shape (hi - lo, steps).

    The result is a writable view of a buffer owned by the caller alone, so
    the path arithmetic can run in place on it.
    """
    # scipy is the slowest import in the package and only the draws need it
    from scipy.special import ndtri

    bpp = _blocks_per_path(steps)
    if antithetic:
        base_lo, base_hi = lo // 2, (hi - 1) // 2 + 1
    else:
        base_lo, base_hi = lo, hi
    n_base = base_hi - base_lo
    key = np.array([seed, stream], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=base_lo * bpp))
    buffer = gen.random(n_base * bpp * _WORDS_PER_BLOCK)
    np.maximum(buffer, _U_FLOOR, out=buffer)
    z = buffer.reshape(n_base, bpp * _WORDS_PER_BLOCK)[:, :steps]
    ndtri(z, out=z)
    if not antithetic:
        return z
    z = z[np.arange(lo, hi) // 2 - base_lo]
    mirrored = z[(lo + 1) % 2::2]  # paths with an odd global index
    np.negative(mirrored, out=mirrored)
    return z


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
    return os.cpu_count() or 1


def _chunks(paths: int):
    for lo in range(0, paths, _CHUNK):
        yield lo, min(lo + _CHUNK, paths)


def _run_bank_chunk(x0: float, mu_eff: float, sigma: float, psi: float,
                    horizon: float, steps_eff: int, cfg: SimConfig,
                    stream: int, lo: int, hi: int,
                    terminal_out: np.ndarray, cost_out: np.ndarray | None,
                    record_out: np.ndarray | None, record_limit: int) -> None:
    # one working array per chunk: every step below overwrites ``z``, and
    # each is the same IEEE operation on the same operands as the textbook
    # ``log x0 + cumsum((mu - sigma^2/2) dt + sigma sqrt(dt) z)``
    dt = horizon / steps_eff
    z = _normals(cfg.seed, stream, lo, hi, steps_eff, cfg.antithetic)
    z *= sigma * math.sqrt(dt)
    z += (mu_eff - 0.5 * sigma**2) * dt
    np.cumsum(z, axis=1, out=z)
    z += math.log(x0)
    np.exp(z[:, -1], out=terminal_out[lo:hi])

    need_record = record_out is not None and lo < record_limit
    if cost_out is None and not need_record:
        return
    np.exp(z, out=z)
    if need_record:
        take = min(hi, record_limit) - lo
        record_out[lo:lo + take, 0] = x0
        record_out[lo:lo + take, 1:] = z[:take]
    if cost_out is not None:
        np.square(z, out=z)
        interior = z[:, :-1].sum(axis=1)
        cost_out[lo:hi] = 0.5 * psi**2 * dt * (
            0.5 * x0**2 + interior + 0.5 * z[:, -1])


def _simulate_bank(x0: float, mu_eff: float, sigma: float, psi: float,
                   horizon: float, cfg: SimConfig, stream: int,
                   executor: ThreadPoolExecutor, record_paths: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    # zero-rate banks cost nothing on any grid; one exact step suffices
    # unless the caller wants the trajectory on the full grid
    steps_eff = cfg.steps if (psi > 0 or record_paths > 0) else 1
    terminal = np.empty(cfg.paths)
    cost = np.zeros(cfg.paths) if psi > 0 else None
    record = None
    if record_paths > 0:
        record = np.empty((min(record_paths, cfg.paths), steps_eff + 1))

    futures = [executor.submit(_run_bank_chunk, x0, mu_eff, sigma, psi,
                               horizon, steps_eff, cfg, stream, lo, hi,
                               terminal, cost, record, record_paths)
               for lo, hi in _chunks(cfg.paths)]
    for future in futures:
        future.result()
    if cost is None:
        cost = np.zeros(cfg.paths)
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
        then to all available CPUs.  Results are bit-identical regardless.
    record_paths : int
        When positive, keep the value grid of the first ``record_paths``
        paths of every bank in ``trajectories`` (this forces the full step
        grid for every bank, so zero-rate banks draw differently than in an
        unrecorded run).
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

    terminal = np.empty((n, cfg.paths))
    cost = np.empty((n, cfg.paths))
    recorded = []
    with ThreadPoolExecutor(max_workers=_resolve_threads(threads)) as executor:
        for i in range(n):
            term_i, cost_i, rec_i = _simulate_bank(
                float(net.cash[i]), float(net.drift[i] + psi_eff[i]),
                float(net.vol[i]), float(psi_eff[i]), net.horizon, cfg,
                stream=i, executor=executor, record_paths=record_paths)
            terminal[i] = term_i
            cost[i] = cost_i
            recorded.append(rec_i)

    boundary = default_boundary(net, net.horizon)
    freq = (terminal < boundary[:, None]).mean(axis=1)
    halfwidth = _Z95 * np.sqrt(freq * (1.0 - freq) / cfg.paths)
    log_terminal = np.log(terminal)
    logvar = (log_terminal.var(axis=1, ddof=1) if cfg.paths > 1
              else np.zeros(n))
    trajectories = np.stack(recorded) if record_paths > 0 else None
    return SimReport(default_freq=freq, default_ci_halfwidth=halfwidth,
                     mean_cost=cost.mean(axis=1),
                     terminal_mean=terminal.mean(axis=1),
                     terminal_logvar=logvar, paths_used=cfg.paths,
                     seed_used=cfg.seed, infeasible_fallback=infeasible,
                     trajectories=trajectories)


def estimate_cost(net: FinancialNetwork, i: int, psi: float, cfg: SimConfig,
                  threads: int | None = None) -> tuple[float, float]:
    """Monte Carlo estimate of the expected lending cost for bank ``i``.

    Mean over paths of half the trapezoid integral of the squared loan flow
    at constant rate ``psi``, with a 95% confidence half-width.  Draws use the
    same ``(seed, bank, path)`` addressing as ``simulate_network``.
    """
    if not 0 <= i < net.n:
        raise IndexError(f"bank index {i} out of range for {net.n} banks")
    require(math.isfinite(psi), "psi", MUST_BE_FINITE)
    require(psi >= 0, "psi", "must be non-negative")
    with ThreadPoolExecutor(max_workers=_resolve_threads(threads)) as executor:
        _, cost, _ = _simulate_bank(
            float(net.cash[i]), float(net.drift[i] + psi), float(net.vol[i]),
            float(psi), net.horizon, cfg, stream=i, executor=executor,
            record_paths=0)
    mean = float(cost.mean())
    if cfg.paths > 1:
        halfwidth = _Z95 * float(cost.std(ddof=1)) / math.sqrt(cfg.paths)
    else:
        halfwidth = 0.0
    return mean, halfwidth
