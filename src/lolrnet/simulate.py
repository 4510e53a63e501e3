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
Glasserman 2004, section 4.2), so each bank is simulated once.  The
chunks run in (bank, chunk) order on the calling thread, and each is
reduced, both scenarios of its paths in draw order, to default counts,
sums and M2s (summed squared deviations), which are then combined in chunk
order, counts as integers, sums by ``math.fsum`` and M2s by Chan, Golub
and LeVeque's update (1983).  The log-variance is that of ``w``, which the
shift ``psi T`` leaves alone.

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
the draw contract, and it fixes which paths share a cost series and a sum;
a fixed seed yields bit-identical reports within one numpy version (NEP
19).  The engine holds three rows of a chunk, and draws into the first as
(blocks, columns), the draw order: one block of every path, or the drawn
block and its negation.

``bank_paths`` rebuilds a bank's paths on the grid of ``steps`` intervals,
one chunk at a time.  It reads row 0 of the chunk's stream and adds ``psi
T`` as the simulation does, then reads rows 1 to ``steps``, and fills the
interior by Brownian bridge (Glasserman 2004, section 3.1).  With ``W`` the
terminal step's ``log(X_N / x0)`` and ``S_k`` the running sum of ``sigma
sqrt(dt) z_k`` over those rows,

    log(X_k / x0) = (k/N) W + (S_k - (k/N) S_N),

a Brownian bridge from 0 to ``W`` whatever the drift.  At ``k = N`` the
bracket is exactly 0, so every rebuilt terminal value is bit for bit the one
behind the estimates, and rebuilding paths moves no estimate.  A bank with
no cash takes ``log x0 = -inf``, so its every value is exactly 0.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .control import ControlDecision, Region, _check_rate
from .errors import is_int, require
from .network import FinancialNetwork, default_boundary

__all__ = ["SimConfig", "SimReport", "simulate_network", "bank_paths"]

# fixed work unit and draw-addressing unit; even, so no antithetic pair
# spans two chunks
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
            require(is_int(getattr(self, name)), name,
                    f"must be an integer, got {getattr(self, name)!r}")
        require(self.paths >= 1, "paths", "must be at least 1")
        require(self.steps >= 1, "steps", "must be at least 1")
        require(0 <= self.seed < 2**64, "seed",
                "must fit in an unsigned 64-bit integer")
        require(isinstance(self.antithetic, (bool, np.bool_)), "antithetic",
                f"must be a bool, got {self.antithetic!r}")


@dataclass(frozen=True)
class SimReport:
    """Per-bank Monte Carlo estimates.

    ``mean_cost`` averages each path's expected trapezoid cost on the
    ``steps`` grid given its terminal value.  ``default_ci_halfwidth`` and
    ``cost_ci_halfwidth`` hold 95% normal-approximation half-widths of the
    default frequencies and of ``mean_cost``, by the iid formulas ``z
    sqrt(p (1 - p) / n)`` and ``z sqrt(M2 / (n - 1)) / sqrt(n)``, ``z`` the
    two-sided 95% normal quantile, ``n`` the path count and ``M2`` the
    cost's summed squared deviations; the cost's is 0 at one path and on
    every zero-rate row.  Both are conservative for antithetic runs: the
    default indicator and the conditional cost are monotone in the draws,
    so a pair's negated draws never raise their variance (Glasserman 2004,
    section 4.2).  ``terminal_logvar`` is the variance of the rate-zero
    walk ``w``, ``log(X_N / x0)`` for a bank with cash; ``w`` does not
    depend on the cash, so a bank with none still reports it.
    ``infeasible_fallback`` flags banks whose control decision was
    infeasible and that were therefore simulated uncontrolled; it is set
    only in a controlled report.
    """

    default_freq: np.ndarray
    default_ci_halfwidth: np.ndarray
    mean_cost: np.ndarray
    cost_ci_halfwidth: np.ndarray
    terminal_mean: np.ndarray
    terminal_logvar: np.ndarray
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


def _log(x0: float) -> float:
    return math.log(x0) if x0 else -math.inf  # no cash: every value is 0


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


def _sum_m2(values: np.ndarray, scratch: np.ndarray) -> tuple[float, float]:
    """Sum of ``values`` and of their squared deviations from their mean."""
    total = values.sum()
    deviation = np.subtract(values, total / len(values), out=scratch)
    return total, np.square(deviation, out=deviation).sum()


def _reduce_chunk(net: FinancialNetwork, i: int, psi: float,
                  boundary: float, cfg: SimConfig, lo: int, hi: int,
                  buf: np.ndarray, out: np.ndarray) -> None:
    """Draw paths ``[lo, hi)`` of bank ``i`` into ``buf`` and write to
    ``out`` the default count and terminal sum at rate zero and at ``psi``,
    then the sum and M2 of the rate-zero ``log(X_N / x0)`` and of the cost."""
    x0, sigma, horizon = float(net.cash[i]), float(net.vol[i]), net.horizon
    size = hi - lo
    blocks = 2 if cfg.antithetic else 1
    _terminal_walk(float(net.drift[i]), sigma, horizon, cfg, i, lo,
                   buf[0, :blocks * -(-size // blocks)].reshape(blocks, -1))
    # the chunk's paths in draw order, without an odd chunk's unpaired
    # mirror.  Only ufunc reductions: a BLAS call (np.dot, @, vdot, inner)
    # wakes OpenBLAS's own spinning threads whichever thread calls it,
    # which doubled a chunk's CPU time over its wall time
    w, x, scratch = buf[:, :size]

    def terminal_stats() -> tuple[int, float]:
        np.exp(np.add(w, _log(x0), out=x), out=x)
        return np.count_nonzero(x < boundary), x.sum()

    out[4:6] = _sum_m2(w, scratch)
    out[0:2] = terminal_stats()
    if psi == 0:
        # rate zero costs nothing, and both scenarios are this one
        out[2:4], out[6:8] = out[0:2], 0.0
        return
    # a constant rate shifts the walk by psi T and leaves var(w) alone
    w += psi * horizon
    out[2:4] = terminal_stats()
    wmax = float(max(w.max(), -w.min()))
    coef = _cost_coefficients(x0, sigma, psi, horizon, cfg.steps, wmax)
    # the walk's row takes the series, then the cost
    _cost_series(coef, w, wmax, scratch, w)
    out[6:8] = _sum_m2(np.multiply(w, x, out=w), scratch)


def _fan_out(net: FinancialNetwork, banks: list[tuple],
             cfg: SimConfig) -> np.ndarray:
    """``_reduce_chunk``'s statistics, (banks, chunks, 8), of ``banks``,
    each ``(i, psi, boundary)``, in (bank, chunk) order through one buffer
    of three rows of an even chunk width."""
    spans = list(_chunks(cfg.paths))
    stats = np.empty((len(banks), len(spans), 8))
    buf = np.empty((3, 2 * -(-min(_CHUNK, cfg.paths) // 2)))
    for b, c in np.ndindex(stats.shape[:2]):
        _reduce_chunk(net, *banks[b], cfg, *spans[c], buf, stats[b, c])
    return stats


def _combine(stats: np.ndarray, paths: int
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_fan_out``'s statistics combined in chunk order: the default
    counts (2, banks), the means (3, banks) of the terminal value in each
    scenario and of the cost, ``math.fsum``s of chunk sums, and the M2s (2,
    banks) of ``log(X_N / x0)`` and of the cost, by Chan et al.'s update."""
    counts = stats[:, :, [0, 2]].astype(np.int64).sum(axis=1).T
    means = np.array([[math.fsum(row) for row in stats[:, :, k]]
                      for k in (1, 3, 6)]) / paths
    sizes = [hi - lo for lo, hi in _chunks(paths)]
    m2 = stats[:, 0, [5, 7]].T.copy()
    for row, k in enumerate((4, 6)):
        size, total = sizes[0], stats[:, 0, k]
        for c, part in enumerate(sizes[1:], 1):
            delta = stats[:, c, k] / part - total / size
            m2[row] += stats[:, c, k + 1] + delta * delta * (
                size * part / (size + part))
            total, size = total + stats[:, c, k], size + part
    return counts, means, m2


def simulate_network(net: FinancialNetwork, decisions: list[ControlDecision],
                     cfg: SimConfig) -> tuple[SimReport, SimReport]:
    """Simulate every bank uncontrolled and under its decided lending rate.

    Returns ``(uncontrolled, controlled)``.  The uncontrolled report runs
    every bank at rate zero.  The controlled one gives each bank effective
    drift ``mu + psi_star`` (zero rate for no-action and infeasible banks).
    Banks have independent drivers and each is simulated once: an action
    bank's controlled ``log(X_N / x0)`` is its uncontrolled one plus
    ``psi_star T`` (common random numbers, Glasserman 2004, section 4.2),
    so its ``terminal_logvar`` is the same in both reports, and a
    zero-rate bank's two rows are equal.  A bank defaults when its terminal
    value falls strictly below its terminal default boundary; survival is
    inclusive at equality.  Infeasible
    decisions are refused: the bank is simulated uncontrolled and flagged in
    the controlled report's ``infeasible_fallback``, the only field in which
    its two rows differ.

    Parameters
    ----------
    net : FinancialNetwork
    decisions : list[ControlDecision]
        One decision per bank, as produced by ``control.network_decision``.
        An action decision's ``psi_star`` must be a finite, non-negative
        real number; otherwise ``InvalidValueError`` names it
        (``decisions[2].psi_star``) before any path is drawn.
    cfg : SimConfig
    """
    require(len(decisions) == net.n, "decisions",
            f"must hold {net.n} entries, one per bank, got {len(decisions)}")
    for i, d in enumerate(decisions):
        if d.region is Region.ACTION:
            _check_rate(d.psi_star, f"decisions[{i}].psi_star")
    infeasible = np.array([d.region is Region.INFEASIBLE for d in decisions])
    # row 0 of each estimate is the uncontrolled scenario, row 1 controlled
    boundary = default_boundary(net)
    stats = _fan_out(net, [(i, d.psi_star if d.region is Region.ACTION
                            else 0.0, boundary[i])
                           for i, d in enumerate(decisions)], cfg)
    counts, means, m2 = _combine(stats, cfg.paths)
    freq = counts / cfg.paths
    # rows: log(X_N / x0), then the cost; one path has M2 0
    var = m2 / max(cfg.paths - 1, 1)
    mean_cost = np.stack([np.zeros_like(means[2]), means[2]])
    cost_halfwidth = np.stack([np.zeros_like(var[1]), _Z95 * np.sqrt(var[1])
                               / math.sqrt(cfg.paths)])
    halfwidth = _Z95 * np.sqrt(freq * (1.0 - freq) / cfg.paths)
    return tuple(
        SimReport(default_freq=freq[s], default_ci_halfwidth=halfwidth[s],
                  mean_cost=mean_cost[s], cost_ci_halfwidth=cost_halfwidth[s],
                  terminal_mean=means[s], terminal_logvar=var[0].copy(),
                  infeasible_fallback=infeasible & bool(s))
        for s in (0, 1))


def bank_paths(net: FinancialNetwork, i: int, psi: float,
               cfg: SimConfig) -> Iterator[np.ndarray]:
    """Bank ``i``'s paths at constant rate ``psi`` on the ``cfg.steps``
    grid in path order, each a (steps + 1,) view of its chunk's array.  A
    chunk is built on the calling thread when first asked for, and its last
    path is a copy, so a reader that keeps only the latest path holds one
    chunk.  Entry 0 is the cash and entry ``steps`` bit for bit the
    terminal value behind the estimates for the same bank, rate and
    ``cfg``; the interior is a Brownian bridge (see the module docstring)."""
    require(is_int(i) and 0 <= i < net.n, "i",
            f"must be an integer bank index in [0, {net.n}), got {i!r}")
    _check_rate(psi, "psi")
    return (path for lo, hi in _chunks(cfg.paths)
            for path in _chunk_paths(net, int(i), float(psi), cfg, lo, hi))


def _chunk_paths(net: FinancialNetwork, i: int, psi: float, cfg: SimConfig,
                 lo: int, hi: int) -> Iterator[np.ndarray]:
    """Paths ``[lo, hi)``, rebuilt in one (blocks, steps + 1, columns)
    array: path ``p`` of the chunk is column ``p // blocks`` of block ``p %
    blocks``, and an odd chunk's last column holds an unpaired mirror."""
    x0, sigma, horizon = float(net.cash[i]), float(net.vol[i]), net.horizon
    blocks = 2 if cfg.antithetic else 1
    cols = -(-(hi - lo) // blocks)
    walk = np.empty((blocks, cols))
    gen = _terminal_walk(float(net.drift[i]), sigma, horizon, cfg, i, lo,
                         walk)
    # the same shift as the simulation's, so X_N is bit for bit its own
    walk += psi * horizon
    # row k holds step k; rows 1 to steps of a block are contiguous, so
    # they take the stream step-major
    z = np.empty((blocks, cfg.steps + 1, cols))
    grid = z[:, 1:]
    _draw(gen, grid)
    grid *= sigma * math.sqrt(horizon / cfg.steps)
    np.cumsum(grid, axis=1, out=grid)
    # the bracket S_k - (k/N) S_N first, so it is exactly 0 at k = N; one
    # row at a time, as a whole-grid product would be a second chunk
    end, scaled = z[:, -1].copy(), np.empty_like(walk)
    for k in range(1, cfg.steps + 1):
        z[:, k] -= np.multiply(k / cfg.steps, end, out=scaled)
        z[:, k] += np.multiply(k / cfg.steps, walk, out=scaled)
    grid += _log(x0)
    np.exp(grid, out=grid)
    z[:, 0] = x0
    last = hi - lo - 1
    for p in range(last):
        yield z[p % blocks, :, p // blocks]
    yield z[last % blocks, :, last // blocks].copy()
