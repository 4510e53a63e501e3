"""Interbank liabilities network: obligations, clearing payments, default boundaries.

The network is a weighted digraph of nominal liabilities: entry ``(i, j)`` of
the liabilities matrix is the amount bank ``i`` owes bank ``j`` at time 0
(debtor orientation).  All liabilities grow exponentially at one common rate,
so the relative liabilities matrix is constant in time.

Clearing payments follow the classic fixed point

    u = ubar ∧ (Pi^T u + F)

(every bank pays the minimum of what it owes and what it has), computed by
monotone Picard iteration started from full payment.  Iterating from ``ubar``
converges to the greatest clearing vector; the map is monotone, so the
iterates decrease componentwise at every step.

All types are immutable after construction and every operation is a pure
function of its inputs, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MUST_BE_FINITE, ConvergenceError, is_int, require

__all__ = [
    "FinancialNetwork",
    "GraphMatrices",
    "ClearingResult",
    "total_obligations",
    "relative_liabilities",
    "clearing_vector",
    "net_liability_matrix",
    "default_boundary",
    "build_graph_matrices",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000

# relative slack before a shortfall flags a bank as defaulted
DEFAULT_FLAG_RTOL = 1e-8


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FinancialNetwork:
    """Static description of an interconnected bank system.

    Parameters
    ----------
    liabilities : array_like, shape (n, n)
        Non-negative nominal liabilities at time 0; entry ``(i, j)`` is the
        amount bank ``i`` owes bank ``j``.  Zero diagonal.
    cash : array_like, shape (n,)
        Non-negative initial asset value of each bank.  The same vector serves
        as the exogenous inflow in the clearing model.
    drift : array_like, shape (n,)
        Per-year drift of each bank's asset value.
    vol : array_like, shape (n,)
        Per-sqrt-year volatility of each bank's asset value; strictly positive.
    recovery : array_like, shape (n,)
        Recovery rate of each bank, strictly inside (0, 1); scales the default
        boundary before the terminal time.
    growth_rate : float
        Common per-year exponential growth rate of all liabilities.
    horizon : float
        Terminal time T in years; must be positive.
    """

    liabilities: np.ndarray
    cash: np.ndarray
    drift: np.ndarray
    vol: np.ndarray
    recovery: np.ndarray
    growth_rate: float
    horizon: float

    def __post_init__(self):
        liab = _frozen(self.liabilities)
        if liab.ndim != 2 or liab.shape[0] != liab.shape[1]:
            raise ValueError("liabilities must be a square matrix")
        n = liab.shape[0]
        if n < 1:
            raise ValueError("network needs at least one bank")
        object.__setattr__(self, "liabilities", liab)
        for name in ("cash", "drift", "vol", "recovery"):
            vec = _frozen(getattr(self, name))
            if vec.shape != (n,):
                raise ValueError(f"{name} must have length {n}")
            require(np.isfinite(vec), name, MUST_BE_FINITE)
            object.__setattr__(self, name, vec)
        require(self.cash >= 0, "cash", "must be non-negative")
        require(self.vol > 0, "vol", "must be strictly positive")
        require((self.recovery > 0) & (self.recovery < 1), "recovery",
                "must lie strictly inside (0, 1)")
        require(np.isfinite(liab), "liabilities", MUST_BE_FINITE)
        require(liab >= 0, "liabilities", "must be non-negative")
        require((liab == 0) | ~np.eye(n, dtype=bool), "liabilities",
                "diagonal must be zero")
        for name in ("growth_rate", "horizon"):
            require(math.isfinite(getattr(self, name)), name, MUST_BE_FINITE)
            object.__setattr__(self, name, float(getattr(self, name)))
        require(self.horizon > 0, "horizon", "must be a positive number")

    @property
    def n(self) -> int:
        """Number of banks."""
        return self.liabilities.shape[0]


@dataclass(frozen=True)
class GraphMatrices:
    """Incidence and adjacency matrices of the liabilities digraph.

    One directed edge exists per ordered pair ``(i, j)`` with a positive
    liability.  Edges are numbered in row-major order of the liabilities
    matrix.  ``incidence_in`` marks each edge's origin vertex and
    ``incidence_out`` its destination; each column carries exactly one 1.
    ``adjacency`` is the sum of the in- and out-adjacency matrices, hence
    symmetric with a zero diagonal (an entry of 2 marks a reciprocal pair).
    """

    incidence_in: np.ndarray
    incidence_out: np.ndarray
    adjacency: np.ndarray
    adjacency_in: np.ndarray
    adjacency_out: np.ndarray

    @property
    def m(self) -> int:
        """Number of directed edges."""
        return self.incidence_in.shape[1]


@dataclass(frozen=True)
class ClearingResult:
    """Fixed point of the clearing map and the resulting bank values.

    ``payments`` is the greatest clearing vector, ``defaulted`` flags banks
    that could not pay in full, ``values`` holds post-clearing bank values
    (positive part), and ``iterations``/``residual`` report solver effort and
    the final sup-norm fixed-point residual.
    """

    payments: np.ndarray
    defaulted: np.ndarray
    values: np.ndarray
    iterations: int
    residual: float


def _check_time(net: FinancialNetwork, t: float) -> None:
    if not (0.0 <= t <= net.horizon):
        raise ValueError(f"time {t} outside [0, {net.horizon}]")


def total_obligations(net: FinancialNetwork, t: float) -> np.ndarray:
    """Total nominal obligation of every bank at time ``t``.

    Row sums of the liabilities matrix scaled by the common exponential
    growth factor ``exp(growth_rate * t)``.
    """
    _check_time(net, t)
    return net.liabilities.sum(axis=1) * math.exp(net.growth_rate * t)


def relative_liabilities(net: FinancialNetwork, t: float) -> np.ndarray:
    """Row-normalized liabilities matrix Pi at time ``t``.

    Entry ``(i, j)`` is the fraction of bank ``i``'s total debt owed to bank
    ``j``; rows of banks with no obligations are zero.  Uniform exponential
    growth cancels in the ratio, so the result is the same for every ``t``.
    """
    _check_time(net, t)
    ubar = net.liabilities.sum(axis=1)
    pi = np.zeros_like(net.liabilities)
    pos = ubar > 0
    pi[pos] = net.liabilities[pos] / ubar[pos, None]
    return pi


def _clearing_map(u: np.ndarray, ubar: np.ndarray, pi_t: np.ndarray,
                  inflow: np.ndarray) -> np.ndarray:
    return np.minimum(ubar, pi_t @ u + inflow)


def clearing_vector(net: FinancialNetwork, t: float = 0.0,
                    tol: float = DEFAULT_TOL,
                    max_iter: int = DEFAULT_MAX_ITER) -> ClearingResult:
    """Greatest clearing vector at time ``t`` by Picard iteration from ``ubar``.

    Parameters
    ----------
    net : FinancialNetwork
    t : float
        Evaluation time in ``[0, horizon]``.  Liabilities carry their growth
        factor; the exogenous inflow equals the network's cash vector.
    tol : float
        Sup-norm fixed-point tolerance; must be positive.
    max_iter : int
        Iteration cap; an integer of at least 1.

    Returns
    -------
    ClearingResult

    Raises
    ------
    ConvergenceError
        If the residual is still above ``tol`` after ``max_iter`` steps; the
        error carries the last iterate and residual.
    """
    # written so that NaN fails
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not (is_int(max_iter) and max_iter >= 1):
        raise ValueError("max_iter must be an integer of at least 1")
    ubar = total_obligations(net, t)
    pi_t = relative_liabilities(net, t).T
    inflow = net.cash

    u = ubar.copy()
    residual = math.inf
    for iteration in range(1, max_iter + 1):
        nxt = _clearing_map(u, ubar, pi_t, inflow)
        residual = float(np.max(np.abs(u - nxt))) if len(u) else 0.0
        u = nxt
        if residual <= tol:
            break
    else:
        raise ConvergenceError("clearing iteration did not converge", u, residual)

    defaulted = (ubar - u) > DEFAULT_FLAG_RTOL * np.maximum(1.0, ubar)
    values = np.maximum(pi_t @ u + inflow - ubar, 0.0)
    return ClearingResult(payments=u, defaulted=defaulted, values=values,
                          iterations=iteration, residual=residual)


def net_liability_matrix(net: FinancialNetwork, payments: np.ndarray) -> np.ndarray:
    """Liabilities matrix with the given payments subtracted on the diagonal."""
    payments = np.asarray(payments, dtype=float)
    if payments.shape != (net.n,):
        raise ValueError(f"payments must have length {net.n}")
    return net.liabilities - np.diag(payments)


def default_boundary(net: FinancialNetwork, i: int | np.ndarray,
                     t: float) -> float | np.ndarray:
    """Default threshold of bank ``i`` at time ``t``.

    The net obligation of the bank (what it owes minus what it is owed, both
    at their time-``t`` nominal values), scaled by the bank's recovery rate
    strictly before the horizon and unscaled at the horizon.  Negative for
    net creditors, which therefore cannot default.

    An int ``i`` returns a float.  An integer index array returns an ndarray
    of the same shape, e.g. ``default_boundary(net, np.arange(net.n), t)``
    for every bank.  Either form costs one O(n^2) evaluation per call, so
    callers that need many banks pass them all at once.
    """
    index = np.asarray(i)
    out_of_range = (index < 0) | (index >= net.n)
    if out_of_range.any():
        bad = index[out_of_range].flat[0]
        raise IndexError(f"bank index {bad} out of range for {net.n} banks")
    _check_time(net, t)
    ubar = total_obligations(net, t)
    incoming = relative_liabilities(net, t).T @ ubar
    net_obligation = ubar[index] - incoming[index]
    if t < net.horizon:
        net_obligation = net.recovery[index] * net_obligation
    return float(net_obligation) if index.ndim == 0 else net_obligation


def build_graph_matrices(net: FinancialNetwork) -> GraphMatrices:
    """Incidence and adjacency matrices of the positive-liability digraph."""
    n = net.n
    edges = [(i, j) for i in range(n) for j in range(n)
             if net.liabilities[i, j] > 0]
    m = len(edges)
    incidence_in = np.zeros((n, m), dtype=int)
    incidence_out = np.zeros((n, m), dtype=int)
    adjacency_in = np.zeros((n, n), dtype=int)
    for alpha, (i, j) in enumerate(edges):
        incidence_in[i, alpha] = 1
        incidence_out[j, alpha] = 1
        adjacency_in[i, j] = 1
    adjacency_out = adjacency_in.T.copy()
    adjacency = adjacency_in + adjacency_out
    for arr in (incidence_in, incidence_out, adjacency, adjacency_in, adjacency_out):
        arr.setflags(write=False)
    return GraphMatrices(incidence_in=incidence_in, incidence_out=incidence_out,
                         adjacency=adjacency, adjacency_in=adjacency_in,
                         adjacency_out=adjacency_out)
