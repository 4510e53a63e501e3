"""Interbank liabilities: obligations, clearing, terminal default boundaries.

The network is a weighted digraph of nominal liabilities: entry ``(i, j)`` of
the liabilities matrix is the amount bank ``i`` owes bank ``j`` at time 0
(debtor orientation).  All liabilities grow exponentially at one common rate,
so the relative liabilities matrix is constant in time.

Clearing payments follow the classic fixed point

    u = ubar ∧ (Pi^T u + F)

(every bank pays the minimum of what it owes and what it has).  The greatest
clearing vector is computed by the fictitious-default algorithm of Eisenberg
& Noe (2001), one exact linear solve per round: it has no stopping tolerance
and no iteration cap, and it ends after at most n + 1 rounds.  A bank whose
shortfall stays within ``DEFAULT_FLAG_RTOL`` of its obligation pays in full.

All types are immutable after construction and every operation is a pure
function of its inputs, so concurrent use needs no locking.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import MUST_BE_FINITE, require

__all__ = [
    "FinancialNetwork",
    "ClearingResult",
    "total_obligations",
    "relative_liabilities",
    "clearing_vector",
    "default_boundary",
]

# relative slack before a shortfall puts a bank into default
DEFAULT_FLAG_RTOL = 1e-8

# largest exponent whose exp is a finite float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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
    growth_rate : float
        Common per-year exponential growth rate of all liabilities.
        ``growth_rate * horizon`` may not exceed ``log`` of the largest
        float, so every growth factor ``exp(growth_rate * t)`` is finite,
        and every grown obligation must stay finite too.
    horizon : float
        Terminal time T in years; must be positive.
    """

    liabilities: np.ndarray
    cash: np.ndarray
    drift: np.ndarray
    vol: np.ndarray
    growth_rate: float
    horizon: float

    def __post_init__(self):
        liab = _frozen(self.liabilities)
        require(liab.ndim == 2 and liab.shape[0] == liab.shape[1],
                "liabilities", "must be a square matrix")
        n = liab.shape[0]
        require(n >= 1, "liabilities", "must hold at least one bank")
        object.__setattr__(self, "liabilities", liab)
        for name in ("cash", "drift", "vol"):
            vec = _frozen(getattr(self, name))
            require(vec.shape == (n,), name, f"must have length {n}")
            require(np.isfinite(vec), name, MUST_BE_FINITE)
            object.__setattr__(self, name, vec)
        require(self.cash >= 0, "cash", "must be non-negative")
        require(self.vol > 0, "vol", "must be strictly positive")
        require(np.isfinite(liab), "liabilities", MUST_BE_FINITE)
        require(liab >= 0, "liabilities", "must be non-negative")
        require((liab == 0) | ~np.eye(n, dtype=bool), "liabilities",
                "diagonal must be zero")
        for name in ("growth_rate", "horizon"):
            require(math.isfinite(getattr(self, name)), name, MUST_BE_FINITE)
            object.__setattr__(self, name, float(getattr(self, name)))
        require(self.horizon > 0, "horizon", "must be a positive number")
        require(self.growth_rate * self.horizon <= _LOG_FLOAT_MAX,
                "growth_rate", "growth_rate * horizon must not exceed "
                f"log(largest float) = {_LOG_FLOAT_MAX:.2f}")
        # the largest grown obligation, formed as ``total_obligations``
        # forms it, so the check is exact at the overflow edge
        with np.errstate(over="ignore"):
            peak = float(liab.sum(axis=1).max())
        require(math.isfinite(peak), "liabilities",
                "row sums must stay below the largest float")
        peak *= math.exp(max(self.growth_rate, 0.0) * self.horizon)
        require(math.isfinite(peak), "growth_rate",
                "grown obligations must stay below the largest float")

    @property
    def n(self) -> int:
        """Number of banks."""
        return self.liabilities.shape[0]


@dataclass(frozen=True)
class ClearingResult:
    """Fixed point of the clearing map and the resulting bank values.

    ``payments`` is the greatest clearing vector, except that a bank whose
    shortfall stays within ``DEFAULT_FLAG_RTOL * max(1, ubar)`` pays in
    full; ``defaulted`` flags the banks that pay less, and ``values`` holds
    post-clearing bank values (positive part).  ``iterations`` counts
    fictitious-default rounds (at most n + 1), and ``residual`` is the sup
    norm of ``payments - ubar ∧ (Pi^T payments + F)``, evaluated on the
    returned vector.
    """

    payments: np.ndarray
    defaulted: np.ndarray
    values: np.ndarray
    iterations: int
    residual: float


def total_obligations(net: FinancialNetwork, t: float) -> np.ndarray:
    """Total nominal obligation of every bank at time ``t``.

    Row sums of the liabilities matrix scaled by the common exponential
    growth factor ``exp(growth_rate * t)``.  A time outside ``[0,
    horizon]``, NaN included, raises ``InvalidValueError`` naming ``t``.
    """
    require(0.0 <= t <= net.horizon, "t",
            f"must lie in [0, {net.horizon}], got {t!r}")
    return net.liabilities.sum(axis=1) * math.exp(net.growth_rate * t)


def relative_liabilities(net: FinancialNetwork) -> np.ndarray:
    """Row-normalized liabilities matrix Pi.

    Entry ``(i, j)`` is the fraction of bank ``i``'s total debt owed to bank
    ``j``; rows of banks with no obligations are zero.  Uniform exponential
    growth cancels in the ratio, so Pi is the same at every time.
    """
    liab = net.liabilities
    ubar = liab.sum(axis=1)
    # a row that owes nothing keeps the output's +0.0, even if it holds -0.0
    return np.divide(liab, ubar[:, None], out=np.zeros_like(liab),
                     where=(ubar > 0)[:, None])


def clearing_vector(net: FinancialNetwork, t: float = 0.0) -> ClearingResult:
    """Greatest clearing vector at time ``t``, by fictitious default.

    Every bank starts solvent, paying ``ubar`` in full.  Each round adds to
    the default set D every solvent bank whose shortfall ``ubar - (Pi^T u +
    F)`` exceeds ``DEFAULT_FLAG_RTOL * max(1, ubar)``, then solves the
    clearing equations on D exactly,

        (I - Pi_DD^T) u_D = F_D + Pi_SD^T ubar_S,

    with the solvent set S still paying in full.  Payments only fall from
    round to round, so a bank that joins D stays in default, and the
    algorithm stops at the first round in which no bank joins (Eisenberg &
    Noe 2001; Rogers & Veraart 2013).  No closed class of banks can default
    at the greatest clearing vector, but a cashless closed class has a bank
    that pays in full with zero equity, and rounding alone would push it
    into D and make the solve singular.  The slack, far above that
    rounding, keeps it solvent, and D is exactly the set of defaulted banks.

    Parameters
    ----------
    net : FinancialNetwork
    t : float
        Evaluation time in ``[0, horizon]``.  Liabilities carry their growth
        factor; the exogenous inflow equals the network's cash vector.

    Returns
    -------
    ClearingResult
    """
    ubar = total_obligations(net, t)
    pi = relative_liabilities(net)
    inflow = net.cash
    slack = DEFAULT_FLAG_RTOL * np.maximum(1.0, ubar)

    u = ubar.copy()
    insolvent = np.zeros(net.n, dtype=bool)
    rounds = 0
    while True:
        rounds += 1
        assets = pi.T @ u + inflow
        joining = ~insolvent & (ubar - assets > slack)
        if not joining.any():
            break
        insolvent |= joining
        solvent = ~insolvent
        # gather Pi_DD from C-ordered Pi, then transpose the gathered block
        u[insolvent] = np.linalg.solve(
            np.eye(np.count_nonzero(insolvent))
            - pi[np.ix_(insolvent, insolvent)].T,
            inflow[insolvent]
            + pi.T[np.ix_(insolvent, solvent)] @ ubar[solvent])

    residual = float(np.max(np.abs(u - np.minimum(ubar, assets))))
    values = np.maximum(assets - ubar, 0.0)
    return ClearingResult(payments=u, defaulted=insolvent, values=values,
                          iterations=rounds, residual=residual)


def default_boundary(net: FinancialNetwork) -> np.ndarray:
    """Terminal default threshold of every bank.

    Entry ``i`` is the net obligation of bank ``i`` at the horizon, where
    the survival constraints bind: what it owes minus what it is owed.
    Negative for net creditors, which therefore cannot default.  One call
    costs one O(n^2) evaluation for all banks.
    """
    ubar = total_obligations(net, net.horizon)
    return ubar - relative_liabilities(net).T @ ubar
