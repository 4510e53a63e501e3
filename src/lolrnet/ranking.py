"""Liability-weighted systemic rank of banks and rank-driven survival targets.

Builds directed edge weights from the liabilities matrix and each bank's net
position, normalizes them into a column-indexed transition matrix, damps it
into an everywhere-positive Google matrix, and extracts the dominant
eigenvector by power iteration with fixed limits.  A bank with zero outgoing
weight (a pure lender under debt weighting, or an isolated bank) gets the
uniform transition column 1/n, the standard dangling-node patch, so every
network ranks.  Survival-probability targets are then assigned from the
rank through increasing rank thresholds (systemic-importance-driven style);
a policy without thresholds gives every bank the same target (max-liquidity
style).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MUST_BE_FINITE, ConvergenceError, require
from .network import FinancialNetwork

__all__ = [
    "RankWeights",
    "RankThresholdsPolicy",
    "RankingResult",
    "net_positions",
    "edge_weights",
    "google_matrix",
    "perron_rank",
    "assign_survival_probabilities",
    "rank_network",
]

DEFAULT_DAMPING = 0.85

# power-iteration stopping residual and step limit
_TOL = 1e-12
_MAX_ITER = 10_000

_COEFF_SUM_TOL = 1e-12


@dataclass(frozen=True)
class RankWeights:
    """Edge-weight coefficients and damping for the rank computation.

    ``c_plus`` weighs a bank's own debts and ``c_minus`` the credits owed to
    it; the two must sum to one.  ``damping`` is the teleport damping factor
    in (0, 1).  ``epsilon``, when positive, is added to the weight of every
    connected edge; it reweights the network but is not needed to rank it,
    since a bank with zero outgoing weight gets the uniform column anyway.
    """

    c_plus: float
    c_minus: float
    damping: float = DEFAULT_DAMPING
    epsilon: float = 0.0

    def __post_init__(self):
        for name in ("c_plus", "c_minus", "damping", "epsilon"):
            require(math.isfinite(getattr(self, name)), name, MUST_BE_FINITE)
        require(self.c_plus >= 0, "c_plus", "must be non-negative")
        require(self.c_minus >= 0, "c_minus", "must be non-negative")
        require(abs(self.c_plus + self.c_minus - 1.0) <= _COEFF_SUM_TOL,
                "c_minus", "c_plus + c_minus must equal 1")
        require(0.0 < self.damping < 1.0, "damping",
                "must lie strictly inside (0, 1)")
        require(self.epsilon >= 0, "epsilon", "must be non-negative")


@dataclass(frozen=True)
class RankThresholdsPolicy:
    """Survival target increasing in rank through step increments.

    ``steps`` is an ascending sequence of ``(threshold, increment)`` pairs;
    a bank's target is ``base`` plus every increment whose threshold its rank
    exceeds.  The ceiling ``base + sum(increments)`` must stay below 1.
    With no steps, every bank gets ``base``: the uniform target.
    """

    base: float
    steps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        steps = tuple((float(t), float(inc)) for t, inc in self.steps)
        object.__setattr__(self, "steps", steps)
        require(math.isfinite(self.base), "base", MUST_BE_FINITE)
        require(0.0 < self.base < 1.0, "base",
                "must lie strictly inside (0, 1)")
        ceiling = self.base
        previous = -math.inf
        for k, (threshold, increment) in enumerate(steps):
            path = f"steps[{k}]"
            require(math.isfinite(threshold), f"{path}.threshold", MUST_BE_FINITE)
            require(math.isfinite(increment), f"{path}.increment", MUST_BE_FINITE)
            require(threshold > previous, f"{path}.threshold",
                    "thresholds must be strictly ascending")
            require(increment >= 0, f"{path}.increment", "must be non-negative")
            previous = threshold
            ceiling += increment
        require(ceiling < 1.0, "steps",
                "base plus all increments must stay below 1")


@dataclass(frozen=True)
class RankingResult:
    """The damped Google matrix and its dominant eigenpair.

    ``edge_weights`` and ``google_matrix`` rebuild the intermediates
    (gamma_plus, gamma_minus, tau) on demand.
    """

    google: np.ndarray
    eigenvalue: float
    rank: np.ndarray


def net_positions(net: FinancialNetwork) -> np.ndarray:
    """Net amount held by each bank if all debts settled now.

    Cash plus total owed to the bank minus total owed by the bank.
    """
    owed_to = net.liabilities.sum(axis=0)
    owed_by = net.liabilities.sum(axis=1)
    return net.cash + owed_to - owed_by


def edge_weights(net: FinancialNetwork,
                 w: RankWeights) -> tuple[np.ndarray, np.ndarray]:
    """Directed edge-weight matrices (gamma_plus, gamma_minus).

    ``gamma_plus[i, j]`` combines the liability from ``i`` to ``j`` and the
    one from ``j`` to ``i`` with coefficients ``(c_plus, c_minus)`` and divides
    by ``N_j - min(N) + 1``, where ``N`` is the vector of net positions.
    ``gamma_minus`` is ``gamma_plus.T``, a read-only view (antisymmetry:
    ``gamma_minus[i, j] == gamma_plus[j, i]``).  Diagonals are zero.  With
    ``epsilon > 0`` every connected off-diagonal edge gains ``epsilon``.
    A row of ``gamma_plus`` may be all zero (a bank that owes nothing under
    ``c_plus = 1``, or an isolated bank); ``google_matrix`` gives that bank
    the uniform column.
    """
    liab = net.liabilities
    positions = net_positions(net)
    denom = positions - positions.min() + 1.0
    gamma_plus = (w.c_plus * liab + w.c_minus * liab.T) / denom[None, :]
    np.fill_diagonal(gamma_plus, 0.0)
    if w.epsilon > 0:
        connected = (liab + liab.T) > 0
        gamma_plus = gamma_plus + w.epsilon * connected
    gamma_minus = gamma_plus.T
    gamma_minus.setflags(write=False)
    return gamma_plus, gamma_minus


def google_matrix(gamma_plus: np.ndarray,
                  damping: float = DEFAULT_DAMPING) -> tuple[np.ndarray, np.ndarray]:
    """Normalized transition matrix tau and its damped Google matrix.

    ``tau[i, j] = gamma_plus[i, j] / outdegree(j)`` where ``outdegree(j)`` is
    the sum of row ``j`` of ``gamma_plus``.  A vertex with zero outdegree
    (a dangling bank) gets the uniform column ``tau[:, j] = 1 / n``.  The
    Google matrix is ``(1 - damping) / n`` everywhere plus
    ``damping * tau``, so each entry is at least ``(1 - damping) / n``.
    """
    gamma_plus = np.asarray(gamma_plus, dtype=float)
    require(gamma_plus.ndim == 2
            and gamma_plus.shape[0] == gamma_plus.shape[1],
            "gamma_plus", "must be a square matrix")
    require(0.0 < damping < 1.0, "damping", "must lie strictly inside (0, 1)")
    n = gamma_plus.shape[0]
    outdegree = gamma_plus.sum(axis=1)
    tau = np.divide(gamma_plus, outdegree[None, :],
                    out=np.full_like(gamma_plus, 1.0 / n),
                    where=(outdegree > 0)[None, :])
    google = (1.0 - damping) / n + damping * tau
    return tau, google


def perron_rank(google: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and strictly positive unit eigenvector.

    Power iteration with 2-norm renormalization on a strictly positive
    matrix; stops once ``||G r - lambda r||_2 <= 1e-12`` with the eigenvalue
    estimated by the Rayleigh quotient.

    Raises
    ------
    ConvergenceError
        If the residual does not reach 1e-12 within 10,000 steps, as on a
        slowly mixing matrix.
    """
    google = np.asarray(google, dtype=float)
    require(google.ndim == 2 and google.shape[0] == google.shape[1],
            "google", "must be a square matrix")
    require(google > 0, "google", "must be strictly positive")
    n = google.shape[0]
    vec = np.full(n, 1.0 / math.sqrt(n))
    eigenvalue = 0.0
    residual = math.inf
    for _ in range(_MAX_ITER):
        image = google @ vec
        eigenvalue = float(vec @ image)
        residual = float(np.linalg.norm(image - eigenvalue * vec))
        if residual <= _TOL:
            return eigenvalue, vec
        vec = image / np.linalg.norm(image)
    raise ConvergenceError("power iteration did not converge", vec, residual)


def assign_survival_probabilities(rank: np.ndarray,
                                  policy: RankThresholdsPolicy) -> np.ndarray:
    """Per-bank survival-probability targets from the rank vector.

    Non-decreasing in rank by construction; every target lies strictly
    inside (0, 1).
    A non-finite rank raises :class:`InvalidValueError` naming its entry.
    """
    rank = np.asarray(rank, dtype=float)
    require(np.isfinite(rank), "rank", MUST_BE_FINITE)
    q = np.full(rank.shape, policy.base)
    for threshold, increment in policy.steps:
        q = q + increment * (rank > threshold)
    return q


def rank_network(net: FinancialNetwork, w: RankWeights) -> RankingResult:
    """Full rank pipeline: weights, transition matrix, dominant eigenpair."""
    google = google_matrix(edge_weights(net, w)[0], w.damping)[1]
    eigenvalue, rank = perron_rank(google)
    return RankingResult(google=google, eigenvalue=eigenvalue, rank=rank)
