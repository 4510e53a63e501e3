"""Closed-form optimal lending rates under terminal survival constraints.

A supervisor can boost a bank's drift by a constant rate ``psi`` over the
remaining horizon.  For lognormal dynamics the terminal survival probability
has a closed form in ``psi``, which inverts to the unique rate meeting a
required probability ``q``.  The state space splits into three regions: no
action needed (the uncontrolled bank already meets ``q``), action (a rate in
``(0, psi_cap]`` meets it), and infeasible (even the cap falls short).  The
expected cost of holding a constant rate is likewise closed form.

Per-bank problems are independent, so network-level decisions are the
concatenation of single-bank decisions and their costs add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import erf, erfinv

from .errors import MUST_BE_FINITE, require
from .network import FinancialNetwork, default_boundary

__all__ = [
    "Region",
    "ControlProblem",
    "ControlDecision",
    "rho",
    "survival_probability",
    "switching_rate",
    "no_action_threshold",
    "classify",
    "value_function",
    "network_decision",
]


class Region(str, Enum):
    """Classification of a bank's state relative to the switching curves."""

    NO_ACTION = "no_action"
    ACTION = "action"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class ControlProblem:
    """Single-bank control problem over the remaining horizon.

    ``v_terminal`` is the terminal default threshold and must be positive
    (net creditors never default and are handled upstream by convention).
    ``psi_cap`` is the largest admissible lending rate; ``math.inf`` means
    uncapped.
    """

    mu: float
    sigma: float
    v_terminal: float
    horizon_remaining: float
    q: float
    psi_cap: float = math.inf

    def __post_init__(self):
        for name in ("mu", "sigma", "v_terminal", "horizon_remaining", "q"):
            require(math.isfinite(getattr(self, name)), name, MUST_BE_FINITE)
        require(self.sigma > 0, "sigma", "must be strictly positive")
        require(self.horizon_remaining > 0, "horizon_remaining",
                "must be positive")
        require(0.0 < self.q < 1.0, "q", "must lie strictly inside (0, 1)")
        require(self.v_terminal > 0, "v_terminal", "must be positive")
        # NaN fails the comparison; inf means uncapped
        require(self.psi_cap > 0, "psi_cap",
                "must be positive (math.inf for no cap)")


@dataclass(frozen=True)
class ControlDecision:
    """Outcome of classifying one bank.

    ``psi_star`` is 0 in the no-action region and ``None`` when infeasible;
    ``expected_cost`` is ``math.inf`` when infeasible.  ``threshold_log_x`` is
    the log-value above which no action is needed (``None`` when the bank can
    never default).
    """

    region: Region
    psi_star: float | None
    expected_cost: float
    survival_prob_uncontrolled: float
    threshold_log_x: float | None


def rho(q: float) -> float:
    """Quantile factor sqrt(2) * erfinv(1 - 2q), i.e. the negated standard
    normal quantile of ``q``.

    Evaluated on the lower half and mirrored, so the antisymmetry
    ``rho(q) == -rho(1 - q)`` is exact whenever ``1 - q`` is.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly inside (0, 1)")
    if q <= 0.5:
        return math.sqrt(2.0) * float(erfinv(1.0 - 2.0 * q))
    return -math.sqrt(2.0) * float(erfinv(1.0 - 2.0 * (1.0 - q)))


def survival_probability(p: ControlProblem, x: float, psi: float) -> float:
    """Probability that the bank ends the horizon at or above its threshold.

    Closed form for lognormal dynamics with drift ``mu + psi``; strictly
    increasing in both ``x`` and ``psi``.
    """
    if not x > 0:
        raise ValueError("current value x must be positive")
    if not 0 <= psi <= p.psi_cap:
        raise ValueError(f"psi must lie in [0, {p.psi_cap}]")
    tau = p.horizon_remaining
    d = (math.log(p.v_terminal / x) - (p.mu + psi - p.sigma**2 / 2.0) * tau) \
        / math.sqrt(2.0 * p.sigma**2 * tau)
    return 0.5 * (1.0 - float(erf(d)))


def switching_rate(p: ControlProblem, x: float) -> float:
    """The constant rate whose survival probability is exactly ``q``.

    May be negative, in which case the uncontrolled bank already satisfies
    the constraint.  For results inside ``[0, psi_cap]`` the round trip
    ``survival_probability(p, x, switching_rate(p, x)) == q`` holds.
    """
    if not x > 0:
        raise ValueError("current value x must be positive")
    tau = p.horizon_remaining
    return (p.sigma**2 / 2.0 - p.mu) + math.log(p.v_terminal / x) / tau \
        - p.sigma * rho(p.q) / math.sqrt(tau)


def no_action_threshold(p: ControlProblem) -> float:
    """Log-value at which the switching rate crosses zero.

    Banks whose log wealth exceeds this threshold need no intervention.
    Increasing in ``q``.
    """
    tau = p.horizon_remaining
    return math.log(p.v_terminal) + (p.sigma**2 / 2.0 - p.mu) * tau \
        - p.sigma * rho(p.q) * math.sqrt(tau)


def value_function(p: ControlProblem, x: float, psi: float) -> float:
    """Expected cost of lending at constant rate ``psi`` from state ``x``.

    Half the expected integral of the squared loan flow over the remaining
    horizon:

        0.5 * psi^2 * x^2 * (exp(c * tau) - 1) / c,   c = 2 (mu + psi) + sigma^2

    with the removable singularity at ``c == 0`` evaluated as
    ``0.5 * psi^2 * x^2 * tau``.  Zero exactly when ``psi`` is zero.
    """
    if not x > 0:
        raise ValueError("current value x must be positive")
    if not 0 <= psi < math.inf:
        raise ValueError("psi must be finite and non-negative")
    tau = p.horizon_remaining
    c = 2.0 * (p.mu + psi) + p.sigma**2
    if c == 0.0:
        integral = tau
    else:
        integral = math.expm1(c * tau) / c
    return 0.5 * psi**2 * x**2 * integral


def classify(p: ControlProblem, x: float) -> ControlDecision:
    """Region of state ``x`` and the optimal rate, cost, and diagnostics.

    A zero switching rate classifies as no action and a rate exactly at the
    cap as action (the cheaper or feasible label wins on boundaries).
    """
    rate = switching_rate(p, x)
    survival0 = survival_probability(p, x, 0.0)
    threshold = no_action_threshold(p)
    if rate <= 0.0:
        return ControlDecision(region=Region.NO_ACTION, psi_star=0.0,
                               expected_cost=0.0,
                               survival_prob_uncontrolled=survival0,
                               threshold_log_x=threshold)
    if rate <= p.psi_cap:
        return ControlDecision(region=Region.ACTION, psi_star=rate,
                               expected_cost=value_function(p, x, rate),
                               survival_prob_uncontrolled=survival0,
                               threshold_log_x=threshold)
    return ControlDecision(region=Region.INFEASIBLE, psi_star=None,
                           expected_cost=math.inf,
                           survival_prob_uncontrolled=survival0,
                           threshold_log_x=threshold)


def _never_defaults() -> ControlDecision:
    # net creditor: no positive terminal threshold, survival certain
    return ControlDecision(region=Region.NO_ACTION, psi_star=0.0,
                           expected_cost=0.0,
                           survival_prob_uncontrolled=1.0,
                           threshold_log_x=None)


def network_decision(net: FinancialNetwork, q: np.ndarray, t: float = 0.0,
                     psi_cap: float = math.inf) -> list[ControlDecision]:
    """Per-bank decisions at time ``t`` given survival targets ``q``.

    Uses each bank's terminal default boundary and treats its cash entry as
    the current value.  Banks with a non-positive boundary can never default
    and get a no-action decision with survival probability one.  The total
    expected cost of the network is the plain sum of the per-bank costs.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (net.n,):
        raise ValueError(f"q must have length {net.n}")
    if not ((q > 0) & (q < 1)).all():
        raise ValueError("q entries must lie strictly inside (0, 1)")
    if not 0.0 <= t < net.horizon:
        raise ValueError(f"decision time {t} outside [0, {net.horizon})")

    remaining = net.horizon - t
    boundaries = default_boundary(net, np.arange(net.n), net.horizon)
    decisions = []
    for i in range(net.n):
        boundary = float(boundaries[i])
        if boundary <= 0:
            decisions.append(_never_defaults())
            continue
        problem = ControlProblem(mu=float(net.drift[i]),
                                 sigma=float(net.vol[i]),
                                 v_terminal=boundary,
                                 horizon_remaining=remaining,
                                 q=float(q[i]), psi_cap=psi_cap)
        x = float(net.cash[i])
        if x <= 0:
            # nothing to grow: no proportional loan can reach the target
            decisions.append(ControlDecision(
                region=Region.INFEASIBLE, psi_star=None,
                expected_cost=math.inf, survival_prob_uncontrolled=0.0,
                threshold_log_x=no_action_threshold(problem)))
            continue
        decisions.append(classify(problem, x))
    return decisions
