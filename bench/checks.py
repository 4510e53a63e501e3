"""Independent checks of lolrnet's command outputs.

Every check recomputes what it needs from the configuration document with
plain numpy/scipy arithmetic written here; none of it calls lolrnet.  A
check returns a list of failure messages, empty when the output is right.
Tolerances are fixed here and never widened to make a run pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import bdtr, bdtrc, ndtr, ndtri

# the two-sided normal quantile a Monte Carlo default frequency must stay
# within; the binomial tail test below uses the same significance
SIM_Z = 5.0
SIM_ALPHA = 2.0 * float(ndtr(-SIM_Z))

# slack for values that cross a decision boundary by rounding alone
TIE = 1e-9

DUMP_HEADER = "bank,name,scenario,path,step,time,value"


@dataclass(frozen=True)
class Net:
    """A configuration document as arrays."""

    liab: np.ndarray
    cash: np.ndarray
    drift: np.ndarray
    vol: np.ndarray
    growth: float
    horizon: float
    ranking: dict
    policy: dict
    psi_cap: float

    @property
    def n(self) -> int:
        return len(self.cash)

    @property
    def boundary(self) -> np.ndarray:
        """Terminal default boundary ``(rowsum - colsum) * e^{gT}``."""
        return ((self.liab.sum(axis=1) - self.liab.sum(axis=0))
                * math.exp(self.growth * self.horizon))


def parse_config(text: str) -> Net:
    doc = json.loads(text)
    banks = doc["banks"]
    cap = doc["psi_cap"]
    return Net(liab=np.array(doc["liabilities"], dtype=float),
               cash=np.array([b["cash"] for b in banks], dtype=float),
               drift=np.array([b["drift"] for b in banks], dtype=float),
               vol=np.array([b["vol"] for b in banks], dtype=float),
               growth=float(doc["growth_rate"]),
               horizon=float(doc["horizon"]),
               ranking=doc["ranking"], policy=doc["policy"],
               psi_cap=math.inf if cap == "inf" else float(cap))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------

def google_matrix(net: Net) -> np.ndarray:
    """Damped Google matrix of the liability-weighted rank."""
    rk = net.ranking
    positions = net.cash + net.liab.sum(axis=0) - net.liab.sum(axis=1)
    denom = positions - positions.min() + 1.0
    gamma = (rk["c_plus"] * net.liab + rk["c_minus"] * net.liab.T) \
        / denom[None, :]
    np.fill_diagonal(gamma, 0.0)
    epsilon = rk.get("epsilon", 0.0)
    if epsilon > 0:
        gamma = gamma + epsilon * ((net.liab + net.liab.T) > 0)
    out = gamma.sum(axis=1)
    damping = rk.get("damping", 0.85)
    return (1.0 - damping) / net.n + damping * gamma / out[None, :]


def perron_vector(google: np.ndarray, iters: int = 100_000) -> np.ndarray:
    """Unit positive dominant eigenvector by power iteration."""
    vec = np.full(google.shape[0], 1.0)
    vec /= np.linalg.norm(vec)
    for _ in range(iters):
        nxt = google @ vec
        nxt /= np.linalg.norm(nxt)
        if np.max(np.abs(nxt - vec)) <= 1e-14:
            return nxt
        vec = nxt
    raise RuntimeError("reference power iteration did not converge")


def policy_q(policy: dict, rank: np.ndarray) -> np.ndarray:
    if policy["kind"] == "uniform":
        return np.full(rank.shape, float(policy["q"]))
    q = np.full(rank.shape, float(policy["base"]))
    for step in policy["steps"]:
        q = q + step["increment"] * (rank > step["threshold"])
    return q


def expected_q(net: Net) -> tuple[np.ndarray, np.ndarray]:
    """Survival targets from an independently computed rank.

    Also returns a mask of banks whose rank sits within rounding of a policy
    threshold, where either neighbouring target is accepted.
    """
    rank = perron_vector(google_matrix(net))
    ambiguous = np.zeros(net.n, dtype=bool)
    if net.policy["kind"] == "rank_thresholds":
        for step in net.policy["steps"]:
            ambiguous |= np.abs(rank - step["threshold"]) <= TIE
    return policy_q(net.policy, rank), ambiguous


def check_q(doc_q, q_expected, ambiguous) -> list[str]:
    doc_q = np.asarray(doc_q, dtype=float)
    bad = np.flatnonzero((np.abs(doc_q - q_expected) > 1e-12) & ~ambiguous)
    return [f"bank {i + 1}: q {doc_q[i]!r}, expected {q_expected[i]!r}"
            for i in bad[:5]]


def check_rank(net: Net, doc: dict, q_expected, ambiguous) -> list[str]:
    """Google matrix, eigen-residual ``||G r - lambda r||`` and targets."""
    fails = []
    google = np.array(doc["matrices"]["google"], dtype=float)
    reference = google_matrix(net)
    if google.shape != reference.shape:
        return [f"google matrix shape {google.shape}, expected "
                f"{reference.shape}"]
    err = float(np.max(np.abs(google - reference)))
    if err > 1e-12:
        fails.append(f"google matrix differs from recomputation by {err:.3e}")
    rank = np.array([b["rank"] for b in doc["banks"]], dtype=float)
    lam = float(doc["eigenvalue"])
    residual = float(np.linalg.norm(google @ rank - lam * rank))
    if not residual <= 1e-9:
        fails.append(f"eigen residual {residual:.3e} > 1e-9")
    if not np.all(rank > 0):
        fails.append("rank vector is not strictly positive")
    if not abs(np.linalg.norm(rank) - 1.0) <= 1e-9:
        fails.append("rank vector is not unit length")
    positions = net.cash + net.liab.sum(axis=0) - net.liab.sum(axis=1)
    doc_pos = np.array([b["net_position"] for b in doc["banks"]], dtype=float)
    if not np.allclose(doc_pos, positions, rtol=1e-12, atol=1e-9):
        fails.append("net positions differ from recomputation")
    fails += check_q([b["q"] for b in doc["banks"]], q_expected, ambiguous)
    return fails


# ---------------------------------------------------------------------------
# clearing
# ---------------------------------------------------------------------------

def check_clearing(net: Net, doc: dict, t: float = 0.0) -> list[str]:
    """Fixed point of ``min(ubar, Pi^T u + F)``, bounds and default flags."""
    fails = []
    growth = math.exp(net.growth * t)
    owed = net.liab.sum(axis=1)
    ubar = owed * growth
    pi = np.divide(net.liab, owed[:, None], out=np.zeros_like(net.liab),
                   where=owed[:, None] > 0)
    banks = doc["banks"]
    u = np.array([b["payment"] for b in banks], dtype=float)
    flags = np.array([b["defaulted"] for b in banks], dtype=bool)
    values = np.array([b["value"] for b in banks], dtype=float)
    obligations = np.array([b["obligation"] for b in banks], dtype=float)
    scale = max(1.0, float(ubar.max()))

    if not np.allclose(obligations, ubar, rtol=1e-12, atol=0.0):
        fails.append("obligations differ from rowsum * e^{gt}")
    if np.any(u < 0) or np.any(u > ubar * (1 + 1e-12)):
        fails.append("payments outside [0, ubar]")
    inflow = pi.T @ u + net.cash
    residual = float(np.max(np.abs(np.minimum(ubar, inflow) - u)))
    if not residual <= 1e-8 * scale:
        fails.append(f"fixed-point residual {residual:.3e} too large")
    gap = ubar - u
    must = gap > 1e-6 * np.maximum(1.0, ubar)
    never = gap <= 1e-10 * np.maximum(1.0, ubar)
    bad = np.flatnonzero((must & ~flags) | (never & flags))
    if bad.size:
        fails.append(f"default flags inconsistent with payments for banks "
                     f"{(bad[:5] + 1).tolist()}")
    expected_values = np.maximum(inflow - ubar, 0.0)
    if not np.allclose(values, expected_values, rtol=1e-9, atol=1e-8 * scale):
        fails.append("bank values differ from max(Pi^T u + F - ubar, 0)")
    return fails


# ---------------------------------------------------------------------------
# regions and control
# ---------------------------------------------------------------------------

def _survival(net: Net, boundary: np.ndarray, psi: np.ndarray,
              tau: float) -> np.ndarray:
    """Closed-form P(X_T >= v) under drift ``mu + psi`` (1 where v <= 0)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d = (np.log(net.cash / boundary)
             + (net.drift + psi - 0.5 * net.vol**2) * tau) \
            / (net.vol * math.sqrt(tau))
    return np.where(boundary > 0, ndtr(d), 1.0)


def _switching_rate(net: Net, boundary: np.ndarray, q: np.ndarray,
                    tau: float) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return (0.5 * net.vol**2 - net.drift
                + np.log(boundary / net.cash) / tau
                + net.vol * ndtri(q) / math.sqrt(tau))


def expected_regions(net: Net, q: np.ndarray, t: float = 0.0):
    """Region labels from the recomputed boundary, plus a tie mask."""
    tau = net.horizon - t
    boundary = net.boundary
    rate = _switching_rate(net, boundary, q, tau)
    labels = np.where(rate <= 0, "no_action",
                      np.where(rate <= net.psi_cap, "action", "infeasible"))
    labels = np.where(boundary > 0, labels, "no_action")
    # a boundary that is zero up to rounding may land on either side of it
    scale = max(1.0, float(np.abs(boundary).max()))
    ties = ((np.abs(boundary) <= TIE * scale)
            | ((boundary > 0) & ((np.abs(rate) <= TIE)
                                 | (np.abs(rate - net.psi_cap) <= TIE))))
    return labels, ties, rate


def _check_labels(doc_labels, labels, ties) -> list[str]:
    doc_labels = np.asarray(doc_labels)
    bad = np.flatnonzero((doc_labels != labels) & ~ties)
    return [f"bank {i + 1}: region {doc_labels[i]}, expected {labels[i]}"
            for i in bad[:5]]


def check_regions(net: Net, doc: dict, q_expected, ambiguous,
                  t: float = 0.0) -> list[str]:
    banks = doc["banks"]
    fails = check_q([b["q"] for b in banks], q_expected, ambiguous)
    q = np.array([b["q"] for b in banks], dtype=float)
    labels, ties, _ = expected_regions(net, q, t)
    fails += _check_labels([b["region"] for b in banks], labels, ties)
    boundary = net.boundary
    scale = max(1.0, float(np.abs(boundary).max()))
    v_doc = np.array([b["v_terminal"] for b in banks], dtype=float)
    if not np.allclose(v_doc, boundary, rtol=1e-12, atol=1e-12 * scale):
        fails.append("v_terminal differs from (rowsum - colsum) e^{gT}")
    tau = net.horizon - t
    for i, bank in enumerate(banks):
        threshold = bank["threshold_log_x"]
        if abs(boundary[i]) <= TIE * scale:
            continue
        if boundary[i] <= 0:
            if threshold is not None:
                fails.append(f"bank {i + 1}: net creditor has a threshold")
            continue
        expected = (math.log(boundary[i])
                    + (0.5 * net.vol[i]**2 - net.drift[i]) * tau
                    + net.vol[i] * float(ndtri(q[i])) * math.sqrt(tau))
        if threshold is None or not _close(threshold, expected, 1e-9):
            fails.append(f"bank {i + 1}: threshold_log_x {threshold!r}, "
                         f"expected {expected!r}")
    return fails


def check_control(net: Net, doc: dict, q_expected, ambiguous,
                  t: float = 0.0) -> list[str]:
    """Survival at psi* equals q; regions, costs and totals are consistent."""
    banks = doc["banks"]
    fails = check_q([b["q"] for b in banks], q_expected, ambiguous)
    q = np.array([b["q"] for b in banks], dtype=float)
    labels, ties, _ = expected_regions(net, q, t)
    fails += _check_labels([b["region"] for b in banks], labels, ties)
    tau = net.horizon - t
    boundary = net.boundary
    survival0 = _survival(net, boundary, np.zeros(net.n), tau)
    psi_action = np.array([b["psi_star"] if b["region"] == "action"
                           and b["psi_star"] is not None else 0.0
                           for b in banks], dtype=float)
    survival_star = _survival(net, boundary, psi_action, tau)
    total = 0.0
    for i, bank in enumerate(banks):
        # infinities are written as the string "inf", which float() reads
        psi, cost = bank["psi_star"], float(bank["expected_cost"])
        if not _close(bank["survival_prob_uncontrolled"], survival0[i],
                      1e-9):
            fails.append(f"bank {i + 1}: uncontrolled survival "
                         f"{bank['survival_prob_uncontrolled']!r}, expected "
                         f"{survival0[i]!r}")
        region = bank["region"]
        if region == "no_action":
            if psi != 0 or cost != 0:
                fails.append(f"bank {i + 1}: no-action bank lends or costs")
        elif region == "infeasible":
            if psi is not None or cost != math.inf:
                fails.append(f"bank {i + 1}: infeasible bank has a rate")
        else:
            if psi is None or not 0 < psi <= net.psi_cap:
                fails.append(f"bank {i + 1}: action rate {psi!r} outside "
                             f"(0, psi_cap]")
                continue
            if not abs(survival_star[i] - q[i]) <= 1e-9:
                fails.append(f"bank {i + 1}: survival at psi* is "
                             f"{float(survival_star[i])!r}, target "
                             f"{float(q[i])!r}")
            c = 2.0 * (net.drift[i] + psi) + net.vol[i]**2
            integral = tau if c == 0 else math.expm1(c * tau) / c
            expected = 0.5 * psi**2 * net.cash[i]**2 * integral
            if not _close(cost, expected, 1e-9):
                fails.append(f"bank {i + 1}: cost {cost!r}, expected "
                             f"{expected!r}")
        total += cost
    doc_total = float(doc["total_expected_cost"])
    if not (doc_total == total or _close(doc_total, total, 1e-9)):
        fails.append("total_expected_cost is not the sum of bank costs")
    return fails


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def binomial_pvalue(k: int, paths: int, p: float) -> float:
    """Two-sided exact binomial tail probability of ``k`` defaults."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == paths else 0.0
    lower = float(bdtr(k, paths, p))
    upper = 1.0 if k == 0 else float(bdtrc(k - 1, paths, p))
    return min(1.0, 2.0 * min(lower, upper))


def check_simulate(net: Net, doc: dict, paths: int, steps: int, seed: int,
                   q_expected, ambiguous) -> list[str]:
    """Each default frequency is within ``SIM_Z`` of its closed form.

    The test is the exact binomial tail at the significance ``SIM_Z`` gives
    a normal test, so it holds for ten paths as well as for 100k.
    """
    fails = []
    if (doc["paths_used"], doc["seed_used"], doc["steps"]) != (paths, seed,
                                                              steps):
        fails.append("paths_used / seed_used / steps differ from the flags")
    controlled = doc["controlled"]
    fails += check_q([b["q"] for b in controlled], q_expected, ambiguous)
    q = np.array([b["q"] for b in controlled], dtype=float)
    labels, ties, rate = expected_regions(net, q)
    boundary = net.boundary
    for scenario in ("uncontrolled", "controlled"):
        psi_doc = np.array([b["psi"] for b in doc[scenario]], dtype=float)
        p_default = 1.0 - _survival(net, boundary, psi_doc, net.horizon)
        for i, bank in enumerate(doc[scenario]):
            psi = float(psi_doc[i])
            fallback = bool(bank["infeasible_fallback"])
            if scenario == "uncontrolled":
                want_psi, want_fallback = 0.0, False
            else:
                want_fallback = labels[i] == "infeasible"
                want_psi = float(rate[i]) if labels[i] == "action" else 0.0
            if not ties[i] and (fallback != want_fallback
                                or not _close(psi, want_psi, 1e-9)):
                fails.append(f"{scenario} bank {i + 1}: psi {psi!r} / "
                             f"fallback {fallback}, expected {want_psi!r} / "
                             f"{want_fallback}")
                continue
            freq = float(bank["default_freq"])
            k = round(freq * paths)
            if abs(k - freq * paths) > 1e-6 * paths:
                fails.append(f"{scenario} bank {i + 1}: frequency {freq!r} "
                             f"is not a count over {paths} paths")
                continue
            pvalue = binomial_pvalue(k, paths, float(p_default[i]))
            if pvalue < SIM_ALPHA:
                fails.append(f"{scenario} bank {i + 1}: default frequency "
                             f"{freq!r} vs closed form "
                             f"{float(p_default[i])!r} "
                             f"(p-value {pvalue:.2e} < {SIM_ALPHA:.2e})")
    return fails


def check_warnings(stderr_text: str, doc: dict) -> list[str]:
    """One stderr warning per bank simulated uncontrolled for infeasibility."""
    warned = sum(1 for line in stderr_text.splitlines()
                 if line.startswith("warning: control for "))
    flagged = sum(1 for b in doc["controlled"] if b["infeasible_fallback"])
    if warned != flagged:
        return [f"{warned} infeasibility warnings for {flagged} flagged banks"]
    return []


def check_dump(path, n: int, paths: int, steps: int) -> list[str]:
    """Path dump header and row count: banks x paths x grid x 2 scenarios."""
    with open(path, "rb") as handle:
        header = handle.readline().decode("utf-8").rstrip("\n")
        rows = sum(chunk.count(b"\n")
                   for chunk in iter(lambda: handle.read(1 << 20), b""))
    fails = []
    if header != DUMP_HEADER:
        fails.append(f"dump header {header!r}")
    expected = n * paths * (steps + 1) * 2
    if rows != expected:
        fails.append(f"dump has {rows} rows, expected {expected}")
    return fails
