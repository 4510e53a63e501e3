"""Seeded synthetic stressed interbank networks for the benchmark.

``synthetic_config(n, seed)`` returns the text of a lolrnet configuration
document.  The network is built so that every command runs without error
and every code path of the decision layer is exercised:

- each off-diagonal liability is present with probability ``DENSITY``;
- a ring edge ``i -> i+1`` is always present, so no bank is isolated and the
  rank pipeline never meets a zero-outdegree vertex;
- cash is a small, log-uniform share of each bank's debts, so most banks
  default at t = 0 and the clearing cascade needs many Picard rounds;
- a finite ``psi_cap`` and a ``rank_thresholds`` policy make no-action,
  action and infeasible banks all occur.

The same ``(n, seed)`` always gives byte-identical text.  Only numpy's
``PCG64`` stream and the standard library's float formatting are involved.
"""

from __future__ import annotations

import json
import math

import numpy as np

DENSITY = 0.2
GROWTH_RATE = 0.05
HORIZON = 1.0
PSI_CAP = 1.5


def _round(values, digits: int) -> list[float]:
    return [round(float(v), digits) for v in values]


def synthetic_config(n: int, seed: int) -> str:
    """Configuration text for an ``n``-bank network drawn from ``seed``."""
    if n < 3:
        raise ValueError("synthetic networks need at least 3 banks")
    rng = np.random.Generator(np.random.PCG64(seed))
    present = rng.random((n, n)) < DENSITY
    amounts = np.round(rng.uniform(1.0, 10.0, size=(n, n)), 2)
    liab = np.where(present, amounts, 0.0)
    ring = (np.arange(n) + 1) % n
    liab[np.arange(n), ring] = amounts[np.arange(n), ring]
    np.fill_diagonal(liab, 0.0)

    owed = liab.sum(axis=1)
    cash = np.round(owed * 10.0 ** rng.uniform(-3.0, -1.0, size=n), 4)
    cash = np.maximum(cash, 0.01)
    drift = rng.uniform(0.0, 0.3, size=n)
    vol = rng.uniform(0.1, 0.4, size=n)
    recovery = rng.uniform(0.3, 0.7, size=n)

    # rank is a unit vector, so a typical entry is 1/sqrt(n)
    typical = 1.0 / math.sqrt(n)
    doc = {
        "schema_version": "1",
        "comment": f"synthetic stressed network, n={n}, seed={seed}",
        "banks": [
            {"name": f"B{i + 1}", "cash": c, "drift": d, "vol": v,
             "recovery": r}
            for i, (c, d, v, r) in enumerate(zip(
                cash.tolist(), _round(drift, 4), _round(vol, 4),
                _round(recovery, 4)))],
        "liabilities": [[float(v) for v in row] for row in liab.tolist()],
        "growth_rate": GROWTH_RATE,
        "horizon": HORIZON,
        "ranking": {"c_plus": 1.0, "c_minus": 0.0, "damping": 0.85,
                    "epsilon": 0.0},
        "policy": {
            "kind": "rank_thresholds",
            "base": 0.5,
            "steps": [
                {"threshold": round(0.8 * typical, 6), "increment": 0.2},
                {"threshold": round(1.2 * typical, 6), "increment": 0.2},
            ],
        },
        "psi_cap": PSI_CAP,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"
