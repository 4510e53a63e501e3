"""Tests of the benchmark's own generator, output checks and span recorder.

Run with ``python -m pytest bench``.  lolrnet produces the genuine outputs;
each check must accept them and reject a perturbed copy.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import netgen  # noqa: E402
import spans  # noqa: E402
from lolrnet import cli  # noqa: E402

N = 40
SEED = 11


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Genuine ``--format doc`` outputs of every command on one network."""
    work = tmp_path_factory.mktemp("bench")
    config = work / "net.json"
    config.write_text(netgen.synthetic_config(N, SEED))
    docs = {}
    for name, extra in (("rank", []), ("clearing", []), ("regions", []),
                        ("control", []),
                        ("simulate", ["--paths", "4000", "--steps", "20",
                                      "--seed", "5"]),
                        ("simulate", ["--paths", "3", "--steps", "20",
                                      "--dump-paths", str(work / "dump.csv")])):
        out = work / f"{name}.json"
        assert cli.main([name, "--config", str(config), "--format", "doc",
                         "--output", str(out), *extra]) == 0
        docs.setdefault(name, json.loads(out.read_text()))
    net = checks.parse_config(config.read_text())
    q, ambiguous = checks.expected_q(net)
    return {"net": net, "q": q, "ambiguous": ambiguous, "docs": docs,
            "dump": work / "dump.csv"}


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_same_seed_gives_byte_identical_config():
    assert netgen.synthetic_config(60, 3) == netgen.synthetic_config(60, 3)
    assert netgen.synthetic_config(60, 3) != netgen.synthetic_config(60, 4)


def test_generated_network_shape():
    n = 300
    net = checks.parse_config(netgen.synthetic_config(n, 7))
    ring = net.liab[np.arange(n), (np.arange(n) + 1) % n]
    assert np.all(ring > 0), "every bank owes its ring successor"
    assert np.all(np.diag(net.liab) == 0)
    density = np.count_nonzero(net.liab) / (n * (n - 1))
    assert 0.18 < density < 0.23
    assert np.all(net.cash > 0)
    assert np.isfinite(net.psi_cap)
    assert net.policy["kind"] == "rank_thresholds"


def test_generated_network_is_stressed(tmp_path):
    from lolrnet import clearing_vector, load_config
    path = tmp_path / "net.json"
    path.write_text(netgen.synthetic_config(200, 7))
    result = clearing_vector(load_config(path).to_network())
    assert result.defaulted.mean() > 0.5, "most banks default at t = 0"
    assert result.iterations >= 20


def test_all_three_regions_occur():
    net = checks.parse_config(netgen.synthetic_config(200, 7))
    q, _ = checks.expected_q(net)
    labels, _, _ = checks.expected_regions(net, q)
    assert set(labels) == {"no_action", "action", "infeasible"}
    assert len(set(q)) == 3


# ---------------------------------------------------------------------------
# checks accept genuine outputs and reject perturbed ones
# ---------------------------------------------------------------------------

def test_genuine_outputs_pass(outputs):
    net, q, amb, docs = (outputs["net"], outputs["q"], outputs["ambiguous"],
                         outputs["docs"])
    assert checks.check_rank(net, docs["rank"], q, amb) == []
    assert checks.check_clearing(net, docs["clearing"]) == []
    assert checks.check_regions(net, docs["regions"], q, amb) == []
    assert checks.check_control(net, docs["control"], q, amb) == []
    assert checks.check_simulate(net, docs["simulate"], 4000, 20, 5, q,
                                 amb) == []
    assert checks.check_dump(outputs["dump"], N, 3, 20) == []


def test_rejects_perturbed_payment(outputs):
    doc = copy.deepcopy(outputs["docs"]["clearing"])
    bank = next(b for b in doc["banks"] if b["defaulted"])
    bank["payment"] *= 0.99
    assert checks.check_clearing(outputs["net"], doc)


def test_rejects_flipped_default_flag(outputs):
    doc = copy.deepcopy(outputs["docs"]["clearing"])
    bank = next(b for b in doc["banks"] if b["defaulted"])
    bank["defaulted"] = False
    assert checks.check_clearing(outputs["net"], doc)


def test_rejects_perturbed_rank(outputs):
    doc = copy.deepcopy(outputs["docs"]["rank"])
    doc["banks"][0]["rank"] *= 1.001
    assert checks.check_rank(outputs["net"], doc, outputs["q"],
                             outputs["ambiguous"])


@pytest.mark.parametrize("command", ["regions", "control"])
def test_rejects_flipped_region_label(outputs, command):
    doc = copy.deepcopy(outputs["docs"][command])
    bank = next(b for b in doc["banks"] if b["region"] == "action")
    bank["region"] = "no_action"
    check = getattr(checks, f"check_{command}")
    assert check(outputs["net"], doc, outputs["q"], outputs["ambiguous"])


def test_rejects_perturbed_lending_rate(outputs):
    doc = copy.deepcopy(outputs["docs"]["control"])
    bank = next(b for b in doc["banks"] if b["region"] == "action")
    bank["psi_star"] *= 1.01
    assert checks.check_control(outputs["net"], doc, outputs["q"],
                                outputs["ambiguous"])


def test_rejects_shifted_default_frequency(outputs):
    doc = copy.deepcopy(outputs["docs"]["simulate"])
    bank = next(b for b in doc["controlled"]
                if 0.2 < b["default_freq"] < 0.8)
    # ten standard deviations at 4000 paths
    bank["default_freq"] += 0.08
    assert checks.check_simulate(outputs["net"], doc, 4000, 20, 5,
                                 outputs["q"], outputs["ambiguous"])


def test_rejects_short_dump(outputs, tmp_path):
    lines = outputs["dump"].read_text().splitlines(keepends=True)
    short = tmp_path / "short.csv"
    short.write_text("".join(lines[:-1]))
    assert checks.check_dump(short, N, 3, 20)
    renamed = tmp_path / "renamed.csv"
    renamed.write_text("".join(["bank,scenario\n", *lines[1:]]))
    assert checks.check_dump(renamed, N, 3, 20)


def test_binomial_pvalue_edges():
    assert checks.binomial_pvalue(0, 10, 0.0) == 1.0
    assert checks.binomial_pvalue(1, 10, 0.0) == 0.0
    assert checks.binomial_pvalue(10, 10, 1.0) == 1.0
    assert checks.binomial_pvalue(5, 10, 0.5) == pytest.approx(1.0)
    assert checks.binomial_pvalue(60_000, 100_000, 0.5) < checks.SIM_ALPHA


# ---------------------------------------------------------------------------
# span recorder
# ---------------------------------------------------------------------------

def test_recorder_restores_originals():
    import lolrnet.control as control
    original = control.default_boundary
    with spans.Recorder() as rec:
        assert control.default_boundary is not original
    assert control.default_boundary is original
    assert rec.missing == []


def test_self_time_subtracts_direct_children():
    tree = [spans.Span(0, None, "a", 0.0, 10.0, 1),
            spans.Span(1, 0, "b", 1.0, 4.0, 1),
            spans.Span(2, 1, "c", 2.0, 3.0, 1),
            spans.Span(3, 0, "b", 5.0, 6.0, 1)]
    totals = spans.layer_totals(tree)
    assert totals["a"]["self_s"] == pytest.approx(6.0)
    assert totals["b"]["self_s"] == pytest.approx(3.0)
    assert totals["b"]["calls"] == 2
    assert totals["c"]["total_s"] == pytest.approx(1.0)
