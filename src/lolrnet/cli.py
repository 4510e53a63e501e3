"""Batch command-line interface.

Five subcommands cover the library surface: ``rank``, ``clearing``,
``regions``, ``control``, and ``simulate``.  Each reads a configuration
document, writes either a CSV table (default) or a JSON document to stdout
or ``--output``, and exits 0 on success.  Failures print a JSON error object
to stderr and exit 1.  Output is byte-identical for identical flags and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (NetworkConfig, dumps_doc, format_number, load_config,
                     load_matrix, resolve_input_path)
from .control import ControlDecision, Region, network_decision
from .errors import LolrnetError
from .network import clearing_vector, default_boundary, total_obligations
from .ranking import (UniformPolicy, assign_survival_probabilities,
                      net_positions, perron_rank, rank_network)
from .simulate import SimConfig, simulate_network

__all__ = ["main", "run_command"]

NET_CREDITOR_NOTE = "net creditor / no default possible"

_DEFAULT_DUMP = "sim_paths.csv"


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format_number(float(value))
    return str(value)


def _table_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buffer.getvalue()


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _q_targets(cfg: NetworkConfig, net) -> np.ndarray:
    """Survival targets from the configured policy.

    A uniform policy needs no rank; threshold policies run the full rank
    pipeline on the network.
    """
    policy = cfg.policy_object()
    if isinstance(policy, UniformPolicy):
        return np.full(net.n, policy.q)
    ranking = rank_network(net, cfg.rank_weights())
    return assign_survival_probabilities(ranking.rank, policy)


def _decisions(cfg: NetworkConfig, net, t: float):
    q = _q_targets(cfg, net)
    return q, network_decision(net, q, t=t, psi_cap=cfg.psi_cap)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_rank(cfg: NetworkConfig, args) -> tuple[dict, tuple[list, list]]:
    net = cfg.to_network()
    positions = net_positions(net)
    policy = cfg.policy_object()
    if args.matrix_override:
        google = load_matrix(args.matrix_override)
        if google.shape[0] != net.n:
            raise ValueError(
                f"override matrix is {google.shape[0]}x{google.shape[1]}, "
                f"network has {net.n} banks")
        eigenvalue, rank = perron_rank(google)
        matrices = {"google": google}
        override = True
    else:
        result = rank_network(net, cfg.rank_weights())
        eigenvalue, rank = result.eigenvalue, result.rank
        matrices = {"gamma_plus": result.gamma_plus,
                    "gamma_minus": result.gamma_minus,
                    "tau": result.tau,
                    "google": result.google}
        override = False
    q = assign_survival_probabilities(rank, policy)

    doc = {
        "command": "rank",
        "matrix_override": override,
        "eigenvalue": eigenvalue,
        "banks": [
            {"index": i + 1, "name": cfg.banks[i].name,
             "net_position": positions[i], "rank": rank[i], "q": q[i]}
            for i in range(net.n)],
        "matrices": matrices,
    }
    header = ["bank", "name", "net_position", "rank", "q", "eigenvalue"]
    rows = [[i + 1, cfg.banks[i].name, positions[i], rank[i], q[i], eigenvalue]
            for i in range(net.n)]
    return doc, (header, rows)


def cmd_clearing(cfg: NetworkConfig, args) -> tuple[dict, tuple[list, list]]:
    net = cfg.to_network()
    result = clearing_vector(net, t=args.time)
    obligations = total_obligations(net, args.time)
    doc = {
        "command": "clearing",
        "time": args.time,
        "iterations": result.iterations,
        "residual": result.residual,
        "banks": [
            {"index": i + 1, "name": cfg.banks[i].name,
             "obligation": obligations[i], "payment": result.payments[i],
             "defaulted": bool(result.defaulted[i]),
             "value": result.values[i]}
            for i in range(net.n)],
    }
    header = ["bank", "name", "obligation", "payment", "defaulted", "value"]
    rows = [[i + 1, cfg.banks[i].name, obligations[i], result.payments[i],
             bool(result.defaulted[i]), result.values[i]]
            for i in range(net.n)]
    return doc, (header, rows)


def cmd_regions(cfg: NetworkConfig, args) -> tuple[dict, tuple[list, list]]:
    net = cfg.to_network()
    q, decisions = _decisions(cfg, net, args.time)
    banks = []
    rows = []
    header = ["bank", "name", "q", "v_terminal", "threshold_log_x",
              "log_cash", "region", "note"]
    boundaries = default_boundary(net, np.arange(net.n), net.horizon)
    for i, decision in enumerate(decisions):
        boundary = float(boundaries[i])
        log_cash = math.log(net.cash[i]) if net.cash[i] > 0 else None
        note = NET_CREDITOR_NOTE if decision.threshold_log_x is None else ""
        banks.append({"index": i + 1, "name": cfg.banks[i].name,
                      "q": q[i], "v_terminal": boundary,
                      "threshold_log_x": decision.threshold_log_x,
                      "log_cash": log_cash,
                      "region": decision.region.value, "note": note})
        rows.append([i + 1, cfg.banks[i].name, q[i], boundary,
                     decision.threshold_log_x, log_cash,
                     decision.region.value, note])
    doc = {"command": "regions", "time": args.time, "psi_cap": cfg.psi_cap,
           "banks": banks}
    return doc, (header, rows)


def cmd_control(cfg: NetworkConfig, args) -> tuple[dict, tuple[list, list]]:
    net = cfg.to_network()
    q, decisions = _decisions(cfg, net, args.time)
    total_cost = sum(d.expected_cost for d in decisions)
    banks = []
    rows = []
    header = ["bank", "name", "q", "region", "psi_star", "expected_cost",
              "survival_prob_uncontrolled"]
    for i, decision in enumerate(decisions):
        banks.append({"index": i + 1, "name": cfg.banks[i].name, "q": q[i],
                      "region": decision.region.value,
                      "psi_star": decision.psi_star,
                      "expected_cost": decision.expected_cost,
                      "survival_prob_uncontrolled":
                          decision.survival_prob_uncontrolled})
        rows.append([i + 1, cfg.banks[i].name, q[i], decision.region.value,
                     decision.psi_star, decision.expected_cost,
                     decision.survival_prob_uncontrolled])
    doc = {"command": "control", "time": args.time, "psi_cap": cfg.psi_cap,
           "total_expected_cost": total_cost, "banks": banks}
    return doc, (header, rows)


def _uncontrolled_variant(decisions):
    return [ControlDecision(region=Region.NO_ACTION, psi_star=0.0,
                            expected_cost=0.0,
                            survival_prob_uncontrolled=
                                d.survival_prob_uncontrolled,
                            threshold_log_x=d.threshold_log_x)
            for d in decisions]


def cmd_simulate(cfg: NetworkConfig, args) -> tuple[dict, tuple[list, list]]:
    """Monte Carlo run of both scenarios: the uncontrolled baseline and the
    network under the decided lending rates."""
    net = cfg.to_network()
    q, decisions = _decisions(cfg, net, 0.0)
    sim_cfg = SimConfig(paths=args.paths, steps=args.steps, seed=args.seed,
                        antithetic=args.antithetic)
    record = args.paths if args.dump_paths is not None else 0
    baseline = simulate_network(net, _uncontrolled_variant(decisions),
                                sim_cfg, record_paths=record)
    report = simulate_network(net, decisions, sim_cfg, record_paths=record)

    for i in np.flatnonzero(report.infeasible_fallback):
        sys.stderr.write(
            f"warning: control for {cfg.banks[i].name} is infeasible; "
            "simulated uncontrolled\n")
    if args.dump_paths is not None:
        _write_path_dump(cfg, {"uncontrolled": baseline,
                               "controlled": report}, net.horizon, args)

    psi = [d.psi_star if d.psi_star is not None else 0.0 for d in decisions]
    header = ["bank", "name", "scenario", "psi", "default_freq",
              "default_ci_halfwidth", "mean_cost", "terminal_mean",
              "terminal_logvar", "infeasible_fallback"]
    rows = []
    sections = {}
    for scenario, rep in (("uncontrolled", baseline),
                          ("controlled", report)):
        banks = []
        for i in range(net.n):
            rate = 0.0 if scenario == "uncontrolled" else psi[i]
            entry = {"index": i + 1, "name": cfg.banks[i].name,
                     "psi": rate, "q": q[i],
                     "default_freq": rep.default_freq[i],
                     "default_ci_halfwidth": rep.default_ci_halfwidth[i],
                     "mean_cost": rep.mean_cost[i],
                     "terminal_mean": rep.terminal_mean[i],
                     "terminal_logvar": rep.terminal_logvar[i],
                     "infeasible_fallback": bool(rep.infeasible_fallback[i])}
            banks.append(entry)
            rows.append([i + 1, cfg.banks[i].name, scenario, rate,
                         rep.default_freq[i], rep.default_ci_halfwidth[i],
                         rep.mean_cost[i], rep.terminal_mean[i],
                         rep.terminal_logvar[i],
                         bool(rep.infeasible_fallback[i])])
        sections[scenario] = banks
    doc = {"command": "simulate", "paths_used": report.paths_used,
           "seed_used": report.seed_used, "steps": args.steps,
           "antithetic": args.antithetic,
           "uncontrolled": sections["uncontrolled"],
           "controlled": sections["controlled"]}
    return doc, (header, rows)


def _write_path_dump(cfg: NetworkConfig, reports: dict, horizon: float,
                     args) -> None:
    if args.dump_paths:
        target = Path(args.dump_paths)
    elif args.output:
        target = Path(str(args.output) + ".paths.csv")
    else:
        target = Path(_DEFAULT_DUMP)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["bank", "name", "scenario", "path", "step", "time",
                     "value"])
    for scenario, report in reports.items():
        trajectories = report.trajectories
        steps = trajectories.shape[2] - 1
        dt = horizon / steps
        for i in range(trajectories.shape[0]):
            name = cfg.banks[i].name
            for p in range(trajectories.shape[1]):
                for s in range(steps + 1):
                    writer.writerow([i + 1, name, scenario, p, s,
                                     _cell(s * dt),
                                     _cell(trajectories[i, p, s])])
    target.write_text(buffer.getvalue(), encoding="utf-8")


_COMMANDS = {
    "rank": cmd_rank,
    "clearing": cmd_clearing,
    "regions": cmd_regions,
    "control": cmd_control,
    "simulate": cmd_simulate,
}


def run_command(command: str, cfg: NetworkConfig, args) -> tuple[dict, tuple[list, list]]:
    """Dispatch a command name to its implementation."""
    try:
        handler = _COMMANDS[command]
    except KeyError:
        raise ValueError(f"unknown command {command!r}") from None
    return handler(cfg, args)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lolrnet",
        description="Interbank network analytics: systemic rank, clearing, "
                    "closed-form lending rates, and Monte Carlo verification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="configuration document (bundled fixture names "
                            "like case_study.json also resolve)")
        p.add_argument("--output", default=None,
                       help="write output to this file instead of stdout")
        p.add_argument("--format", choices=("table", "doc"), default="table",
                       help="CSV table or JSON document (default table)")

    p_rank = sub.add_parser("rank", help="systemic rank and survival targets")
    common(p_rank)
    p_rank.add_argument("--matrix-override", default=None, metavar="PATH",
                        help="rank a given Google matrix instead of deriving "
                             "one from the network")

    p_clear = sub.add_parser("clearing", help="clearing payments at a time")
    common(p_clear)
    p_clear.add_argument("--time", type=float, default=0.0)

    p_regions = sub.add_parser("regions",
                               help="per-bank action thresholds and regions")
    common(p_regions)
    p_regions.add_argument("--time", type=float, default=0.0)

    p_control = sub.add_parser("control",
                               help="optimal lending rates and expected costs")
    common(p_control)
    p_control.add_argument("--time", type=float, default=0.0)

    p_sim = sub.add_parser("simulate", help="Monte Carlo verification run")
    common(p_sim)
    p_sim.add_argument("--seed", type=int, default=42)
    p_sim.add_argument("--paths", type=int, default=100_000)
    p_sim.add_argument("--steps", type=int, default=200)
    p_sim.add_argument("--antithetic", action="store_true")
    p_sim.add_argument("--dump-paths", nargs="?", const="", default=None,
                       metavar="PATH",
                       help="also dump per-path trajectories as CSV "
                            f"(default {_DEFAULT_DUMP} or OUTPUT.paths.csv)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "rank" and args.matrix_override:
            args.matrix_override = resolve_input_path(args.matrix_override)
        cfg = load_config(args.config)
        doc, (header, rows) = run_command(args.command, cfg, args)
    except (LolrnetError, ValueError, IndexError, OSError) as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(dumps_doc(error) + "\n")
        return 1
    if args.format == "doc":
        text = dumps_doc(doc) + "\n"
    else:
        text = _table_text(header, rows)
    _emit(text, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
