"""Batch command-line interface.

Five subcommands cover the library surface: ``rank``, ``clearing``,
``regions``, ``control``, and ``simulate``.  Each reads a configuration
document, writes either a CSV table (default) or a JSON document to stdout
or ``--output`` as it renders them, and exits 0 on success; ``--output`` is
opened only once the command has succeeded, and ``simulate``'s path dump is
opened only once it is open; either file failing to open leaves both as
they were.  Failures, an unwritable ``--output`` included, print a JSON
error object to stderr and exit 1.  A reader that closes stdout early
(``| head``) ends the command quietly with exit 0.  Output is
byte-identical for identical flags and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import math
import os
import stat
import sys
from itertools import count, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .config import (NetworkConfig, dumps_doc, format_number, load_config,
                     load_matrix, write_doc)
from .control import network_decision
from .errors import LolrnetError, require
from .network import clearing_vector, default_boundary, total_obligations
from .ranking import (assign_survival_probabilities, net_positions,
                      perron_rank, rank_network)
from .simulate import SimConfig, bank_paths, simulate_network

__all__ = ["main", "run_command"]

NET_CREDITOR_NOTE = "net creditor / no default possible"

_DEFAULT_DUMP = "sim_paths.csv"

# the simulate doc's sections, in table order
_SCENARIOS = ("uncontrolled", "controlled")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_number(value)
    return str(value)


def _write_table(doc: dict, header: list[str], handle) -> None:
    """Write the CSV view of a command's doc: one row per bank entry.

    ``bank`` is the entry's ``index`` and ``scenario`` the name of the doc
    section holding the entry; a column the entry lacks is read from the
    doc's top level (``rank``'s ``eigenvalue``).
    """
    if doc["command"] == "simulate":
        sections = [(scenario, doc[scenario]) for scenario in _SCENARIOS]
    else:
        sections = [(None, doc["banks"])]
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    for scenario, entries in sections:
        for entry in entries:
            cells = {**entry, "bank": entry["index"], "scenario": scenario}
            writer.writerow([_cell(cells[col] if col in cells else doc[col])
                             for col in header])


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------

def _decisions(cfg: NetworkConfig, t: float):
    """Survival targets from the configured policy, and the decisions at them.

    A policy without steps gives every bank its base and needs no rank;
    one with steps runs the full rank pipeline on the network.
    """
    if cfg.policy.steps:
        q = assign_survival_probabilities(
            rank_network(cfg.network, cfg.weights).rank, cfg.policy)
    else:
        q = np.full(cfg.network.n, cfg.policy.base)
    return q, network_decision(cfg.network, q, t=t, psi_cap=cfg.psi_cap)


def _inf_text(value):
    """``value``, or ``"inf"`` / ``"-inf"``, as JSON has no infinity."""
    return format_number(value) if value in (math.inf, -math.inf) else value


def _banks(cfg: NetworkConfig, **columns) -> list[dict]:
    """One record per bank: its 1-based ``index``, its ``name``, and its
    entry of each column, in keyword order.

    A numpy column is read through ``tolist``, so every cell is a Python
    scalar, and an infinite cell is the string :func:`_inf_text` gives.
    """
    cells = [col.tolist() if isinstance(col, np.ndarray) else col
             for col in columns.values()]
    cells = [list(map(_inf_text, col)) if math.inf in col or -math.inf in col
             else col for col in cells]
    return [{"index": i, "name": name, **dict(zip(columns, row))}
            for i, (name, *row) in enumerate(zip(cfg.names, *cells), 1)]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_rank(cfg: NetworkConfig, args) -> tuple[dict, list[str]]:
    net = cfg.network
    if args.matrix_override:
        google = load_matrix(args.matrix_override, net.n)
        eigenvalue, rank = perron_rank(google)
    else:
        result = rank_network(net, cfg.weights)
        google, eigenvalue, rank = (result.google, result.eigenvalue,
                                    result.rank)
    q = assign_survival_probabilities(rank, cfg.policy)

    doc = {
        "command": "rank",
        "matrix_override": bool(args.matrix_override),
        "eigenvalue": eigenvalue,
        "banks": _banks(cfg, net_position=net_positions(net), rank=rank,
                        q=q),
        # the matrix whose eigenpair the doc reports; edge_weights and
        # google_matrix rebuild gamma_plus, gamma_minus and tau
        "matrices": {"google": google},
    }
    return doc, ["bank", "name", "net_position", "rank", "q", "eigenvalue"]


def cmd_clearing(cfg: NetworkConfig, args) -> tuple[dict, list[str]]:
    net = cfg.network
    result = clearing_vector(net, t=args.time)
    doc = {
        "command": "clearing",
        "time": args.time,
        "iterations": result.iterations,
        "residual": result.residual,
        "banks": _banks(cfg, obligation=total_obligations(net, args.time),
                        payment=result.payments, defaulted=result.defaulted,
                        value=result.values),
    }
    return doc, ["bank", "name", "obligation", "payment", "defaulted",
                 "value"]


def cmd_regions(cfg: NetworkConfig, args) -> tuple[dict, list[str]]:
    net = cfg.network
    q, decisions = _decisions(cfg, args.time)
    thresholds = [d.threshold_log_x for d in decisions]
    banks = _banks(
        cfg, q=q, v_terminal=default_boundary(net),
        threshold_log_x=thresholds,
        log_cash=[math.log(c) if c > 0 else None for c in net.cash.tolist()],
        region=[d.region.value for d in decisions],
        note=[NET_CREDITOR_NOTE if x is None else "" for x in thresholds])
    doc = {"command": "regions", "time": args.time,
           "psi_cap": _inf_text(cfg.psi_cap), "banks": banks}
    return doc, ["bank", "name", "q", "v_terminal", "threshold_log_x",
                 "log_cash", "region", "note"]


def cmd_control(cfg: NetworkConfig, args) -> tuple[dict, list[str]]:
    q, decisions = _decisions(cfg, args.time)
    costs = [d.expected_cost for d in decisions]
    banks = _banks(cfg, q=q, region=[d.region.value for d in decisions],
                   psi_star=[d.psi_star for d in decisions],
                   expected_cost=costs,
                   survival_prob_uncontrolled=[
                       d.survival_prob_uncontrolled for d in decisions])
    doc = {"command": "control", "time": args.time,
           "psi_cap": _inf_text(cfg.psi_cap),
           "total_expected_cost": _inf_text(sum(costs)), "banks": banks}
    return doc, ["bank", "name", "q", "region", "psi_star", "expected_cost",
                 "survival_prob_uncontrolled"]


def cmd_simulate(cfg: NetworkConfig, args) -> tuple[dict, list[str]]:
    """Monte Carlo run of both scenarios: the uncontrolled baseline and the
    network under the decided lending rates."""
    net = cfg.network
    q, decisions = _decisions(cfg, 0.0)
    sim_cfg = SimConfig(paths=args.paths, steps=args.steps, seed=args.seed,
                        antithetic=args.antithetic)
    reports = dict(zip(_SCENARIOS, simulate_network(net, decisions, sim_cfg)))
    for i in np.flatnonzero(reports["controlled"].infeasible_fallback):
        sys.stderr.write(
            f"warning: control for {cfg.names[i]} is infeasible; "
            "simulated uncontrolled\n")
    psi = {"uncontrolled": [0.0] * net.n,
           "controlled": [d.psi_star or 0.0 for d in decisions]}
    sections = {
        scenario: _banks(cfg, psi=psi[scenario], q=q,
                         default_freq=rep.default_freq,
                         default_ci_halfwidth=rep.default_ci_halfwidth,
                         mean_cost=rep.mean_cost,
                         terminal_mean=rep.terminal_mean,
                         terminal_logvar=rep.terminal_logvar,
                         infeasible_fallback=rep.infeasible_fallback)
        for scenario, rep in reports.items()}
    doc = {"command": "simulate", "paths_used": sim_cfg.paths,
           "seed_used": sim_cfg.seed, "steps": args.steps,
           "antithetic": args.antithetic, **sections}
    return doc, ["bank", "name", "scenario", "psi", "default_freq",
                 "default_ci_halfwidth", "mean_cost", "terminal_mean",
                 "terminal_logvar", "infeasible_fallback"]


def _dump_target(args) -> Path | None:
    """Where ``simulate --dump-paths`` writes, never onto ``--output``;
    None without the flag."""
    if getattr(args, "dump_paths", None) is None:
        return None
    target = Path(args.dump_paths
                  or (args.output and f"{args.output}.paths.csv")
                  or _DEFAULT_DUMP)
    require(not args.output
            or target.resolve() != Path(args.output).resolve(),
            "dump_paths", "must not be the --output file")
    return target


def _write_path_dump(cfg: NetworkConfig, doc: dict, args, handle) -> None:
    """Write every bank's paths in both scenarios, one path at a time, at
    the rates the ``simulate`` doc reports."""
    sim_cfg = SimConfig(paths=args.paths, steps=args.steps, seed=args.seed,
                        antithetic=args.antithetic)
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["bank", "name", "scenario", "path", "step", "time",
                     "value"])
    dt = cfg.network.horizon / sim_cfg.steps
    times = [_cell(s * dt) for s in range(sim_cfg.steps + 1)]
    for scenario in _SCENARIOS:
        for bank in doc[scenario]:
            paths = bank_paths(cfg.network, bank["index"] - 1,
                               bank["psi"], sim_cfg)
            for p, path in enumerate(paths):
                writer.writerows(zip(
                    repeat(bank["index"]), repeat(bank["name"]),
                    repeat(scenario), repeat(p), count(), times,
                    map(format_number, path.tolist())))


@contextlib.contextmanager
def _open_outputs(output: str | None, dump: Path | None):
    """Yield the ``--output`` handle (stdout without the flag, written as
    UTF-8) and the path dump's handle (None without a dump), in text mode.

    ``--output`` opens first but keeps its bytes until the dump has opened
    too, so a file that cannot be opened leaves both as they were.
    """
    with contextlib.ExitStack() as stack:
        handle, dump_handle, created = sys.stdout, None, False
        if output:
            created = not os.path.lexists(output)
            # no O_TRUNC yet; text mode with the default newline, as stdout,
            # for the same bytes
            handle = stack.enter_context(open(
                os.open(output, os.O_WRONLY | os.O_CREAT, 0o666), "w",
                encoding="utf-8"))
        elif hasattr(sys.stdout, "buffer"):  # UTF-8 too, whatever the locale
            sys.stdout.flush()
            handle = io.TextIOWrapper(sys.stdout.buffer, encoding="utf-8")
            stack.callback(handle.detach)  # not close: stdout stays open
        try:
            if dump is not None:
                dump_handle = stack.enter_context(
                    open(dump, "w", encoding="utf-8", newline=""))
        except OSError:
            stack.close()
            if created:
                os.unlink(output)
            raise
        # what open(output, "w") does: O_TRUNC leaves a FIFO or device be
        if output and stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate()
        yield handle, dump_handle


_COMMANDS = {
    "rank": cmd_rank,
    "clearing": cmd_clearing,
    "regions": cmd_regions,
    "control": cmd_control,
    "simulate": cmd_simulate,
}


def run_command(command: str, cfg: NetworkConfig, args) -> tuple[dict, list[str]]:
    """Dispatch a command name to its implementation."""
    require(command in _COMMANDS, "command",
            f"must be one of {', '.join(_COMMANDS)}, got {command!r}")
    return _COMMANDS[command](cfg, args)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
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

    for name, summary in (
            ("clearing", "clearing payments at a time"),
            ("regions", "per-bank action thresholds and regions"),
            ("control", "optimal lending rates and expected costs")):
        p_timed = sub.add_parser(name, help=summary)
        common(p_timed)
        p_timed.add_argument("--time", type=float, default=0.0)

    p_sim = sub.add_parser("simulate", help="Monte Carlo verification run")
    common(p_sim)
    p_sim.add_argument("--seed", type=int, default=42)
    p_sim.add_argument("--paths", type=int, default=100_000)
    p_sim.add_argument("--steps", type=int, default=200)
    p_sim.add_argument("--antithetic", default=True,
                       action=argparse.BooleanOptionalAction,
                       help="pair paths with mirrored draws; "
                            "--no-antithetic draws them iid")
    p_sim.add_argument("--dump-paths", nargs="?", const="", default=None,
                       metavar="PATH",
                       help="also dump per-path trajectories as CSV, "
                            "rebuilt from the simulated terminal values "
                            f"(default {_DEFAULT_DUMP} or OUTPUT.paths.csv)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        dump = _dump_target(args)
        cfg = load_config(args.config)
        doc, header = run_command(args.command, cfg, args)
        with _open_outputs(args.output, dump) as (handle, dump_handle):
            if dump_handle is not None:
                _write_path_dump(cfg, doc, args, dump_handle)
            if args.format == "doc":
                write_doc(doc, handle)
                handle.write("\n")
            else:
                _write_table(doc, header, handle)
            # a closed stdout pipe raises here, not at interpreter exit
            handle.flush()
    except (LolrnetError, ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and not args.output:
            # the reader stopped early (``| head``): stop quietly, and send
            # what stdout still buffers to devnull so the exit flush is silent
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        # a path from argv may hold undecodable bytes, which UTF-8 cannot
        # encode as they are
        message = str(exc).encode("utf-8", "backslashreplace").decode()
        error = {"error": {"type": type(exc).__name__, "message": message}}
        sys.stderr.write(dumps_doc(error) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
