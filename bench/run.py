"""lolrnet benchmark: end-to-end CLI timings and an outside-in layer trace.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload net-decide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10

The harness builds its inputs from ``--seed``, then drives
``lolrnet.cli.main`` in-process from one client that runs commands back to
back (a closed loop).  Every command writes a ``--format doc`` file, and
every output is checked with the harness's own arithmetic (``checks.py``)
outside the timed region.  ``lolrnet`` is imported from ``src/`` of the
checkout; without it the harness exits 2 and prints no result.

Workloads (see ``WORKLOADS``):

- ``case-mc``: ``simulate`` on the bundled four-bank case study at default
  flags (100k paths, 200 steps, both scenarios).  Monte Carlo draw
  generation and path accumulation dominate; every other layer sees n = 4.
- ``net-decide``: ``rank``, ``clearing``, ``regions``, ``control`` on a
  synthetic stressed network with n = 500.  Document rendering, config
  parsing and the per-bank default boundaries dominate; ``simulate`` is
  bypassed.  (n = 2000 would cost minutes per pass while the boundaries
  are O(n^3) per decision.)
- ``net-dump``: ``simulate --paths 10 --dump-paths`` on a synthetic n = 200
  network: 804k CSV rows, so the path-dump write dominates.  It is not in
  ``BENCHMARK.json``: on a shared 2-vCPU host whose clock rate shifts for
  minutes at a time, this interpreter-bound pass spread 42% (interquartile
  range over median, ten seeds) from run to run, beyond any usable gate.
  Run it by name or with ``all``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the full report
(environment, tail percentiles, every layer's self time).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy
from scipy.special import ndtri

import checks
import netgen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("case-mc", "net-decide", "net-dump")

DECIDE_N = 500
DUMP_N = 200
DUMP_PATHS = 10
# the CLI's simulate defaults, which case-mc deliberately leaves in place
MC_PATHS = 100_000
MC_STEPS = 200

# fresh interpreters per setup measurement; the median is reported
SETUP_REPS = 7
# passes measured even when one pass outlasts --seconds
MIN_PASSES = 3

# the engine's fixed chunk and Philox block layout, mirrored by the draw floor
_CHUNK = 16_384
_WORDS_PER_BLOCK = 4
_U_FLOOR = 2.0**-54

SETUP_CODE = ("import time; t = time.perf_counter(); import lolrnet.cli; "
              "print(time.perf_counter() - t); print(lolrnet.cli.__file__)")

# per-layer metrics reported on every workload: self times plus counts
LAYER_TIMES = ("config.load_config", "config.dumps_doc",
               "network.default_boundary", "ranking.rank_network",
               "ranking.perron_rank", "control.network_decision")
LAYER_COUNTS = ("config.bytes_in", "config.bytes_out",
                "network.default_boundary_calls", "network.clearing_iters",
                "simulate.draws")


def derived_seed(label: str, seed: int) -> int:
    """A 63-bit seed for ``label`` derived from the workload seed."""
    digest = hashlib.sha256(f"{label}:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Command:
    name: str
    flags: list[str]
    dump: bool = False

    def output(self, outdir: Path) -> Path:
        return outdir / f"{self.name}.json"

    def dump_path(self, outdir: Path) -> Path:
        return outdir / f"{self.name}.paths.csv"

    def argv(self, outdir: Path) -> list[str]:
        argv = [self.name, *self.flags, "--format", "doc",
                "--output", str(self.output(outdir))]
        if self.dump:
            argv += ["--dump-paths", str(self.dump_path(outdir))]
        return argv

    def files(self, outdir: Path) -> list[Path]:
        files = [self.output(outdir)]
        if self.dump:
            files.append(self.dump_path(outdir))
        return files


@dataclass
class Workload:
    name: str
    config: Path
    commands: list[Command]
    sim_paths: int = 0
    sim_steps: int = 0
    sim_seed: int = 0
    # time simulate on one thread and the harness's own draw floor
    calibrate: bool = False

    @property
    def mc_steps_nominal(self) -> int:
        """Banks x paths x steps x 2 scenarios of one simulate command."""
        n = len(json.loads(self.config.read_text())["banks"])
        return n * self.sim_paths * self.sim_steps * 2


def build_workload(name: str, seed: int, work: Path) -> Workload:
    if name == "case-mc":
        from lolrnet.config import case_study_path
        sim_seed = derived_seed(name, seed)
        config = Path(case_study_path())
        return Workload(name, config, [Command(
            "simulate", ["--config", str(config), "--seed", str(sim_seed)])],
            sim_paths=MC_PATHS, sim_steps=MC_STEPS, sim_seed=sim_seed,
            calibrate=True)
    if name == "net-decide":
        config = work / f"net{DECIDE_N}.json"
        config.write_text(netgen.synthetic_config(DECIDE_N, seed))
        return Workload(name, config, [
            Command(cmd, ["--config", str(config)])
            for cmd in ("rank", "clearing", "regions", "control")])
    if name == "net-dump":
        sim_seed = derived_seed(name, seed)
        config = work / f"net{DUMP_N}.json"
        config.write_text(netgen.synthetic_config(DUMP_N, seed))
        return Workload(name, config, [Command(
            "simulate", ["--config", str(config), "--seed", str(sim_seed),
                         "--paths", str(DUMP_PATHS)], dump=True)],
            sim_paths=DUMP_PATHS, sim_steps=MC_STEPS, sim_seed=sim_seed)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    seconds: float
    command_seconds: dict[str, float]
    errors: dict[str, str]
    stderr: dict[str, str]
    digests: dict[str, list[str]] = field(default_factory=dict)


def run_pass(cli, workload: Workload, outdir: Path,
             recorder: spans.Recorder | None = None) -> PassResult:
    """One pass: every command of the workload, back to back."""
    outdir.mkdir(parents=True, exist_ok=True)
    gc.collect()
    times, errors, stderr = {}, {}, {}
    for cmd in workload.commands:
        argv = cmd.argv(outdir)
        buffer = io.StringIO()
        code = None
        with contextlib.redirect_stderr(buffer):
            start = perf_counter()
            try:
                if recorder is None:
                    code = cli.main(argv)
                else:
                    recorder.request += 1
                    code = recorder.span("cli.main", cli.main, argv)
            except SystemExit as exc:  # argparse rejected the flags
                code = exc.code
            except Exception:  # the op failed; the run goes on
                errors[cmd.name] = traceback.format_exc(limit=3)
            times[cmd.name] = perf_counter() - start
        stderr[cmd.name] = buffer.getvalue()
        if code not in (0, None):
            errors[cmd.name] = f"exit code {code}: {stderr[cmd.name][-500:]}"
    result = PassResult(sum(times.values()), times, errors, stderr)
    for cmd in workload.commands:
        if cmd.name not in errors:
            result.digests[cmd.name] = [sha256_file(p)
                                        for p in cmd.files(outdir)]
    return result


def timed_passes(seconds: float, one_pass) -> list:
    """Run ``one_pass`` back to back for ``seconds``, at least MIN_PASSES
    times unless that would take twice as long."""
    results = []
    start = perf_counter()
    while True:
        results.append(one_pass())
        elapsed = perf_counter() - start
        if elapsed >= seconds and (len(results) >= MIN_PASSES
                                   or elapsed >= 2 * seconds):
            return results


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def check_first_pass(workload: Workload, first: PassResult,
                     outdir: Path) -> dict[str, list[str]]:
    """Independent checks of every output of the first pass."""
    net = checks.parse_config(workload.config.read_text())
    q_expected, ambiguous = checks.expected_q(net)
    failures = {}
    for cmd in workload.commands:
        if cmd.name in first.errors:
            failures[cmd.name] = [first.errors[cmd.name]]
            continue
        doc = json.loads(cmd.output(outdir).read_text())
        if cmd.name == "rank":
            found = checks.check_rank(net, doc, q_expected, ambiguous)
        elif cmd.name == "clearing":
            found = checks.check_clearing(net, doc)
        elif cmd.name == "regions":
            found = checks.check_regions(net, doc, q_expected, ambiguous)
        elif cmd.name == "control":
            found = checks.check_control(net, doc, q_expected, ambiguous)
        else:
            found = checks.check_simulate(
                net, doc, workload.sim_paths, workload.sim_steps,
                workload.sim_seed, q_expected, ambiguous)
            found += checks.check_warnings(first.stderr[cmd.name], doc)
            if cmd.dump:
                found += checks.check_dump(cmd.dump_path(outdir), net.n,
                                           workload.sim_paths,
                                           workload.sim_steps)
        failures[cmd.name] = found
    return failures


def tally(workload: Workload, first: PassResult, failures: dict,
          passes: list[PassResult]) -> tuple[int, int, list[str]]:
    """Attempted and failed ops over all passes, with the reasons.

    A later pass's output must be byte-identical to the checked first pass
    (the determinism contract), so it inherits that pass's verdict.
    """
    attempted = failed = 0
    reasons = []
    for cmd in workload.commands:
        attempted += 1
        if failures[cmd.name]:
            failed += 1
            reasons += [f"{cmd.name}: {msg}" for msg in failures[cmd.name]]
    for k, result in enumerate(passes, start=1):
        for cmd in workload.commands:
            attempted += 1
            if cmd.name in result.errors:
                failed += 1
                reasons.append(f"pass {k} {cmd.name}: "
                               f"{result.errors[cmd.name]}")
            elif (failures[cmd.name]
                  or result.digests[cmd.name] != first.digests[cmd.name]):
                failed += 1
                if not failures[cmd.name]:
                    reasons.append(f"pass {k} {cmd.name}: output differs "
                                   f"from the checked first pass")
    return attempted, failed, reasons[:20]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def summary(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least 10 samples beyond."""
    out = {"median": statistics.median(samples), "unit": "s",
           "n": len(samples)}
    if len(samples) > 10:
        pct = math.floor(100.0 * (1.0 - 10.0 / len(samples)))
        out["tail_pct"] = pct
        out["tail"] = float(np.percentile(samples, pct))
    return out


def measure_setup() -> list[float]:
    """Cold ``import lolrnet.cli`` in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    values = []
    for _ in range(SETUP_REPS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        seconds, module = done.stdout.split()
        if not Path(module).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"setup imported lolrnet from {module}")
        values.append(float(seconds))
    return values


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(workload: Workload, seed: int) -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "seed": seed,
            "config": workload.config.name,
            "config_sha256": sha256_file(workload.config),
            "src_py_lines": src_lines}


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def end_to_end(cli, workload: Workload, seconds: float, work: Path) -> dict:
    setup = measure_setup()
    first_dir, cur_dir = work / "first", work / "cur"
    first = run_pass(cli, workload, first_dir)
    passes = timed_passes(seconds, lambda: run_pass(cli, workload, cur_dir))
    rss = peak_rss_mb()
    failures = check_first_pass(workload, first, first_dir)
    attempted, failed, reasons = tally(workload, first, failures, passes)

    pass_times = [p.seconds for p in passes]
    per_command = {f"{cmd.name}_s": summary([p.command_seconds[cmd.name]
                                             for p in passes])
                   for cmd in workload.commands}
    metrics = {"setup_s": (statistics.median(setup), "s"),
               "pass_s": (statistics.median(pass_times), "s"),
               "peak_rss_mb": (rss, "MB")}
    detail = {"setup_s": summary(setup), "pass_s": summary(pass_times),
              **per_command}
    if workload.sim_paths:
        sim = per_command["simulate_s"]["median"]
        detail["mc_path_steps_per_s"] = (workload.mc_steps_nominal / sim,
                                         "1/s")
    detail["error_rate"] = (failed / attempted, "ratio")
    return {"metrics": metrics, "detail": detail, "attempted": attempted,
            "failed": failed, "failures": reasons}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def draw_floor(calls) -> float:
    """Seconds for this harness to generate the same Philox + ndtri draws
    as the recorded ``simulate_network`` calls, on one thread."""
    start = perf_counter()
    for args, kwargs in calls:
        seed = args[2].seed
        for bank, paths, steps in spans.simulate_plan(args, kwargs):
            blocks = -(-steps // _WORDS_PER_BLOCK)
            key = np.array([seed, bank], dtype=np.uint64)
            for lo in range(0, paths, _CHUNK):
                hi = min(lo + _CHUNK, paths)
                gen = np.random.Generator(
                    np.random.Philox(key=key, counter=lo * blocks))
                u = gen.random((hi - lo) * blocks * _WORDS_PER_BLOCK)
                np.maximum(u, _U_FLOOR, out=u)
                ndtri(u.reshape(hi - lo, blocks * _WORDS_PER_BLOCK)[:, :steps])
    return perf_counter() - start


@contextlib.contextmanager
def single_thread():
    """Cap ``simulate`` at one worker thread (``main`` clears the cap)."""
    os.environ["LOLRNET_THREADS"] = "1"
    try:
        yield
    finally:
        del os.environ["LOLRNET_THREADS"]


def _self(totals: dict, name: str) -> float:
    return totals.get(name, {}).get("self_s", 0.0)


def per_layer(cli, workload: Workload, seconds: float, work: Path,
              spans_out: Path) -> dict:
    first_dir, cur_dir = work / "first", work / "cur"
    first = run_pass(cli, workload, first_dir)
    order = itertools.count()

    def one_round():
        # alternate which side goes first, so neither gains from the order
        plain_first = next(order) % 2 == 0
        if plain_first:
            plain = run_pass(cli, workload, cur_dir)
        with spans.Recorder() as rec:
            traced = run_pass(cli, workload, cur_dir, rec)
        if not plain_first:
            plain = run_pass(cli, workload, cur_dir)
        entry = {"plain": plain, "traced": traced, "rec": rec}
        if workload.calibrate:
            with single_thread(), spans.Recorder() as rec1:
                entry["t1"] = run_pass(cli, workload, cur_dir, rec1)
            entry["rec1"] = rec1
            entry["floor_s"] = draw_floor(rec.simulate_calls)
        return entry

    rounds = timed_passes(seconds, one_round)
    failures = check_first_pass(workload, first, first_dir)
    passes = [r[key] for r in rounds for key in ("plain", "traced", "t1")
              if key in r]
    attempted, failed, reasons = tally(workload, first, failures, passes)

    traced_totals = [spans.layer_totals(r["rec"].spans) for r in rounds]
    counts = [r["rec"].counts for r in rounds]
    def med_self(name):
        return statistics.median(_self(t, name) for t in traced_totals)

    def count(key):
        # counts repeat exactly from round to round
        return int(statistics.median_low(
            sum(c[key] for c in rc.values()) for rc in counts))

    plain = [r["plain"].seconds for r in rounds]
    traced = [r["traced"].seconds for r in rounds]
    traced_s = statistics.median(traced)
    metrics = {f"{name}_s": (med_self(name), "s") for name in LAYER_TIMES}
    metrics["cli.run_command_self_s"] = (med_self("cli.run_command"), "s")
    for key in LAYER_COUNTS:
        metrics[key] = (count(key), "count")
    metrics["trace_overhead_s"] = (traced_s - statistics.median(plain), "s")

    detail = {"plain_pass_s": summary(plain), "traced_pass_s": summary(traced),
              "unattributed_share": (med_self("cli.main") / traced_s,
                                     "ratio")}
    if med_self("network.clearing_vector") > 0:
        detail["network.clearing_vector_s"] = (
            med_self("network.clearing_vector"), "s")
    sim_s = med_self("simulate.simulate_network")
    if sim_s > 0:
        detail["simulate.simulate_network_s"] = (sim_s, "s")
        detail["simulate.share_of_pass"] = (sim_s / traced_s, "ratio")
        detail["simulate.draws_per_s"] = (count("simulate.draws") / sim_s,
                                          "1/s")
    for cmd in workload.commands:
        if cmd.dump:
            path = cmd.dump_path(cur_dir)
            with open(path, "rb") as handle:
                rows = sum(chunk.count(b"\n") for chunk in
                           iter(lambda: handle.read(1 << 20), b"")) - 1
            detail["cli.dump_rows"] = (rows, "count")
            detail["cli.dump_bytes"] = (path.stat().st_size, "count")
    if workload.calibrate:
        t1 = statistics.median(
            _self(spans.layer_totals(r["rec1"].spans),
                  "simulate.simulate_network") for r in rounds)
        floor = statistics.median(r["floor_s"] for r in rounds)
        threads = os.cpu_count()
        detail["simulate.t1_s"] = (t1, "s")
        detail["simulate.scaling_eff"] = (t1 / (threads * sim_s), "ratio")
        detail["simulate.floor_s"] = (floor, "s")
        detail["simulate.floor_ratio"] = (floor / t1, "ratio")

    # every layer's median self time, including those a workload bypasses
    names = sorted({n for t in traced_totals for n in t})
    layers = {n: {"self_s": med_self(n),
                  "calls": statistics.median_low(
                      t.get(n, {}).get("calls", 0) for t in traced_totals)}
              for n in names}
    trace = {"layers": layers,
             "top_self": sorted(names, key=lambda n: -layers[n]["self_s"]),
             "threads": os.cpu_count(),
             "missing_targets": rounds[0]["rec"].missing,
             "spans_file": str(spans_out.relative_to(ROOT))}

    spans_out.parent.mkdir(parents=True, exist_ok=True)
    spans_out.write_text(json.dumps([
        {"round": k, "kind": kind, "spans": [vars(s) for s in r[rk].spans]}
        for k, r in enumerate(rounds)
        for kind, rk in (("traced", "rec"), ("t1", "rec1")) if rk in r]))
    return {"metrics": metrics, "detail": detail, "trace": trace,
            "attempted": attempted, "failed": failed, "failures": reasons}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def import_cli():
    """``lolrnet.cli`` from this checkout's ``src/``, or None."""
    if not (SRC / "lolrnet" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import lolrnet.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        return None
    return cli


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, check=False)
            status = status or done.returncode
    return status


def _print_metrics(title: str, result: dict) -> None:
    print(f"# {title}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")
    for name, value in result["detail"].items():
        if isinstance(value, dict):
            tail = (f", p{value['tail_pct']} {value['tail']!r} s"
                    if "tail" in value else "")
            print(f"{name} median {value['median']!r} s{tail}, "
                  f"n={value['n']}")
        else:
            print(f"{name} {value[0]!r} {value[1]}")
    for reason in result["failures"]:
        print(f"FAILED {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    cli = import_cli()
    if cli is None:
        print(f"lolrnet sources not found under {SRC}", file=sys.stderr)
        return 2
    # simulate keeps its default of one thread per CPU
    os.environ.pop("LOLRNET_THREADS", None)

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = build_workload(args.workload, args.seed, work)
        env = environment(workload, args.seed)
        if args.trace:
            spans_out = WORK / f"spans-{args.workload}-seed{args.seed}.json"
            result = per_layer(cli, workload, args.seconds, work, spans_out)
        else:
            result = end_to_end(cli, workload, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _print_metrics(f"{args.workload} seed={args.seed} trace={args.trace}",
                   result)
    report = {"workload": args.workload, "trace": args.trace, "env": env,
              "detail": result["detail"], "failures": result["failures"]}
    if "trace" in result:
        report["spans"] = result["trace"]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
