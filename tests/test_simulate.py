import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest

import lolrnet as ln
import lolrnet.cli as cli
import lolrnet.simulate as engine
from _support import (B1_SURVIVAL_UNCONTROLLED, B3_PSI_STAR,
                      B3_SURVIVAL_UNCONTROLLED, chunked_mean, euler_maruyama,
                      reference_paths, reference_simulation, report_equal,
                      reports_equal, whole_array_simulation)


@pytest.fixture(scope="module")
def uncontrolled(case_network):
    return ln.network_decision(case_network, np.full(4, 0.5))


@pytest.fixture(scope="module")
def controlled(case_network, case_q):
    return ln.network_decision(case_network, case_q)


@pytest.fixture(scope="module")
def capped(case_network):
    # the cap leaves bank 3 no feasible rate
    decisions = ln.network_decision(
        case_network, np.array([0.9, 0.9, 0.99, 0.9]), psi_cap=0.1)
    assert decisions[2].region is ln.Region.INFEASIBLE
    return decisions


def _stream_normals(seed, bank, chunk, shape):
    """Step-major normals of one chunk's SFC64 stream, keyed from the
    documented words rather than by the engine's own code."""
    words = np.array([seed % 2**32, seed // 2**32, bank % 2**32,
                      bank // 2**32, chunk % 2**32, chunk // 2**32],
                     dtype=np.uint32)
    return np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(words))).standard_normal(shape)


def _engine_normals(seed, bank, lo, hi, steps, antithetic=False):
    """The engine's draws for paths ``[lo, hi)`` in path order, filled two
    rows at a time, the last fill of one row if ``steps`` is odd, each of
    shape (blocks, rows, columns)."""
    blocks = 2 if antithetic else 1
    cols = -(-(hi - lo) // blocks)
    gen = engine._generator(seed, bank, lo)
    z = np.empty((steps, hi - lo))
    for k0 in range(0, steps, 2):
        fill = np.empty((blocks, min(2, steps - k0), cols))
        engine._draw(gen, fill)
        # path p is column p // blocks of block p % blocks
        for b in range(blocks):
            part = z[k0:k0 + 2, b::blocks]
            part[...] = fill[b, :, :part.shape[1]]
    return z


def _chunk_normals(seed, bank, chunk, paths, steps=3):
    lo = chunk * engine._CHUNK
    return _engine_normals(seed, bank, lo, lo + paths, steps)


class TestCounterAddressing:
    def test_draw_contract_is_pinned(self):
        # every other simulate test compares the engine with a reference
        # drawn by the same numpy, so only pinned values notice a numpy
        # release that changes SFC64 or its ziggurat normals
        pinned = ["0x1.f072d3b06814bp-5", "0x1.c76c2c8ae382ep+0",
                  "0x1.085fc543a403dp-1", "-0x1.35f15ad5f9d58p-7"]
        drawn = [float(z).hex()
                 for z in engine._generator(42, 0, 0).standard_normal(4)]
        assert drawn == pinned, (
            f"numpy {np.__version__} moved the SFC64 / ziggurat draw "
            "contract (NEP 19): every fixed-seed report and dump changes")

    def test_chunk_is_even(self):
        # an odd chunk would split an antithetic pair across two streams
        assert engine._CHUNK % 2 == 0

    @pytest.mark.parametrize("chunk", [engine._CHUNK, 6])
    def test_chunk_reads_its_own_stream(self, monkeypatch, chunk):
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        paths = 2 * chunk + 3
        for c, (lo, hi) in enumerate(engine._chunks(paths)):
            assert lo == c * chunk
            assert np.array_equal(_engine_normals(11, 3, lo, hi, 5),
                                  _stream_normals(11, 3, c, (5, hi - lo)))

    def test_paths_across_a_chunk_boundary_use_different_streams(self):
        chunk = engine._CHUNK
        continued = _stream_normals(11, 3, 0, 4 * (chunk + 2))
        before = _engine_normals(11, 3, 0, chunk, 4)
        after = _engine_normals(11, 3, chunk, chunk + 2, 4)
        # step-major: the chunk's stream fills the steps x paths array
        # row by row
        assert np.array_equal(before.ravel(), continued[:4 * chunk])
        assert np.array_equal(after, _stream_normals(11, 3, 1, (4, 2)))
        assert not np.any(np.isin(after, continued[4 * chunk:]))

    def test_antithetic_pairs_mirror_on_both_sides_of_a_boundary(
            self, monkeypatch):
        monkeypatch.setattr(engine, "_CHUNK", 4)
        paths, steps = 11, 3
        z = np.concatenate([_engine_normals(5, 1, lo, hi, steps, True)
                            for lo, hi in engine._chunks(paths)], axis=1)
        assert z.shape == (steps, paths)
        # pairs (2, 3) and (4, 5) sit either side of the boundary at 4
        assert np.array_equal(z[:, 1::2], -z[:, 0:-1:2])
        for c, (lo, hi) in enumerate(engine._chunks(paths)):
            base = _stream_normals(5, 1, c, (steps, (hi - lo + 1) // 2))
            assert np.array_equal(z[:, lo:hi:2], base)

    # (seed, bank, chunk) pairs: the first and third give the same state
    # under a variable-width SeedSequence((seed, bank, chunk)) key, which
    # pads short entropy with zero words; the second under any key that
    # adds bank and chunk
    @pytest.mark.parametrize("a,b", [
        ((2**32, 0, 0), (0, 1, 0)),
        ((7, 1, 0), (7, 0, 1)),
        ((2**64 - 1, 0, 0), (2**32 - 1, 2**32 - 1, 0)),
    ], ids=["seed-high-word", "bank-vs-chunk", "largest-seed"])
    def test_fixed_width_key_separates_streams(self, a, b):
        assert not np.any(np.isin(_chunk_normals(*a, paths=4),
                                  _chunk_normals(*b, paths=4)))

    def test_neighbouring_streams_are_uncorrelated(self):
        # a key that repeated or shifted a stream would correlate its
        # neighbours; 6 / sqrt(n) is six standard errors of a null r
        n = 200_000
        seed, bank, chunk = 42, 3, 2
        draws = np.stack([_chunk_normals(s, b, c, paths=n, steps=1)[0]
                          for s, b, c in [(seed, bank, chunk),
                                          (seed, bank, chunk + 1),
                                          (seed, bank + 1, chunk),
                                          (seed + 1, bank, chunk)]])
        r = np.corrcoef(draws)
        off_diagonal = r[~np.eye(len(draws), dtype=bool)]
        assert np.all(np.abs(off_diagonal) < 6 / math.sqrt(n))

    def test_largest_seed_keys_its_own_stream(self, case_network,
                                              uncontrolled):
        reports = [ln.simulate_network(case_network, uncontrolled,
                                       ln.SimConfig(paths=500, steps=4,
                                                    seed=seed))[0]
                   for seed in (0, 2**64 - 1)]
        assert not np.array_equal(reports[0].terminal_mean,
                                  reports[1].terminal_mean)

    def test_streams_differ_across_banks_and_seeds(self, case_network,
                                                   uncontrolled):
        cfg = ln.SimConfig(paths=500, steps=4, seed=9)
        report, _ = ln.simulate_network(case_network, uncontrolled, cfg)
        other, _ = ln.simulate_network(
            case_network, uncontrolled,
            ln.SimConfig(paths=500, steps=4, seed=10))
        assert not np.array_equal(report.terminal_mean, other.terminal_mean)


class TestDeterminism:
    def test_same_seed_bit_identical(self, case_network, controlled):
        cfg = ln.SimConfig(paths=7_000, steps=16, seed=5)
        a = ln.simulate_network(case_network, controlled, cfg)
        b = ln.simulate_network(case_network, controlled, cfg)
        assert reports_equal(a, b)

    def test_chunk_stats_do_not_depend_on_the_buffer(self, case_network,
                                                     controlled):
        # a combined mean can hide a last-bit change in one chunk, so each
        # chunk's statistics are compared: 40,000 paths are two full chunks
        # and a 7,232-path one, which reuses the buffer the full chunks left
        # filled, and each chunk's cost series takes its degree and scale
        # from that chunk alone
        cfg = ln.SimConfig(paths=40_000, steps=200, seed=5)
        bank = (2, controlled[2].psi_star,
                ln.default_boundary(case_network)[2])
        stats = engine._fan_out(case_network, [bank], cfg)
        assert stats.shape == (1, 3, 8)
        # the controlled row defaults less and costs something
        assert (stats[0, :, 2] < stats[0, :, 0]).all()
        assert (stats[0, :, 6:] > 0).all()
        for c, (lo, hi) in enumerate(engine._chunks(cfg.paths)):
            alone = np.empty(8)
            engine._reduce_chunk(case_network, *bank, cfg, lo, hi,
                                 np.full((3, engine._CHUNK), np.nan), alone)
            assert np.array_equal(stats[0, c], alone), c

    def test_engine_starts_no_thread(self, case_network, controlled,
                                     monkeypatch):
        cfg = ln.SimConfig(paths=40_000, steps=8, seed=5)
        want = ln.simulate_network(case_network, controlled, cfg)

        def refuse(thread):
            raise AssertionError(f"started {thread!r}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert reports_equal(
            want, ln.simulate_network(case_network, controlled, cfg))


def _dumped(net, i, psi, cfg):
    return np.stack(list(ln.bank_paths(net, i, psi, cfg)))


def _assert_pair_matches_reference(reports, net, uncontrolled, decisions,
                                   cfg, record, slab=None):
    """Both reports equal the reference bit for bit: the uncontrolled one
    with every rate at zero and the controlled one under ``decisions``.  A
    zero-rate bank is simulated once, so its rows agree across the two
    reports in every field but ``infeasible_fallback``.  When ``record`` is
    positive, the first ``record`` paths that ``bank_paths`` rebuilds for
    every bank in both scenarios equal ``reference_paths``, whose streams
    are read in fills of ``slab`` rows."""
    plain, helped = reports
    assert report_equal(plain, reference_simulation(net, uncontrolled, cfg))
    assert report_equal(helped, reference_simulation(net, decisions, cfg))
    assert not plain.infeasible_fallback.any()
    zero_rate = [d.region is not ln.Region.ACTION for d in decisions]
    for field in ("default_freq", "default_ci_halfwidth", "mean_cost",
                  "cost_ci_halfwidth", "terminal_mean", "terminal_logvar"):
        a, b = getattr(plain, field), getattr(helped, field)
        assert np.array_equal(a[zero_rate], b[zero_rate]), field
    if record == 0:
        return
    for i, decision in enumerate(decisions):
        rates = {0.0}
        if decision.region is ln.Region.ACTION:
            rates.add(decision.psi_star)
        for rate in rates:
            assert np.array_equal(
                _dumped(net, i, rate, cfg)[:record],
                reference_paths(net, i, rate, cfg, slab)[:record]), (i, rate)


class TestKernelMatchesReference:
    """The chunked in-place kernel equals the unfused reference.

    Both reports are checked: the reference runs every rate at zero for the
    uncontrolled one and the decisions for the controlled one.  The
    reference draws the same per-chunk streams at whatever ``_CHUNK``
    is set, so every field must agree bit for bit at any chunk size.  With
    ``runs`` at 2 the checked call is the second in a row, whose buffers
    may reuse the memory the first one freed.  The shipped chunk is even;
    the odd chunk 5 checks that both sides pair antithetic paths within a
    chunk, leaving its last path unpaired, as they do for an odd final
    chunk.  A single path is a
    one-path chunk whose mean cost is its own cost.  Where ``record`` is
    positive, the first ``record`` paths that ``bank_paths`` rebuilds must
    equal ``reference_paths`` too.  That reference reads each chunk's
    stream in one fill of ``steps + 1`` rows, or in fills of ``slab`` rows
    (1, 7 or 100), so a dump's row 0 and its interior rows must be one
    step-major stream however its reads are split.
    """

    @pytest.mark.parametrize("chunk,slab", [
        pytest.param(chunk, slab, id=str(chunk) if slab is None
                     else f"{chunk}-slab{slab}")
        for chunk in (engine._CHUNK, 6, 5, 4)
        for slab in (None, 1, 7, 100)])
    @pytest.mark.parametrize("runs", [1, 2])
    @pytest.mark.parametrize("paths,steps,antithetic,record", [
        (37, 7, False, 0),
        (37, 7, True, 5),
        (33, 8, True, 40),
        (20, 1, False, 3),
        (31, 13, False, 12),
        (1, 60, False, 0),
        (1, 60, False, 1),
    ])
    def test_every_field_equal(self, case_network, uncontrolled, controlled,
                               monkeypatch, chunk, slab, runs, paths,
                               steps, antithetic, record):
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        cfg = ln.SimConfig(paths=paths, steps=steps, seed=17,
                           antithetic=antithetic)
        for _ in range(runs):
            got = ln.simulate_network(case_network, controlled, cfg)
        _assert_pair_matches_reference(got, case_network, uncontrolled,
                                       controlled, cfg, record, slab)

    @pytest.mark.parametrize("runs", [1, 2])
    @pytest.mark.parametrize("paths,steps,antithetic,record", [
        (37, 7, True, 5),
        (31, 13, False, 0),
    ])
    def test_infeasible_bank_differs_only_in_its_flag(
            self, case_network, uncontrolled, capped, monkeypatch, runs,
            paths, steps, antithetic, record):
        monkeypatch.setattr(engine, "_CHUNK", 6)
        cfg = ln.SimConfig(paths=paths, steps=steps, seed=17,
                           antithetic=antithetic)
        for _ in range(runs):
            got = ln.simulate_network(case_network, capped, cfg)
        _assert_pair_matches_reference(got, case_network, uncontrolled,
                                       capped, cfg, record)
        assert got[1].infeasible_fallback.tolist() == [False, False, True,
                                                       False]

    @pytest.mark.parametrize("antithetic", [True, False],
                             ids=["antithetic", "iid"])
    @pytest.mark.parametrize("paths", [1, 2, 7, 16_385, 40_001])
    def test_close_to_whole_array_numpy(self, case_network, uncontrolled,
                                        controlled, paths, antithetic):
        # the chunked sums and Chan's combination only regroup float
        # additions of positive terms (values, or squared deviations about
        # a mean): each side's relative error is at most about log2(paths)
        # + 2 ulps, under 1e-14 at these sizes, so 1e-13 is a float64
        # bound with room.  A count is exact; one path has no variance
        cfg = ln.SimConfig(paths=paths, steps=50, seed=29,
                           antithetic=antithetic)
        got = ln.simulate_network(case_network, controlled, cfg)
        _assert_pair_matches_reference(got, case_network, uncontrolled,
                                       controlled, cfg, 0)
        for report, decisions in zip(got, (uncontrolled, controlled)):
            want = whole_array_simulation(case_network, decisions, cfg)
            assert np.array_equal(report.default_freq, want.default_freq)
            for field in ("mean_cost", "cost_ci_halfwidth", "terminal_mean",
                          "terminal_logvar"):
                np.testing.assert_allclose(getattr(report, field),
                                           getattr(want, field), rtol=1e-13,
                                           atol=0, err_msg=field)
            if paths == 1:
                assert not report.terminal_logvar.any()
                assert not report.cost_ci_halfwidth.any()


class TestWork:
    @pytest.mark.parametrize("runs", [1, 2])
    def test_cli_runs_each_bank_once(self, monkeypatch, tmp_path, runs):
        # 40,000 paths are 3 chunks.  Each of the 4 banks draws its chunk
        # streams once for both scenarios, the action bank's controlled
        # walk being its uncontrolled one plus psi T: 4 x 3 streams.  Its
        # cost series runs once per chunk, where the chunk is reduced.  A
        # second run in the same process draws and costs as much again
        streams, costs = [], []

        def counted(fn, calls):
            def wrapper(*args):
                calls.append(args)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(engine, "_generator",
                            counted(engine._generator, streams))
        monkeypatch.setattr(engine, "_cost_series",
                            counted(engine._cost_series, costs))
        for _ in range(runs):
            assert cli.main(["simulate", "--config", "case_study.json",
                             "--paths", "40000",
                             "--output", str(tmp_path / "out.csv")]) == 0
        assert len(streams) == 12 * runs
        assert sorted(args[1:] for args in streams) == sorted(
            [(bank, lo) for bank in range(4)
             for lo in (0, 16_384, 32_768)] * runs)
        assert sorted(len(args[1]) for args in costs) == sorted(
            [40_000 - 2 * 16_384, 16_384, 16_384] * runs)


def _peak_bytes(run):
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_worker_memory_does_not_grow_with_steps(self, case_network,
                                                    controlled):
        # two chunks through one buffer.  Every path takes one step, so the
        # engine holds one row of a chunk, where a whole-chunk grid would
        # hold 16,384 x 4,000 x 8 B = 524 MB at 4,000 steps
        peaks = [_peak_bytes(lambda: ln.simulate_network(
                     case_network, controlled,
                     ln.SimConfig(paths=32_768, steps=steps, seed=3)))[0]
                 for steps in (10, 4_000)]
        assert peaks[1] <= peaks[0] + 2**20

    def test_memory_does_not_grow_with_paths(self, case_network,
                                             controlled):
        # each chunk is reduced where it is drawn, so ten times the paths
        # add only each chunk's few statistics, where whole-bank arrays
        # would add 3 x 294,912 x 8 B = 7.1 MB for the action bank
        peaks = [_peak_bytes(lambda: ln.simulate_network(
                     case_network, controlled,
                     ln.SimConfig(paths=paths, steps=200, seed=3)))[0]
                 for paths in (32_768, 327_680)]
        assert peaks[1] <= peaks[0] + 2**20

    def test_dump_memory_does_not_grow_with_paths(self, case_network,
                                                  controlled, monkeypatch):
        # the dump rebuilds one chunk of paths at a time, so its peak is
        # the same over 2 chunks as over 6
        monkeypatch.setattr(engine, "_CHUNK", 1_024)
        psi = controlled[2].psi_star

        def dump(chunks):
            cfg = ln.SimConfig(paths=chunks * 1_024, steps=50, seed=3)
            return sum(1 for _ in ln.bank_paths(case_network, 2, psi, cfg))

        dump(1)  # first-call allocations are not the dump's
        (small, done), (large, total) = (_peak_bytes(lambda: dump(chunks))
                                         for chunks in (2, 6))
        assert (done, total) == (2_048, 6_144)
        assert large <= small + 2**16

    @pytest.mark.parametrize("antithetic", [True, False],
                             ids=["antithetic", "iid"])
    @pytest.mark.parametrize("steps", [100, 400])
    def test_dump_holds_one_chunk_array(self, case_network, controlled,
                                        steps, antithetic):
        # each chunk's paths live in one (steps + 1)-row array, rebuilt in
        # place: no path-major copy and no chunk-sized temporary.  Over two
        # chunks, a reader that keeps only the latest path frees the first
        # chunk before the second is built
        psi = controlled[2].psi_star
        chunk_bytes = engine._CHUNK * (steps + 1) * 8

        def dump(paths):
            cfg = ln.SimConfig(paths=paths, steps=steps, seed=3,
                               antithetic=antithetic)
            for path in ln.bank_paths(case_network, 2, psi, cfg):
                assert path.shape == (steps + 1,)

        dump(3)  # first-call allocations are not the dump's
        peak, _ = _peak_bytes(lambda: dump(2 * engine._CHUNK))
        assert peak <= chunk_bytes + 2**20


class TestStatisticalAgreement:
    def test_case_study_default_frequencies(self, case_network, controlled):
        cfg = ln.SimConfig(paths=60_000, seed=7)
        plain, helped = ln.simulate_network(case_network, controlled, cfg)
        assert abs(plain.default_freq[0] - (1 - B1_SURVIVAL_UNCONTROLLED)) \
            <= plain.default_ci_halfwidth[0] + 1e-12
        assert abs(plain.default_freq[2] - (1 - B3_SURVIVAL_UNCONTROLLED)) \
            <= plain.default_ci_halfwidth[2] + 1e-12
        # net creditors never default
        assert plain.default_freq[1] == 0.0
        assert plain.default_freq[3] == 0.0

        assert abs(helped.default_freq[2] - 0.01) \
            <= helped.default_ci_halfwidth[2] + 1e-12

    @pytest.mark.parametrize("antithetic", [True, False],
                             ids=["antithetic", "iid"])
    def test_meta_consistency_over_seeds(self, case_network, uncontrolled,
                                         antithetic):
        # the iid half-width is conservative for pairs, whose default
        # indicator is monotone in the draws
        hits = 0
        for seed in range(20):
            cfg = ln.SimConfig(paths=2_500, seed=seed, antithetic=antithetic)
            report, _ = ln.simulate_network(case_network, uncontrolled, cfg)
            ok = True
            for i, survival in ((0, B1_SURVIVAL_UNCONTROLLED),
                                (2, B3_SURVIVAL_UNCONTROLLED)):
                bound = 4 * report.default_ci_halfwidth[i]
                ok = ok and abs(report.default_freq[i] - (1 - survival)) <= bound
            hits += ok
        assert hits >= 19

    def test_step_count_does_not_move_default_estimator(self, case_network,
                                                        controlled):
        # every path takes one exact step, so ``steps`` sets only the
        # cost's grid and the terminal draws are the same at any step
        # count, in the reports and in the rebuilt paths alike
        coarse, fine = (
            ln.simulate_network(case_network, controlled,
                                ln.SimConfig(paths=40_000, steps=steps,
                                             seed=11))[1]
            for steps in (1, 200))
        for field in ("default_freq", "terminal_mean", "terminal_logvar"):
            assert np.array_equal(getattr(coarse, field),
                                  getattr(fine, field)), field
        psi = controlled[2].psi_star
        ends = [_dumped(case_network, 2, psi, ln.SimConfig(
                    paths=40_000, steps=steps, seed=11))[:, -1]
                for steps in (1, 200)]
        assert np.array_equal(*ends)

    def test_antithetic_leaves_means_within_ci(self, case_network,
                                               controlled):
        n = 30_000
        _, plain = ln.simulate_network(
            case_network, controlled,
            ln.SimConfig(paths=n, seed=21, antithetic=False))
        _, paired = ln.simulate_network(
            case_network, controlled,
            ln.SimConfig(paths=n, seed=21, antithetic=True))
        for i in range(4):
            tolerance = (plain.default_ci_halfwidth[i]
                         + paired.default_ci_halfwidth[i] + 1e-12)
            assert abs(plain.default_freq[i] - paired.default_freq[i]) \
                <= tolerance

    def test_antithetic_pairs_mirror_draws(self, case_network):
        steps = 5
        cfg = ln.SimConfig(paths=8, steps=steps, seed=3, antithetic=True)
        paths = _dumped(case_network, 0, 0.0, cfg)
        x0 = case_network.cash[0]
        # mirrored draws, terminal and interior: at every grid point the
        # log returns of a pair sum to twice the drift part
        log_ret = np.log(paths / x0)
        drift_part = (case_network.drift[0] - case_network.vol[0]**2 / 2)
        times = case_network.horizon * np.arange(steps + 1) / steps
        np.testing.assert_allclose(log_ret[0::2] + log_ret[1::2],
                                   np.broadcast_to(2 * drift_part * times,
                                                   (4, steps + 1)),
                                   rtol=0, atol=1e-12)
        assert np.all(np.abs(log_ret[0::2] - log_ret[1::2])[:, 1:] > 0)

    @pytest.mark.parametrize("antithetic", [True, False],
                             ids=["antithetic", "iid"])
    def test_rebuilt_paths_have_brownian_covariance(self, case_network,
                                                    antithetic):
        # the bridge from 0 to the exact terminal step gives log returns
        # with mean (mu - sigma^2/2) t_k and covariance sigma^2 min(t_j,
        # t_k); 100,000 paths give the variances a relative standard error
        # of about 0.5%, and the bounds are about six of them
        steps, n = 10, 100_000
        cfg = ln.SimConfig(paths=n, steps=steps, seed=19,
                           antithetic=antithetic)
        paths = _dumped(case_network, 3, 0.0, cfg)
        x0, mu = case_network.cash[3], case_network.drift[3]
        sigma = case_network.vol[3]
        times = case_network.horizon * np.arange(1, steps + 1) / steps
        log_ret = np.log(paths[:, 1:] / x0)
        cov = np.cov(log_ret, rowvar=False)
        np.testing.assert_allclose(np.diag(cov), sigma**2 * times, rtol=0.03)
        assert cov[2, 6] / (sigma**2 * times[2]) == pytest.approx(1, rel=0.05)
        np.testing.assert_allclose(
            log_ret.mean(axis=0), (mu - sigma**2 / 2) * times,
            rtol=0, atol=6 * sigma / math.sqrt(n))


def _calibration_network(n=20, seed=1):
    """A seeded network whose net debtors hold between 0.8 and 1.6 times
    their terminal boundary in cash, under survival targets in [0.6,
    0.99): about half its banks may default, and about half of those
    get a lending rate."""
    rng = np.random.default_rng(seed)
    liabilities = np.where(rng.random((n, n)) < 0.3,
                           rng.uniform(1, 10, (n, n)), 0.0)
    np.fill_diagonal(liabilities, 0.0)
    drift, vol = rng.uniform(0.0, 0.2, n), rng.uniform(0.1, 0.4, n)

    def network(cash):
        return ln.FinancialNetwork(liabilities=liabilities, cash=cash,
                                   drift=drift, vol=vol, growth_rate=0.05,
                                   horizon=1.0)

    # the boundary does not depend on cash
    boundary = ln.default_boundary(network(np.ones(n)))
    net = network(np.where(boundary > 0,
                           boundary * rng.uniform(0.8, 1.6, n),
                           rng.uniform(1, 10, n)))
    q = rng.uniform(0.6, 0.99, n)
    return net, q, ln.network_decision(net, q)


class TestCalibration:
    """Over 200 fixed seeds at 4,000 paths, each estimate's z-score
    against its closed form, ``(estimate - exact) / (half-width / z95)``,
    must have a mean near 0 (no bias) and, with iid draws, an sd near 1
    (an honest half-width).  With K = 200 the z mean has an sd of about
    0.07 and the sample sd one of about 0.05, so the bounds are |mean| <=
    0.25 and sd in [0.85, 1.15].  The paired half-widths use the iid
    formula, which overstates a pair's error, so there the sd is only
    bounded above.  The seeds are fixed, so the verdict moves only when
    numpy moves the stream.

    Case study: banks 1 and 3 uncontrolled, bank 3 controlled and its
    cost.  A seeded network: every uncontrolled bank whose default
    probability lies in [0.02, 0.98], and every action bank's controlled
    default against ``1 - q``, pooled over banks and seeds.
    """

    @pytest.mark.parametrize("antithetic", [True, False],
                             ids=["antithetic", "iid"])
    def test_z_scores_over_seeds(self, case_network, controlled, case_q,
                                 antithetic):
        problem = ln.ControlProblem(
            mu=0.3, sigma=0.2,
            v_terminal=float(ln.default_boundary(case_network)[2]),
            horizon_remaining=1.0, q=0.99)
        cost = ln.value_function(problem, 13.0, controlled[2].psi_star)
        net, q, decisions = _calibration_network()
        default = np.array([1 - d.survival_prob_uncontrolled
                            for d in decisions])
        free = np.flatnonzero((default >= 0.02) & (default <= 0.98))
        action = np.flatnonzero([d.region is ln.Region.ACTION
                                 for d in decisions])
        assert len(free) >= 8 and len(action) >= 8

        def z(estimate, exact, halfwidth):
            return (estimate - exact) / (halfwidth / 1.959963984540054)

        scores = {name: [] for name in ("bank 1", "bank 3", "bank 3 helped",
                                        "bank 3 cost", "network",
                                        "network helped")}
        for seed in range(200):
            cfg = ln.SimConfig(paths=4_000, seed=seed, antithetic=antithetic)
            plain, helped = ln.simulate_network(case_network, controlled, cfg)
            scores["bank 1"].append(z(plain.default_freq[0],
                                      1 - B1_SURVIVAL_UNCONTROLLED,
                                      plain.default_ci_halfwidth[0]))
            scores["bank 3"].append(z(plain.default_freq[2],
                                      1 - B3_SURVIVAL_UNCONTROLLED,
                                      plain.default_ci_halfwidth[2]))
            scores["bank 3 helped"].append(z(helped.default_freq[2],
                                             1 - case_q[2],
                                             helped.default_ci_halfwidth[2]))
            scores["bank 3 cost"].append(z(helped.mean_cost[2], cost,
                                           helped.cost_ci_halfwidth[2]))
            plain, helped = ln.simulate_network(net, decisions, cfg)
            scores["network"].extend(z(plain.default_freq[free],
                                       default[free],
                                       plain.default_ci_halfwidth[free]))
            scores["network helped"].extend(z(
                helped.default_freq[action], 1 - q[action],
                helped.default_ci_halfwidth[action]))
        for name, values in scores.items():
            mean, sd = np.mean(values), np.std(values, ddof=1)
            assert abs(mean) <= 0.25, (name, mean)
            assert sd <= 1.15, (name, sd)
            if not antithetic:
                assert sd >= 0.85, (name, sd)


def _term_by_term_cost(x0, sigma, psi, horizon, steps, terminal):
    """Expected trapezoid cost of a path on ``steps`` intervals given its
    terminal value, summed term by term in plain Python: interior point
    ``k`` contributes ``E[X_k^2 | X_N] = c_k exp(k log r)``, with
    ``c_k = x0^2 exp(2 sigma^2 t_k (1 - k/N))`` and
    ``r = (X_N / x0)^(2/N)``."""
    dt = horizon / steps
    log_r = 2 / steps * math.log(terminal / x0)
    interior = [x0**2 * math.exp(2 * sigma**2 * (k * dt) * (1 - k / steps))
                * math.exp(k * log_r) for k in range(1, steps)]
    return 0.5 * psi**2 * dt * math.fsum(
        [0.5 * x0**2, *interior, 0.5 * terminal**2])


class TestCostEstimation:
    @pytest.mark.parametrize("steps", [1, 2, 7, 200, 2000])
    @pytest.mark.parametrize("seed", range(4))
    def test_conditional_cost_matches_term_by_term_sum(
            self, case_network, controlled, steps, seed):
        # a one-path run reports its path's own cost and terminal value
        _, report = ln.simulate_network(
            case_network, controlled,
            ln.SimConfig(paths=1, steps=steps, seed=seed))
        expected = _term_by_term_cost(
            case_network.cash[2], case_network.vol[2],
            controlled[2].psi_star, case_network.horizon, steps,
            report.terminal_mean[2])
        assert report.mean_cost[2] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("steps", [1, 2, 7, 200, 2000])
    @pytest.mark.parametrize("wmax", [0.0, 1.0, 10.0])
    def test_series_matches_term_by_term_sum(self, case_network, controlled,
                                             steps, wmax):
        # |w| = 10 needs the series up to its 26th power of w^2
        x0, sigma = case_network.cash[2], case_network.vol[2]
        psi, horizon = controlled[2].psi_star, case_network.horizon
        walk = np.linspace(-wmax, wmax, 41)
        terminal = x0 * np.exp(walk)
        expected = [_term_by_term_cost(x0, sigma, psi, horizon, steps, t)
                    for t in terminal]
        coef = engine._cost_coefficients(x0, sigma, psi, horizon, steps,
                                         wmax)
        cost = np.empty_like(walk)
        engine._cost_series(coef, walk, wmax, np.empty_like(walk), cost)
        cost *= terminal
        np.testing.assert_allclose(cost, expected, rtol=1e-13)

    @pytest.mark.parametrize("wmax,degree", [(0.0, 0), (1.0, 9), (8.0, 23),
                                             (10.0, 26)])
    def test_series_degree_does_not_grow_with_steps(self, wmax, degree):
        for steps in (1, 200, 20_000):
            coef = engine._cost_coefficients(13.0, 0.2, 0.4, 1.0, steps,
                                             wmax)
            assert len(coef) == degree + 1

    @pytest.mark.parametrize("wmax", [800.0, math.inf, math.nan])
    def test_series_refuses_an_unrepresentable_path(self, wmax):
        with pytest.raises(ValueError, match="overflows"):
            engine._cost_coefficients(13.0, 0.2, 0.4, 1.0, 200, wmax)

    def test_conditional_cost_matches_pathwise_trapezoid(self, case_network,
                                                         controlled):
        # the rebuilt paths end on the simulated terminals, and their
        # pathwise trapezoid cost agrees with the conditional cost only if
        # the bridge has the law of the dynamics given X_N
        n, steps = 4_000, 50
        cfg = ln.SimConfig(paths=n, steps=steps, seed=23)
        _, report = ln.simulate_network(case_network, controlled, cfg)
        x0, sigma = case_network.cash[2], case_network.vol[2]
        psi, horizon = controlled[2].psi_star, case_network.horizon
        paths = _dumped(case_network, 2, psi, cfg)
        assert chunked_mean(paths[:, -1], cfg) == report.terminal_mean[2]
        squares = paths**2
        pathwise = 0.5 * psi**2 * (horizon / steps) * (
            squares[:, 0] / 2 + squares[:, 1:-1].sum(axis=1)
            + squares[:, -1] / 2)
        conditional = np.array([
            _term_by_term_cost(x0, sigma, psi, horizon, steps, terminal)
            for terminal in paths[:, -1]])
        assert conditional.mean() == pytest.approx(report.mean_cost[2],
                                                   rel=1e-12)
        # both estimate the same mean on the same paths; the 95% half-width
        # of their per-path differences is at most their combined
        # half-widths
        diff = pathwise - conditional
        halfwidth = 1.959963984540054 * diff.std(ddof=1) / math.sqrt(n)
        assert abs(pathwise.mean() - report.mean_cost[2]) <= halfwidth

    @pytest.mark.parametrize("psi", [math.nan, math.inf, -0.1, True, "0.1",
                                     None])
    def test_rejects_bad_rate(self, case_network, psi):
        with pytest.raises(ln.InvalidValueError) as info:
            ln.bank_paths(case_network, 0, psi,
                          ln.SimConfig(paths=10, steps=2))
        assert info.value.field == "psi"

    @pytest.mark.parametrize("psi", [-0.3, True, math.nan, math.inf, "0.1",
                                     None])
    def test_rejects_bad_decided_rate(self, case_network, controlled, psi):
        # refused before any path is drawn
        decisions = list(controlled)
        decisions[2] = dataclasses.replace(controlled[2], psi_star=psi)
        with pytest.raises(ln.InvalidValueError) as info:
            ln.simulate_network(case_network, decisions,
                                ln.SimConfig(paths=1_000))
        assert info.value.field == "decisions[2].psi_star"

    @pytest.mark.parametrize("run", ["bank_paths"])
    @pytest.mark.parametrize("i", [True, 2.0, 2.5, "2", -1, 4, None])
    def test_rejects_bad_bank_index(self, case_network, i, run):
        # refused when called, before any path is drawn
        with pytest.raises(ln.InvalidValueError) as info:
            getattr(ln, run)(case_network, i, 0.1,
                             ln.SimConfig(paths=10, steps=2))
        assert info.value.field == "i"
        assert str(info.value) == (
            f"i: must be an integer bank index in [0, 4), got {i!r}")

    def test_accepts_numpy_bank_index(self, case_network):
        cfg = ln.SimConfig(paths=10, steps=2)
        assert np.array_equal(_dumped(case_network, np.uint8(2), 0.1, cfg),
                              _dumped(case_network, 2, 0.1, cfg))

    def test_zero_rate_costs_exactly_zero(self, case_network, controlled,
                                          capped):
        # every uncontrolled row, and the no-action and infeasible rows of
        # a controlled report
        assert {d.region for d in capped} == {ln.Region.NO_ACTION,
                                              ln.Region.INFEASIBLE}
        cfg = ln.SimConfig(paths=2_000, seed=1)
        plain, _ = ln.simulate_network(case_network, controlled, cfg)
        _, fallback = ln.simulate_network(case_network, capped, cfg)
        for report in (plain, fallback):
            assert not report.mean_cost.any()
            assert not report.cost_ci_halfwidth.any()

    def test_matches_closed_form_within_ci(self, case_network, controlled):
        cfg = ln.SimConfig(paths=40_000, steps=200, seed=2)
        _, report = ln.simulate_network(case_network, controlled, cfg)
        p = ln.ControlProblem(mu=0.3, sigma=0.2,
                              v_terminal=float(
                                  ln.default_boundary(case_network)[2]),
                              horizon_remaining=1.0, q=0.99)
        closed = ln.value_function(p, 13.0, controlled[2].psi_star)
        assert abs(report.mean_cost[2] - closed) <= \
            3 * report.cost_ci_halfwidth[2]

    def test_deterministic_scaling_with_zero_vol(self):
        # sigma -> 0 limit: the path is deterministic and the trapezoid cost
        # must scale exactly like the quadrature of the closed-form path
        horizon, steps, x0, mu = 1.0, 64, 2.0, 0.1
        dt = horizon / steps

        def deterministic_cost(psi):
            grid = x0 * np.exp((mu + psi) * dt * np.arange(steps + 1))
            squares = grid**2
            integral = dt * (squares[0] / 2 + squares[1:-1].sum()
                             + squares[-1] / 2)
            return 0.5 * psi**2 * integral

        net = ln.FinancialNetwork(liabilities=[[0.0]], cash=[x0], drift=[mu],
                                  vol=[1e-12], growth_rate=0.0,
                                  horizon=horizon)
        cfg = ln.SimConfig(paths=64, steps=steps, seed=4)

        def simulated_cost(psi):
            # the bank owes nothing, so only a hand-built decision lends
            decision = ln.ControlDecision(
                region=ln.Region.ACTION, psi_star=psi, expected_cost=0.0,
                survival_prob_uncontrolled=1.0, threshold_log_x=None)
            _, report = ln.simulate_network(net, [decision], cfg)
            return report.mean_cost[0]

        ratio = deterministic_cost(0.4) / deterministic_cost(0.2)
        assert simulated_cost(0.4) / simulated_cost(0.2) == pytest.approx(
            ratio, rel=1e-6)


class TestEulerOracle:
    """Plain Euler-Maruyama with the rate in the drift, against the closed
    forms.  The engine takes a controlled walk as the rate-zero one plus
    ``psi T``; this oracle puts ``mu + psi`` in every Euler step instead.

    Each estimate must lie within three standard errors of the fine run
    plus a weak-error allowance: Euler's weak error is first order in the
    step, so the fine run's is about the coarse-to-fine gap, taken with
    three standard errors of that coupled difference.
    """

    @pytest.mark.parametrize("psi", [0.0, B3_PSI_STAR],
                             ids=["uncontrolled", "controlled"])
    def test_bank3_matches_closed_forms(self, case_network, psi):
        x0, mu = float(case_network.cash[2]), float(case_network.drift[2])
        sigma, horizon = float(case_network.vol[2]), case_network.horizon
        problem = ln.ControlProblem(
            mu=mu, sigma=sigma,
            v_terminal=float(ln.default_boundary(case_network)[2]),
            horizon_remaining=horizon, q=0.99)
        coarse, fine = euler_maruyama(x0, mu + psi, sigma, horizon,
                                      steps=100, paths=100_000, seed=2019)
        checks = [(
            [(terminal < problem.v_terminal).astype(float)
             for terminal, _ in (coarse, fine)],
            1 - ln.survival_probability(problem, x0, psi))]
        if psi:
            checks.append((
                [0.5 * psi**2 * squares for _, squares in (coarse, fine)],
                ln.value_function(problem, x0, psi)))
        for (on_coarse, on_fine), exact in checks:
            n = len(on_fine)
            gap = on_coarse - on_fine
            allowance = abs(gap.mean()) + 3 * gap.std(ddof=1) / math.sqrt(n)
            tolerance = 3 * on_fine.std(ddof=1) / math.sqrt(n) + allowance
            assert abs(on_fine.mean() - exact) <= tolerance


class TestInfeasibleFallback:
    def test_flagged_and_simulated_uncontrolled(self, case_network, capped):
        cfg = ln.SimConfig(paths=4_000, seed=13)
        plain, report = ln.simulate_network(case_network, capped, cfg)
        assert report.infeasible_fallback.tolist() == [False, False, True,
                                                       False]
        assert report.default_freq[2] == plain.default_freq[2]
        assert report.mean_cost[2] == 0.0


class TestReportShape:
    def test_fields_and_path_chunks(self, case_network, controlled,
                                    monkeypatch):
        monkeypatch.setattr(engine, "_CHUNK", 50)
        cfg = ln.SimConfig(paths=120, steps=10, seed=6)
        plain, helped = ln.simulate_network(case_network, controlled, cfg)
        assert not plain.cost_ci_halfwidth.any()
        assert helped.cost_ci_halfwidth[2] > 0
        for report in (plain, helped):
            assert np.all(report.cost_ci_halfwidth >= 0)
            assert np.all(report.default_ci_halfwidth >= 0)
            assert np.all((report.default_freq >= 0)
                          & (report.default_freq <= 1))
        for i in range(4):
            paths = list(ln.bank_paths(case_network, i, 0.0, cfg))
            assert len(paths) == 120
            assert all(p.shape == (11,) and p[0] == case_network.cash[i]
                       for p in paths)

    def test_ci_shrinks_with_paths(self, case_network, uncontrolled):
        small, _ = ln.simulate_network(case_network, uncontrolled,
                                       ln.SimConfig(paths=2_000, seed=8))
        large, _ = ln.simulate_network(case_network, uncontrolled,
                                       ln.SimConfig(paths=32_000, seed=8))
        # quadrupling paths should roughly quarter the squared half-width
        assert large.default_ci_halfwidth[2] < small.default_ci_halfwidth[2] / 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ln.SimConfig(paths=0)
        with pytest.raises(ValueError):
            ln.SimConfig(paths=1, steps=0)
        with pytest.raises(ValueError):
            ln.SimConfig(paths=1, seed=-1)

    @pytest.mark.parametrize("kwargs", [
        dict(paths=math.nan), dict(paths=2.5), dict(paths=True),
        dict(paths=10, steps=math.inf), dict(paths=10, steps=2.0),
        dict(paths=10, seed=1.5), dict(paths=10, seed=None),
    ], ids=["paths-nan", "paths-2.5", "paths-bool", "steps-inf",
            "steps-float", "seed-float", "seed-none"])
    def test_config_requires_integers(self, kwargs):
        with pytest.raises(ValueError, match="must be an integer"):
            ln.SimConfig(**kwargs)

    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_config_requires_bool_antithetic(self, value):
        with pytest.raises(ValueError) as info:
            ln.SimConfig(paths=10, antithetic=value)
        assert str(info.value) == f"antithetic: must be a bool, got {value!r}"

    def test_config_accepts_numpy_bool_antithetic(self):
        assert not ln.SimConfig(paths=10, antithetic=np.bool_(False)).antithetic

    def test_config_accepts_numpy_integers(self):
        cfg = ln.SimConfig(paths=np.int64(3), steps=np.int32(2),
                           seed=np.uint64(2**64 - 1))
        assert cfg.seed == 2**64 - 1

    @pytest.mark.parametrize("seed", [np.int32(7), np.int64(7), np.uint64(7)])
    def test_numpy_integer_seed_draws_like_its_int(self, case_network,
                                                   uncontrolled, seed):
        reports = [ln.simulate_network(case_network, uncontrolled,
                                       ln.SimConfig(paths=20, steps=3,
                                                    seed=s))
                   for s in (seed, 7)]
        assert reports_equal(*reports)
