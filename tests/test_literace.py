"""The online LiteRace baseline (paper §5.3)."""

from repro.detectors import FastTrackDetector, LiteRaceDetector
from repro.trace.events import Event, fork, join, rd, wr
from repro.trace.events import METHOD_ENTER, METHOD_EXIT


def enter(tid, m):
    return Event(METHOD_ENTER, tid, m, 0)


def exit_(tid, m):
    return Event(METHOD_EXIT, tid, m, 0)


def hot_loop_trace(iters=2000, racy_every=0):
    """Two threads repeatedly invoking hot method 7; optionally an
    unsynchronized racy pair inside the hot code."""
    events = [fork(0, 1)]
    for i in range(iters):
        tid = i % 2
        events.append(enter(tid, 7))
        events.append(rd(tid, 100 + tid, site=1))
        # racy accesses land deep into the loop (never in the warm-up
        # invocations, which LiteRace samples at 100%); hits both parities
        if racy_every and i % racy_every >= racy_every - 2:
            if tid == 0:
                events.append(wr(0, 55, site=10))
            else:
                events.append(wr(1, 55, site=11))
        events.append(exit_(tid, 7))
    events.append(join(0, 1))
    return events


class TestAdaptiveSampling:
    def test_effective_rate_decays_for_hot_code(self):
        d = LiteRaceDetector(burst_length=10, seed=1)
        d.run(hot_loop_trace(4000))
        assert d.effective_rate < 0.10

    def test_cold_code_fully_instrumented(self):
        d = LiteRaceDetector(burst_length=10, seed=1)
        events = [fork(0, 1)]
        # each method invoked once per thread: always sampled
        for m in range(20):
            events += [enter(0, 50 + m), rd(0, m, site=m), exit_(0, 50 + m)]
        events.append(join(0, 1))
        d.run(events)
        assert d.effective_rate == 1.0

    def test_first_invocations_sampled(self):
        d = LiteRaceDetector(burst_length=100, seed=2)
        d.run(hot_loop_trace(40))
        assert d.effective_rate > 0.9

    def test_min_rate_floor(self):
        d = LiteRaceDetector(burst_length=1, min_rate=0.001, seed=3)
        d.run(hot_loop_trace(3000))
        assert d.sampled_accesses > 0  # never fully off

    def test_burst_length_increases_coverage(self):
        short = LiteRaceDetector(burst_length=1, seed=4)
        short.run(hot_loop_trace(3000))
        long = LiteRaceDetector(burst_length=1000, seed=4)
        long.run(hot_loop_trace(3000))
        assert long.effective_rate > short.effective_rate

    def test_top_level_code_gets_initial_burst(self):
        d = LiteRaceDetector(burst_length=50, seed=5)
        d.run([fork(0, 1)] + [rd(0, 1, site=1)] * 10 + [join(0, 1)])
        assert d.sampled_accesses == 10


class TestRaceFinding:
    def test_finds_cold_races_reliably(self):
        found = 0
        for seed in range(10):
            d = LiteRaceDetector(burst_length=10, seed=seed)
            events = [fork(0, 1)]
            events += [enter(0, 5), wr(0, 9, site=1), exit_(0, 5)]
            events += [enter(1, 6), wr(1, 9, site=2), exit_(1, 6)]
            events.append(join(0, 1))
            d.run(events)
            found += bool(d.races)
        assert found == 10  # cold code: sampled at 100%

    def test_misses_hot_races_often(self):
        """Races between two hot accesses escape LiteRace (Figure 6)."""
        trials = 15
        ft_found = lr_found = 0
        for seed in range(trials):
            trace = hot_loop_trace(3000, racy_every=1000)
            ft = FastTrackDetector()
            ft.run(trace)
            ft_found += bool(ft.races)
            lr = LiteRaceDetector(burst_length=10, seed=seed)
            lr.run(trace)
            lr_found += bool(lr.races)
        assert ft_found == trials
        assert lr_found < trials  # LiteRace misses the hot race sometimes

    def test_sync_always_tracked_no_false_positives(self):
        """Sampling code never loses happens-before edges."""
        from repro.trace.generator import race_free_trace

        for seed in range(8):
            trace = race_free_trace(seed=seed, length=300)
            d = LiteRaceDetector(burst_length=5, seed=seed)
            d.run(trace)
            assert d.races == []

    def test_space_never_discarded(self):
        d = LiteRaceDetector(burst_length=10, seed=1)
        d.run(hot_loop_trace(2000))
        footprint_mid = d.footprint_words()
        d.run(hot_loop_trace(2000))
        assert d.footprint_words() >= footprint_mid


class TestDeterminism:
    def test_default_seed_gives_identical_analyze_reports(self, tmp_path):
        """``repro analyze --detector literace`` builds the detector with
        its default seed: two runs over one trace write the same bytes."""
        import contextlib
        import io

        from repro.cli import main
        from repro.trace.binio import dump_trace_binary

        trace = tmp_path / "hot.pacr"
        dump_trace_binary(hot_loop_trace(3000, racy_every=40), trace)
        reports = []
        for run in range(2):
            out = tmp_path / f"run{run}.report.json"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["analyze", str(trace), "--detector", "literace",
                             "--report-out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
