import io
import os
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

from conftest import ROOT, abtime


class FakeClock:
    """A clock that moves only when a timed side says it did work."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now

    def side(self, name, cost, log):
        def call():
            log.append(name)
            self.now += cost
        return call


class TestPairing:
    def test_constant_slowdown_reads_its_ratio_and_the_order_alternates(self):
        clock, log = FakeClock(), []
        base, changed = clock.side("base", 1000, log), clock.side("changed", 1050, log)
        ratios = abtime.paired_ratios(base, changed, pairs=6, calls=3, clock=clock)
        assert ratios.tolist() == [1.05] * 6
        expected = []
        for i in range(6):
            first, second = ("changed", "base") if i % 2 else ("base", "changed")
            expected += [first] * 3 + [second] * 3
        assert log == expected
        assert abtime.summary(ratios) == (1.05, 1.05, 1.05)

    def test_first_side_penalty_cancels_in_the_median(self):
        # whichever side runs first in a pair pays 10 % more; alternation spreads it
        # evenly, so equal costs read a median of 1 within the interval
        clock, log = FakeClock(), []

        def side(name):
            def call():
                log.append(name)
                clock.now += 1100 if len(log) % 2 else 1000
            return call

        ratios = abtime.paired_ratios(side("base"), side("changed"), pairs=40, calls=1,
                                      clock=clock)
        assert sorted(set(ratios.tolist())) == [1000 / 1100, 1100 / 1000]
        median, low, high = abtime.summary(ratios)
        assert low <= 1.0 <= high and median == pytest.approx(1.0, abs=0.05)

    def test_bootstrap_interval_holds_the_median(self):
        ratios = np.random.default_rng(5).normal(1.0, 0.02, 200)
        median, low, high = abtime.summary(ratios)
        assert low < median < high and high - low < 0.02
        assert abtime.summary(ratios) == (median, low, high)  # seeded: repeatable

    def test_block_interval_covers_a_drift_that_pairwise_resampling_misses(self):
        # the same code on both sides, but the host favours one loaded copy over the
        # other by up to 0.5 %, a favour that wanders over hundreds of pairs: 400 pairs
        # see 0.8 of one period, so the median reads above 1 by when the run was made
        clock, noise = FakeClock(), np.random.default_rng(1)

        def side(sign):
            def call():
                favour = 0.005 * np.sin(2 * np.pi * 0.8 * clock.now / 800_000)
                clock.now += 1000 * (1 + sign * favour + 0.001 * noise.standard_normal())
            return call

        ratios = abtime.paired_ratios(side(-1), side(1), pairs=400, calls=1, clock=clock)
        pairwise = np.median(np.random.default_rng(0).choice(ratios, (2000, 400)), axis=1)
        low, high = np.percentile(pairwise, [2.5, 97.5])
        assert 1.0 < low < high  # pairs drawn one by one: an interval that excludes 1.00
        median, low, high = abtime.summary(ratios)
        assert median > 1.0 and low <= 1.0 <= high

    def test_one_pair_reads_its_ratio(self):
        assert abtime.summary(np.array([0.98])) == (0.98, 0.98, 0.98)


class TestTrees:
    def test_two_trees_are_distinct_modules(self):
        a = abtime.load_tree(ROOT / "src", "abtime_test_a")
        b = abtime.load_tree(ROOT / "src", "abtime_test_b")
        assert a.measurement is not b.measurement
        assert a.measurement.__name__ == "abtime_test_a.measurement"
        assert b.preset("gemini") is not a.preset("gemini")

    def test_main_prints_one_line_per_target(self):
        out = io.StringIO()
        with redirect_stdout(out):
            rc = abtime.main([str(ROOT / "src"), str(ROOT / "src"), "control.circuit_unitary",
                              "measurement.tomography:gemini", "--pairs", "4"])
        assert rc == 0
        lines = out.getvalue().splitlines()
        assert [line.split()[0] for line in lines] == ["control.circuit_unitary",
                                                       "measurement.tomography:gemini"]
        for line in lines:
            assert line.split("pairs ")[1].split()[0] == "4"
            assert int(line.split("calls ")[1]) >= 1

    def test_every_target_builds_in_a_tree(self):
        tree = abtime.load_tree(ROOT / "src", "abtime_test_c")
        for name, build in abtime.TARGETS.items():
            if not name.startswith("control.grape"):  # a full solve; main runs it
                build(tree)()

    def test_unknown_target_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc, redirect_stdout(io.StringIO()):
            abtime.main(["src", "src", "bogus"])
        assert exc.value.code == 2


class TestChildClock:
    def test_a_child_is_timed_by_its_own_cpu(self, tmp_path):
        clock = abtime.ChildCPU()
        clock.run([sys.executable, "-c", "sum(range(3 * 10**6))"], dict(os.environ), str(tmp_path))
        assert clock() > 10**7  # the loop alone takes some 50 ms; this thread spent none of it

    def test_a_failed_child_is_an_error(self, tmp_path):
        with pytest.raises(RuntimeError, match="exited 3$"):
            abtime.ChildCPU().run([sys.executable, "-c", "raise SystemExit(3)"],
                                  dict(os.environ), str(tmp_path))

    def test_only_a_readme_request_runs_on_the_child_clock(self):
        # cli.build_parser runs in process: on the child clock it would read 0 ns a call
        assert abtime.clock_of("cli.build_parser") is abtime.time.thread_time_ns
        assert abtime.clock_of("control.compile") is abtime.time.thread_time_ns
        assert all(abtime.clock_of(f"cli.{name}") is abtime.CHILD_CPU
                   for name in abtime.CLI_REQUESTS)
