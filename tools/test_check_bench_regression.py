#!/usr/bin/env python3
"""Self-test for the perf-regression gate's matcher and tolerance logic.

Plain unittest (stdlib only) so CI needs no extra packages; the test_*
naming also makes it discoverable by pytest. Run from the repo root:

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check_bench_regression as gate


class CounterToleranceTest(unittest.TestCase):
    def check(self, base, new, tol=0.35, **kwargs):
        failures = []
        gate.check_counter("x", base, new, tol, failures, **kwargs)
        return failures

    def test_equal_passes(self):
        self.assertEqual(self.check(100, 100), [])

    def test_drift_within_tolerance_passes(self):
        self.assertEqual(self.check(100, 134), [])
        self.assertEqual(self.check(100, 67), [])

    def test_drift_beyond_tolerance_fails(self):
        self.assertEqual(len(self.check(100, 136)), 1)
        self.assertEqual(len(self.check(100, 10)), 1)

    def test_zero_baseline_zero_new_passes(self):
        self.assertEqual(self.check(0, 0), [])

    def test_zero_baseline_small_new_passes(self):
        # The divide-by-zero regime: a counter that was 0 in the committed
        # baseline (new stats field, prune count of 0 on that row) must
        # not explode into an absurd relative drift.
        self.assertEqual(self.check(0, 3), [])

    def test_zero_baseline_large_new_fails(self):
        failures = self.check(0, 5000)
        self.assertEqual(len(failures), 1)
        self.assertIn("baseline 0", failures[0])

    def test_zero_baseline_custom_floor(self):
        self.assertEqual(self.check(0, 10, abs_floor=10), [])
        self.assertEqual(len(self.check(0, 11, abs_floor=10)), 1)


class TimeToleranceTest(unittest.TestCase):
    def check(self, base, new, tol=3.0):
        failures = []
        gate.check_time("t", base, new, tol, failures)
        return failures

    def test_speedup_and_mild_slowdown_pass(self):
        self.assertEqual(self.check(10.0, 1.0), [])
        self.assertEqual(self.check(10.0, 29.9), [])

    def test_gross_slowdown_fails(self):
        self.assertEqual(len(self.check(10.0, 31.0)), 1)

    def test_zero_baseline_time_is_skipped(self):
        self.assertEqual(self.check(0.0, 100.0), [])


class RowMatchingTest(unittest.TestCase):
    def row(self, **overrides):
        row = {
            "data_size": 100000,
            "query_size_fraction": 0.01,
            "simulated_fetch_ns": 0.0,
            "blocking_fetch": False,
            "num_threads": 1,
            "mismatches": 0,
            "traditional": {"candidates": 100, "geometry_loads": 100,
                            "redundant": 50, "time_ms": 1.0},
            "voronoi": {"candidates": 60, "geometry_loads": 60,
                        "redundant": 10, "time_ms": 0.5},
        }
        for key, value in overrides.items():
            row[key] = value
        return row

    def run_gate(self, baseline, new, extra_args=()):
        """End-to-end through main(), the way CI invokes it."""
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "base.json")
            new_path = os.path.join(tmp, "new.json")
            with open(base_path, "w") as f:
                json.dump(baseline, f)
            with open(new_path, "w") as f:
                json.dump(new, f)
            script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "check_bench_regression.py")
            return subprocess.run(
                [sys.executable, script, base_path, new_path, *extra_args],
                capture_output=True, text=True)

    def test_identical_rows_pass(self):
        result = self.run_gate([self.row()], [self.row()])
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_unmatched_knob_grid_is_skipped(self):
        result = self.run_gate([self.row()],
                               [self.row(data_size=999)])
        self.assertEqual(result.returncode, 0)
        self.assertIn("no comparable rows", result.stdout)

    def test_sharded_rows_key_on_num_shards(self):
        # Two rows differing only in num_shards must not be confused; a
        # regression in the K=4 row is reported against the K=4 baseline.
        k1 = self.row(num_shards=1)
        k4 = self.row(num_shards=4)
        k4_bad = self.row(num_shards=4)
        k4_bad["traditional"] = dict(k4["traditional"], candidates=1000)
        result = self.run_gate([k1, k4], [k1, k4_bad])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("num_shards=4", result.stdout)
        self.assertNotIn("num_shards=1]", result.stdout)

    def test_legacy_rows_without_num_shards_still_match(self):
        # Committed baselines predate the num_shards key; both sides
        # resolve it to None and keep matching.
        result = self.run_gate([self.row()], [self.row()])
        self.assertEqual(result.returncode, 0)
        self.assertIn("within tolerance", result.stdout)

    def test_result_set_mismatches_fail(self):
        result = self.run_gate([self.row()], [self.row(mismatches=2)])
        self.assertEqual(result.returncode, 1)
        self.assertIn("mismatches", result.stdout)

    def test_counter_regression_fails_and_names_the_row(self):
        bad = self.row()
        bad["voronoi"] = dict(bad["voronoi"], candidates=200)
        result = self.run_gate([self.row()], [bad])
        self.assertEqual(result.returncode, 1)
        self.assertIn("voronoi.candidates", result.stdout)

    def test_micro_flood_shape(self):
        base = [{"data_size": 1000, "query_size_fraction": 0.01,
                 "candidates": 50, "results": 40,
                 "neighbor_expansions": 60, "time_ms": 1.0}]
        good = [dict(base[0], time_ms=1.5)]
        self.assertEqual(self.run_gate(base, good).returncode, 0)
        bad = [dict(base[0], candidates=500)]
        self.assertEqual(self.run_gate(base, bad).returncode, 1)

    def test_backend_key_separates_rows(self):
        # An mmap row must compare against the mmap baseline, not the
        # in-memory one with the same data size.
        mem = self.row(backend="memory")
        mmap_row = self.row(backend="mmap")
        mmap_bad = self.row(backend="mmap")
        mmap_bad["voronoi"] = dict(mmap_bad["voronoi"], candidates=600)
        result = self.run_gate([mem, mmap_row], [mem, mmap_bad])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("backend=mmap", result.stdout)
        self.assertNotIn("backend=memory]", result.stdout)

    def test_legacy_rows_without_backend_match_memory_rows(self):
        # Baselines committed before the backend knob carry no "backend"
        # key; they must keep gating runs that now write the default.
        result = self.run_gate([self.row()], [self.row(backend="memory")])
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("within tolerance", result.stdout)

    def test_fault_counters_zero_passes(self):
        # Explicit zeros in the failure-domain columns are the expected
        # no-fault shape and must pass against any baseline.
        clean = self.row()
        clean["voronoi"] = dict(clean["voronoi"], io_retries=0,
                                pages_quarantined=0)
        result = self.run_gate([self.row()], [clean])
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_fault_counters_nonzero_fail_exactly(self):
        # No drift tolerance: even io_retries=1 in a no-fault perf row
        # means a retry hook fired on the happy path.
        for field in ("io_retries", "pages_quarantined"):
            bad = self.row()
            bad["traditional"] = dict(bad["traditional"], **{field: 1})
            result = self.run_gate([self.row()], [bad])
            self.assertEqual(result.returncode, 1, (field, result.stdout))
            self.assertIn(f"traditional.{field}", result.stdout)
            self.assertIn("no-fault perf row", result.stdout)

    def test_fault_counters_absent_pass(self):
        # Runs produced before the failure-domain fields existed carry no
        # such keys; absence means zero, not a failure.
        result = self.run_gate([self.row()], [self.row()])
        self.assertEqual(result.returncode, 0, result.stdout)


class ClassifyTest(unittest.TestCase):
    def row(self, **overrides):
        row = {
            "bench": "classify", "polygon": "convex16", "arm": "avx2",
            "kind": "convex_half_plane", "kernel_kind": 10, "batch": 4096,
            "points": 1048576, "time_ms": 0.011, "mpoints_per_sec": 370.0,
            "mismatches": 0,
        }
        row.update(overrides)
        return row

    run_gate = RowMatchingTest.run_gate

    def test_identical_rows_pass(self):
        result = self.run_gate([self.row()], [self.row()])
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_any_mismatch_fails(self):
        # A single diverging lane is an exactness-contract violation, not a
        # tolerance question.
        result = self.run_gate([self.row()], [self.row(mismatches=1)])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("exactness", result.stdout)

    def test_kernel_selection_change_fails(self):
        # The convex polygon silently falling back to the generic grid path
        # is a perf regression the time gate might miss on a fast host.
        bad = self.row(kernel_kind=9, kind="grid_residual")
        result = self.run_gate([self.row()], [bad])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("kernel selection changed", result.stdout)

    def test_gross_slowdown_fails(self):
        result = self.run_gate([self.row()], [self.row(time_ms=0.2)])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("time_ms", result.stdout)

    def test_missing_avx2_rows_are_skipped(self):
        # A non-AVX2 host produces only scalar rows; the avx2 baseline rows
        # must not fail the run, they just go uncompared.
        scalar = self.row(arm="scalar", kind="grid_residual", kernel_kind=1)
        result = self.run_gate([scalar, self.row()], [scalar])
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("1 row(s) within tolerance", result.stdout)


class OocScanTest(unittest.TestCase):
    def row(self, **overrides):
        row = {
            "bench": "ooc_scan", "miss_mode": "pread", "points": 500000,
            "page_size": 4096, "cache_pages": 256, "num_pages": 1954,
            "cold_ms": 3.0, "warm_ms": 0.05, "cold_pages_per_sec": 650000.0,
            "warm_pages_per_sec": 39000000.0, "warm_cold_ratio": 60.0,
            "cold_hits": 0, "cold_misses": 1954, "warm_hits": 3908,
            "warm_misses": 0,
        }
        row.update(overrides)
        return row

    run_gate = RowMatchingTest.run_gate

    def test_identical_rows_pass(self):
        result = self.run_gate([self.row()], [self.row()])
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_hit_count_regression_fails(self):
        # Warm touches turning into misses is exactly the cache breaking.
        bad = self.row(warm_hits=0, warm_misses=3908)
        result = self.run_gate([self.row()], [bad])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("warm_hits", result.stdout)

    def test_ratio_floor_fails_collapsed_cache(self):
        bad = self.row(warm_cold_ratio=1.2)
        result = self.run_gate([self.row()], [bad])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("warm/cold ratio", result.stdout)

    def test_ratio_floor_ignores_mmap_copy_mode(self):
        # The floor encodes the syscall-vs-frame-read gap, which only the
        # pread mode exhibits reliably.
        base = self.row(miss_mode="mmap_copy")
        new = self.row(miss_mode="mmap_copy", warm_cold_ratio=1.2)
        result = self.run_gate([base], [new])
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_gross_cold_slowdown_fails(self):
        bad = self.row(cold_ms=30.0)
        result = self.run_gate([self.row()], [bad])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("cold_ms", result.stdout)


class PlannerTest(unittest.TestCase):
    def grid_row(self, **overrides):
        row = {
            "bench": "planner", "cell": "grid", "data_size": 100000,
            "query_size_fraction": 0.08, "backend": "memory",
            "simulated_fetch_ns": 0.0, "reps": 12, "crossover": True,
            "mismatches": 0,
            "auto": {"time_ms": 1.0, "plan_method": 2, "plan_reason": 1,
                     "result_cache_hits": 0.0, "result_cache_misses": 12.0},
            "traditional": {"time_ms": 1.0}, "voronoi": {"time_ms": 2.0},
            "auto_vs_best_static": 1.0, "auto_vs_worst_static": 0.5,
        }
        row.update(overrides)
        return row

    def cache_row(self, **overrides):
        row = {
            "bench": "planner", "cell": "cache", "rounds": 4, "polygons": 8,
            "result_cache_hits": 32, "result_cache_misses": 32,
            "mismatches": 0,
        }
        row.update(overrides)
        return row

    run_gate = RowMatchingTest.run_gate

    def test_identical_rows_pass(self):
        rows = [self.grid_row(), self.cache_row()]
        result = self.run_gate(rows, rows)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("2 row(s) within tolerance", result.stdout)

    def test_dispatches_to_planner_branch_not_tables(self):
        # Planner grid rows carry a "traditional" key, so the tables
        # branch would happily try (and crash on) them — the explicit
        # bench=="planner" dispatch must win. A within-run ratio far
        # beyond --time-tol's reach proves the planner gates ran.
        bad = self.grid_row(auto_vs_best_static=5.0)
        result = self.run_gate([self.grid_row()], [bad])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("picked badly", result.stdout)

    def test_host_speed_shift_passes(self):
        # A uniformly 4x slower host changes every absolute time but no
        # within-run ratio; the planner gates must not care.
        slow = self.grid_row()
        slow["auto"] = dict(slow["auto"], time_ms=4.0)
        slow["traditional"] = {"time_ms": 4.0}
        slow["voronoi"] = {"time_ms": 8.0}
        result = self.run_gate([self.grid_row()], [slow])
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_mismatch_fails(self):
        result = self.run_gate([self.grid_row()],
                               [self.grid_row(mismatches=1)])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("exactness", result.stdout)

    def test_crossover_with_diverged_statics_must_beat_worst(self):
        # best/worst gap here is 2.0x (>= the 1.5x floor) and the row is
        # a crossover cell, so auto losing to the worst static fails.
        bad = self.grid_row(auto_vs_best_static=1.7,
                            auto_vs_worst_static=1.1)
        # Recompute so the implied gap stays >= the floor: 1.7/1.1 ≈ 1.55.
        result = self.run_gate([self.grid_row()], [bad])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("auto lost", result.stdout)

    def test_crossover_within_noise_gap_is_not_gated(self):
        # Statics only 1.2x apart: "worst" is machine noise, the strict
        # gate must stand down even on a crossover cell.
        noisy = self.grid_row(auto_vs_best_static=1.3,
                              auto_vs_worst_static=1.08)
        result = self.run_gate([self.grid_row()], [noisy])
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_non_crossover_cell_skips_worst_static_gate(self):
        flat = self.grid_row(crossover=False, auto_vs_best_static=1.7,
                             auto_vs_worst_static=1.1)
        base = self.grid_row(crossover=False)
        result = self.run_gate([base], [flat])
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_cache_counter_drift_fails_exactly(self):
        # Hits/misses are rounds x polygons by construction; a single
        # stray hit means the invalidation keying broke.
        bad = self.cache_row(result_cache_hits=33)
        result = self.run_gate([self.cache_row()], [bad])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("cache counters drifted", result.stdout)

    def test_cache_mismatch_fails(self):
        bad = self.cache_row(mismatches=1)
        result = self.run_gate([self.cache_row()], [bad])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("wrong result", result.stdout)

    def test_unmatched_grid_cells_are_skipped(self):
        result = self.run_gate([self.grid_row()],
                               [self.grid_row(data_size=999)])
        self.assertEqual(result.returncode, 0)
        self.assertIn("no comparable rows", result.stdout)

    def test_committed_baseline_passes_against_itself(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCH_planner.json")
        if not os.path.exists(path):
            self.skipTest("no committed BENCH_planner.json")
        with open(path) as f:
            rows = json.load(f)
        result = self.run_gate(rows, rows)
        self.assertEqual(result.returncode, 0, result.stdout)


class ServerTest(unittest.TestCase):
    def row(self, **overrides):
        row = {
            "bench": "server", "cell": "uncached", "clients": 4,
            "data_size": 50000, "query_size_fraction": 0.01, "reps": 400,
            "mismatches": 0, "errors": 0, "shed": 0, "wall_ms": 90.0,
            "qps": 18000.0, "latency_p50_ms": 0.2, "latency_p95_ms": 0.4,
            "latency_p99_ms": 0.6,
        }
        row.update(overrides)
        return row

    run_gate = RowMatchingTest.run_gate

    def test_identical_rows_pass(self):
        result = self.run_gate([self.row()], [self.row()])
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_mismatch_fails_exactly(self):
        # Every networked answer is checked against the in-process oracle
        # before timing; a single divergence is a wire-path correctness bug.
        result = self.run_gate([self.row()], [self.row(mismatches=1)])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("exactness", result.stdout)

    def test_error_fails_exactly(self):
        result = self.run_gate([self.row()], [self.row(errors=2)])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("server error", result.stdout)

    def test_shed_fails_exactly(self):
        # The bench sizes the queue so admission control never fires; a
        # shed on an unloaded queue means backpressure triggered wrongly.
        result = self.run_gate([self.row()], [self.row(shed=1)])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("admission", result.stdout)

    def test_qps_within_host_tolerance_passes(self):
        # A 2.5x slower CI host stays inside the default 3x time-tol.
        slow = self.row(qps=18000.0 / 2.5, latency_p99_ms=1.5)
        result = self.run_gate([self.row()], [slow])
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_qps_collapse_fails(self):
        bad = self.row(qps=18000.0 / 4.0)
        result = self.run_gate([self.row()], [bad])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("qps", result.stdout)

    def test_p99_blowup_fails(self):
        bad = self.row(latency_p99_ms=6.0)
        result = self.run_gate([self.row()], [bad])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("latency_p99_ms", result.stdout)

    def test_rows_key_on_cell_and_clients(self):
        # A cached/8-client regression is reported against its own
        # baseline row, never confused with the uncached/4 row.
        cached8 = self.row(cell="cached", clients=8, qps=55000.0)
        cached8_bad = self.row(cell="cached", clients=8, qps=1000.0)
        result = self.run_gate([self.row(), cached8],
                               [self.row(), cached8_bad])
        self.assertEqual(result.returncode, 1, result.stdout)
        self.assertIn("cached/c8", result.stdout)
        self.assertNotIn("uncached/c4", result.stdout)

    def test_quick_subset_skips_unmatched_baseline_rows(self):
        # CI's --quick run may emit fewer client counts than the committed
        # full baseline; the extra baseline rows just go uncompared.
        result = self.run_gate([self.row(), self.row(clients=16)],
                               [self.row()])
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("1 row(s) within tolerance", result.stdout)

    def test_committed_baseline_passes_against_itself(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "BENCH_server.json")
        if not os.path.exists(path):
            self.skipTest("no committed BENCH_server.json")
        with open(path) as f:
            rows = json.load(f)
        result = self.run_gate(rows, rows)
        self.assertEqual(result.returncode, 0, result.stdout)


if __name__ == "__main__":
    unittest.main()
