#!/usr/bin/env python3
"""Perf regression guard for the BENCH_*.json trajectories.

Compares a freshly generated bench JSON against the committed baseline and
fails (exit 1) when a comparable row regressed beyond tolerance.

Rows are matched on the experiment knobs (data size, query size fraction,
fetch model, thread count); rows present in only one file — e.g. the full
baseline's sizes that a --quick CI run skips — are ignored, so the
committed baselines can come from full runs while CI smokes the quick
subset.

Two tolerance regimes, because the two quantity classes behave differently
across machines:
  * counters (candidates, geometry loads, redundant validations) are
    deterministic given the seeds and must stay within --counter-tol of
    the baseline (default 35%, covering the rep-count difference between
    quick and full runs of the same seeded query stream);
  * wall-clock times vary with the host, so only a slowdown beyond
    --time-tol x baseline (default 3x) fails — the guard catches
    structural regressions (an O(n) slip, a dropped fast path), not CI
    machine jitter.

Usage: check_bench_regression.py BASELINE NEW [--time-tol X] [--counter-tol F]
"""

import argparse
import json
import sys

KEY_FIELDS = (
    "data_size",
    "query_size_fraction",
    "simulated_fetch_ns",
    "blocking_fetch",
    "num_threads",
    "num_shards",
    "backend",
)
# Knobs added after a baseline was committed default to the value the old
# code implied, so pre-knob baselines keep matching post-knob runs.
KEY_DEFAULTS = {"backend": "memory"}
COUNTER_FIELDS = ("candidates", "geometry_loads", "redundant")
TIME_FIELDS = ("time_ms",)
METHODS = ("traditional", "voronoi")
# Failure-domain counters must be *exactly* zero in the no-fault perf
# rows the benches emit: a nonzero value means a retry/quarantine hook
# fired on the happy path, which is a correctness bug regardless of how
# small the count is (no drift tolerance applies). Absent keys pass, so
# baselines predating the fields keep working.
FAULT_ZERO_FIELDS = ("io_retries", "pages_quarantined")

# Planner gates (BENCH_planner.json). Within-run ratios, not cross-run
# times: the bench already divides the planned path's time by the best
# and worst static method measured in the same process, which cancels
# host speed entirely — so the bound can be much tighter than --time-tol.
# auto picks deterministically from the static cost model, but it pays
# planning overhead and the planned path's stable-id sort and finish,
# which the bare static base pass does not; it must never exceed
# PLANNER_MAX_VS_BEST of the best static choice. The strict "beats the worst static" gate only fires on
# crossover cells where the statics measurably diverged in the current
# run (gap >= PLANNER_MIN_STATIC_GAP): below that gap the two statics
# are within machine noise of each other and "worst" is not meaningful.
PLANNER_MAX_VS_BEST = 1.8
PLANNER_MIN_STATIC_GAP = 1.5

# The pread-mode warm/cold throughput ratio of the out-of-core scan bench
# must stay above this floor: warm hits read a cache frame, cold misses pay
# a syscall, and the gap collapsing means the cache stopped working. The
# measured gap is ~100x; 3x absorbs CI jitter while still catching a
# hit-path regression.
OOC_MIN_WARM_COLD_RATIO = 3.0


def row_key(row):
    return tuple(row.get(k, KEY_DEFAULTS.get(k)) for k in KEY_FIELDS)


def describe(key):
    return ", ".join(f"{k}={v}" for k, v in zip(KEY_FIELDS, key))


def check_micro_flood(baseline, new, time_tol, counter_tol, failures):
    """BENCH_micro_flood.json rows: flat, keyed by query size."""
    base_by_key = {(r["data_size"], r["query_size_fraction"]): r
                   for r in baseline}
    compared = 0
    for row in new:
        key = (row["data_size"], row["query_size_fraction"])
        base = base_by_key.get(key)
        if base is None:
            continue
        compared += 1
        for field in ("candidates", "results", "neighbor_expansions"):
            check_counter(f"flood[{key}].{field}", base[field], row[field],
                          counter_tol, failures)
        check_time(f"flood[{key}].time_ms", base["time_ms"], row["time_ms"],
                   time_tol, failures)
    return compared


def check_classify(baseline, new, time_tol, failures):
    """BENCH_classify.json rows: batch classification kernels, keyed by
    (polygon, arm, batch). The arm is part of the key, so avx2 rows simply
    do not match on hosts whose run produced only scalar rows. Mismatches
    (vector vs scalar verdicts) and kernel-kind selection are exact gates;
    per-batch time gets the usual slowdown tolerance."""
    base_by_key = {(r["polygon"], r["arm"], r["batch"]): r for r in baseline}
    compared = 0
    for row in new:
        key = (row["polygon"], row["arm"], row["batch"])
        base = base_by_key.get(key)
        if base is None:
            continue
        compared += 1
        where = f"classify[{row['polygon']}/{row['arm']}/{row['batch']}]"
        if row.get("mismatches", 0) != 0:
            failures.append(
                f"{where}: {row['mismatches']} vector-vs-scalar verdict "
                f"mismatch(es) — exactness contract broken")
        if row.get("kernel_kind") != base.get("kernel_kind"):
            failures.append(
                f"{where}: kernel_kind {row.get('kernel_kind')} != baseline "
                f"{base.get('kernel_kind')} — kernel selection changed")
        check_time(f"{where}.time_ms", base["time_ms"], row["time_ms"],
                   time_tol, failures)
    return compared


def check_ooc_scan(baseline, new, time_tol, counter_tol, failures):
    """BENCH_ooc.json rows: page-cache scan, keyed by cache geometry."""
    def key(r):
        return (r["miss_mode"], r["points"], r["page_size"], r["cache_pages"])
    base_by_key = {key(r): r for r in baseline}
    compared = 0
    for row in new:
        base = base_by_key.get(key(row))
        if base is None:
            continue
        compared += 1
        where = f"ooc[{row['miss_mode']}]"
        # Hit/miss counts are exact given the scan pattern and geometry.
        for field in ("num_pages", "cold_hits", "cold_misses", "warm_hits",
                      "warm_misses"):
            check_counter(f"{where}.{field}", base[field], row[field],
                          counter_tol, failures)
        for field in ("cold_ms", "warm_ms"):
            check_time(f"{where}.{field}", base[field], row[field], time_tol,
                       failures)
        if (row["miss_mode"] == "pread" and
                row["warm_cold_ratio"] < OOC_MIN_WARM_COLD_RATIO):
            failures.append(
                f"{where}: warm/cold ratio {row['warm_cold_ratio']:.2f} "
                f"below floor {OOC_MIN_WARM_COLD_RATIO:.1f}")
    return compared


def check_planner(baseline, new, failures, max_vs_best=None,
                  min_static_gap=PLANNER_MIN_STATIC_GAP):
    """BENCH_planner.json rows: the planner's acceptance gates.

    Grid rows (keyed by data size, query size, backend) gate on
    *within-run* ratios — auto vs the statics measured in the same
    process — so host speed cancels and the bounds stay tight:
      * mismatches must be 0 (the planned path is differential-exact
        against the traditional method on every repetition);
      * auto_vs_best_static <= max_vs_best;
      * on crossover cells (the winning static flips between backends)
        where the statics measurably diverged in the current run, auto
        must beat the worst static outright — a static method pick is
        wrong on one side of the flip by construction.
    The cache row gates exactly: hit/miss counters are deterministic by
    construction (rounds x polygons each) and must equal the baseline;
    any cached-vs-fresh mismatch is a correctness failure.
    """
    if max_vs_best is None:
        max_vs_best = PLANNER_MAX_VS_BEST

    def grid_key(r):
        return (r["data_size"], r["query_size_fraction"], r["backend"])

    base_grid = {grid_key(r): r for r in baseline if r["cell"] == "grid"}
    base_cache = [r for r in baseline if r["cell"] == "cache"]
    compared = 0
    for row in new:
        if row.get("cell") == "grid":
            if grid_key(row) not in base_grid:
                continue
            compared += 1
            where = "planner[{}/{:g}/{}]".format(*grid_key(row))
            if row.get("mismatches", 0) != 0:
                failures.append(
                    f"{where}: {row['mismatches']} auto-vs-traditional "
                    f"result mismatch(es) — planned path broke exactness")
            ratio = row["auto_vs_best_static"]
            if ratio > max_vs_best:
                failures.append(
                    f"{where}: auto_vs_best_static {ratio:.2f} > bound "
                    f"{max_vs_best:.2f} — the planner picked badly")
            static_gap = (row["auto_vs_best_static"] /
                          row["auto_vs_worst_static"]
                          if row["auto_vs_worst_static"] > 0 else 1.0)
            if (row.get("crossover") and static_gap >= min_static_gap and
                    row["auto_vs_worst_static"] >= 1.0):
                failures.append(
                    f"{where}: crossover cell with a {static_gap:.2f}x "
                    f"static gap but auto_vs_worst_static "
                    f"{row['auto_vs_worst_static']:.2f} >= 1 — auto lost "
                    f"to a method a static pick gets wrong by construction")
        elif row.get("cell") == "cache":
            for base in base_cache:
                compared += 1
                for field in ("result_cache_hits", "result_cache_misses"):
                    if row.get(field) != base.get(field):
                        failures.append(
                            f"planner[cache].{field}: {row.get(field)} != "
                            f"baseline {base.get(field)} — deterministic "
                            f"cache counters drifted")
                if row.get("mismatches", 0) != 0:
                    failures.append(
                        f"planner[cache]: {row['mismatches']} cached-vs-"
                        f"fresh mismatch(es) — cache served a wrong result")
    return compared


def check_server(baseline, new, time_tol, failures):
    """BENCH_server.json rows: loopback TCP QPS, keyed by (cell, clients).

    Exact gates first — they are correctness contracts, not perf:
      * mismatches must be 0 (every networked response is checked against
        the in-process planned query before timing);
      * errors must be 0 (a typed server error during a clean loopback
        bench means the happy path broke);
      * shed must be 0 (the bench sizes the engine queue so admission
        control never fires; a shed here means backpressure triggered on
        an unloaded queue).
    Throughput gates with the usual host-speed tolerance: qps may not
    drop below baseline/time_tol, and the p99 latency gets the standard
    slowdown bound. Rows in only one file (a --quick run's subset) are
    skipped, same as every other bench branch.
    """
    base_by_key = {(r["cell"], r["clients"]): r for r in baseline}
    compared = 0
    for row in new:
        key = (row["cell"], row["clients"])
        base = base_by_key.get(key)
        if base is None:
            continue
        compared += 1
        where = f"server[{row['cell']}/c{row['clients']}]"
        if row.get("mismatches", 0) != 0:
            failures.append(
                f"{where}: {row['mismatches']} networked-vs-oracle result "
                f"mismatch(es) — the wire path broke exactness")
        if row.get("errors", 0) != 0:
            failures.append(
                f"{where}: {row['errors']} typed server error(s) during a "
                f"clean loopback run")
        if row.get("shed", 0) != 0:
            failures.append(
                f"{where}: {row['shed']} request(s) shed — admission "
                f"control fired on an unloaded queue")
        if base["qps"] > 0.0 and row["qps"] < base["qps"] / time_tol:
            failures.append(
                f"{where}: qps {row['qps']:.0f} vs baseline "
                f"{base['qps']:.0f} (> {time_tol:.1f}x slower)")
        check_time(f"{where}.latency_p99_ms", base["latency_p99_ms"],
                   row["latency_p99_ms"], time_tol, failures)
    return compared


def check_counter(label, base, new, tol, failures, abs_floor=4.0):
    """Relative-drift gate with a sane zero-baseline regime.

    A zero baseline makes relative drift undefined (the old code divided
    by an epsilon, reporting absurd "5e14%" drifts for any nonzero new
    value), so zero baselines gate on an absolute floor instead: small
    absolute counts appearing where the baseline had none (a new stats
    field, a prune counter that was 0 on this row) pass; a counter class
    materialising out of nowhere fails.
    """
    if base == new:
        return
    if base == 0:
        if abs(new) > abs_floor:
            failures.append(
                f"{label}: baseline 0 but new value {new} "
                f"(> absolute floor {abs_floor:g})")
        return
    drift = abs(new - base) / abs(base)
    if drift > tol:
        failures.append(
            f"{label}: counter drifted {drift * 100.0:.1f}% "
            f"(baseline {base}, new {new}, tol {tol * 100.0:.0f}%)")


def check_time(label, base, new, tol, failures):
    if base <= 0.0:
        return
    if new > base * tol:
        failures.append(
            f"{label}: {new:.4f} ms vs baseline {base:.4f} ms "
            f"(> {tol:.1f}x slower)")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument("--time-tol", type=float, default=3.0)
    parser.add_argument("--counter-tol", type=float, default=0.35)
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.new) as f:
        new = json.load(f)

    failures = []
    if baseline and baseline[0].get("bench") == "classify":
        compared = check_classify(baseline, new, args.time_tol, failures)
    elif baseline and baseline[0].get("bench") == "ooc_scan":
        compared = check_ooc_scan(baseline, new, args.time_tol,
                                  args.counter_tol, failures)
    elif baseline and baseline[0].get("bench") == "server":
        compared = check_server(baseline, new, args.time_tol, failures)
    elif baseline and baseline[0].get("bench") == "planner":
        # Must dispatch before the micro-flood heuristic: planner grid
        # rows do carry a "traditional" key, but their gates are
        # within-run ratios, not cross-run times.
        compared = check_planner(baseline, new, failures)
    elif baseline and "traditional" not in baseline[0]:
        compared = check_micro_flood(baseline, new, args.time_tol,
                                     args.counter_tol, failures)
    else:
        base_by_key = {row_key(r): r for r in baseline}
        compared = 0
        for row in new:
            base = base_by_key.get(row_key(row))
            if base is None:
                continue
            compared += 1
            where = describe(row_key(row))
            for method in METHODS:
                for field in COUNTER_FIELDS:
                    check_counter(f"[{where}] {method}.{field}",
                                  base[method][field], row[method][field],
                                  args.counter_tol, failures)
                for field in TIME_FIELDS:
                    check_time(f"[{where}] {method}.{field}",
                               base[method][field], row[method][field],
                               args.time_tol, failures)
                for field in FAULT_ZERO_FIELDS:
                    value = row[method].get(field, 0)
                    if value != 0:
                        failures.append(
                            f"[{where}] {method}.{field}: {value} != 0 — "
                            f"fault-path hook fired in a no-fault perf row")
            if row.get("mismatches", 0) != 0:
                failures.append(f"[{where}] result-set mismatches: "
                                f"{row['mismatches']}")

    name = args.baseline
    if compared == 0:
        print(f"{name}: no comparable rows (different knob grid) - skipped")
        return 0
    if failures:
        print(f"{name}: {len(failures)} regression(s) over {compared} "
              f"compared row(s):")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    print(f"{name}: OK ({compared} row(s) within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
