// Self-tests of the benchmark's arithmetic (stats.h). Exits non-zero on
// the first failed check; `run.py` refuses to measure when it does.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestPercentiles() {
  using perfbench::NearestRank;
  const std::vector<double> hundred = OneTo(100);
  Check(NearestRank(hundred, 50) == 50.0, "p50 of 1..100 is 50");
  Check(NearestRank(hundred, 90) == 90.0, "p90 of 1..100 is 90");
  Check(!NearestRank(hundred, 99), "p99 of 100 samples is refused");
  Check(!NearestRank(hundred, 91), "p91 leaves 9 beyond: refused");

  const std::vector<double> thousand = OneTo(1000);
  Check(NearestRank(thousand, 99) == 990.0, "p99 of 1..1000 is 990");
  Check(!NearestRank(OneTo(999), 99), "p99 of 999 samples is refused");
  Check(NearestRank(OneTo(1001), 99) == 991.0, "p99 of 1..1001 is 991");

  Check(NearestRank(OneTo(20), 50) == 10.0, "p50 of 20 samples");
  Check(!NearestRank(OneTo(19), 50), "p50 of 19 samples is refused");
  Check(!NearestRank(std::vector<double>{}, 50), "empty is refused");
  Check(NearestRank(OneTo(5), 50, 0) == 3.0, "p50 of 1..5, no tail rule");

  std::vector<double> shuffled = {5, 3, 9, 1, 7, 2, 8, 4, 6, 10,
                                  15, 13, 19, 11, 17, 12, 18, 14, 16, 20};
  Check(perfbench::Percentile(shuffled, 50) == 10.0, "Percentile sorts");
}

void TestSliceMedian() {
  using perfbench::SliceMedian;
  // 100 samples over [0, 1000): slice k holds 10 samples of value k, and
  // the stat is the slice's mean, so the slice results are 0..9.
  std::vector<std::int64_t> t;
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) {
    t.push_back(i * 10);
    v.push_back(i / 10);
  }
  auto mean = [](std::vector<double> s, double) -> std::optional<double> {
    double sum = 0.0;
    for (const double x : s) sum += x;
    if (s.empty()) return std::nullopt;
    return sum / s.size();
  };
  Check(SliceMedian(t, v, 0, 1000, 10, mean) == 4.0,
        "median of ten slice means is the 5th");
  Check(SliceMedian(t, v, 0, 1000, 5, mean) == 4.5, "five slices of two");

  // One slow slice among ten moves the median not at all.
  std::vector<double> slow = v;
  for (int i = 90; i < 100; ++i) slow[i] = 1000.0;
  Check(SliceMedian(t, slow, 0, 1000, 10, mean) == 4.0,
        "an outlier slice does not move the median");

  auto rate = [](std::vector<double> s, double seconds) {
    return std::optional<double>(s.size() / seconds);
  };
  const std::optional<double> per_second =
      SliceMedian(t, v, 0, 1000, 10, rate);
  Check(per_second && std::abs(*per_second - 1e8) < 1.0, "per-slice rate");
  Check(!SliceMedian(t, v, 0, 2000, 10, mean), "an empty slice is refused");
  Check(!SliceMedian(t, v, 0, 1000, 0, mean), "zero slices are refused");
  Check(SliceMedian(t, v, 500, 1000, 5, mean) == 7.0,
        "samples outside the window are ignored");
}

perfbench::Span MakeSpan(std::uint64_t id, std::uint64_t parent,
                         std::int64_t start, std::int64_t end) {
  perfbench::Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

void TestSelfTime() {
  using perfbench::SelfTimeNs;
  const perfbench::Span root = MakeSpan(1, 0, 0, 100);
  Check(SelfTimeNs(root, {}) == 100, "no children: self = duration");

  const std::vector<perfbench::Span> disjoint = {MakeSpan(2, 1, 10, 20),
                                                 MakeSpan(3, 1, 30, 50)};
  Check(SelfTimeNs(root, disjoint) == 70, "disjoint children subtract");

  const std::vector<perfbench::Span> overlapping = {MakeSpan(2, 1, 10, 40),
                                                    MakeSpan(3, 1, 30, 60)};
  Check(SelfTimeNs(root, overlapping) == 50, "overlap counted once");

  const std::vector<perfbench::Span> nested = {MakeSpan(2, 1, 10, 60),
                                               MakeSpan(3, 1, 20, 30)};
  Check(SelfTimeNs(root, nested) == 50, "contained child counted once");

  const std::vector<perfbench::Span> touching = {MakeSpan(2, 1, 10, 20),
                                                 MakeSpan(3, 1, 20, 30)};
  Check(SelfTimeNs(root, touching) == 80, "touching children");

  const std::vector<perfbench::Span> outside = {MakeSpan(2, 1, -50, 10),
                                                MakeSpan(3, 1, 90, 150)};
  Check(SelfTimeNs(root, outside) == 80, "children clipped to parent");

  const std::vector<perfbench::Span> tree = {
      MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 40), MakeSpan(3, 1, 30, 60),
      MakeSpan(4, 2, 15, 25)};
  const std::vector<std::int64_t> self = perfbench::SelfTimes(tree);
  Check(self[0] == 50 && self[1] == 20 && self[2] == 30 && self[3] == 10,
        "SelfTimes over a tree");
}

void TestMetricNames() {
  using perfbench::ValidMetricName;
  Check(ValidMetricName("query_p50_us"), "plain name");
  Check(ValidMetricName("planner.share.grid_sweep"), "dotted name");
  Check(ValidMetricName("a-b.c_9"), "dash and digits");
  Check(ValidMetricName("9lives"), "leading digit");
  Check(!ValidMetricName(""), "empty name");
  Check(!ValidMetricName("query p50"), "space");
  Check(!ValidMetricName("lat/us"), "slash");
  Check(!ValidMetricName("µs"), "non-ASCII");
  Check(!ValidMetricName(".hidden"), "leading dot");
  Check(!ValidMetricName(std::string(65, 'a')), "65 characters");
  Check(ValidMetricName(std::string(64, 'a')), "64 characters");

  perfbench::MetricSet m;
  Check(m.Add("x.y", 1.5, "us"), "add metric");
  Check(!m.Add("x.y", 2.0, "us"), "duplicate refused");
  Check(!m.Add("bad name", 1.0, "us"), "bad name refused");
  Check(!m.Add("nan", std::nan(""), "us"), "non-finite refused");
  Check(m.ToJson() == "{\"x.y\": {\"value\": 1.5, \"unit\": \"us\"}}",
        "json shape");
}

}  // namespace

int main() {
  TestPercentiles();
  TestSliceMedian();
  TestSelfTime();
  TestMetricNames();
  if (failures != 0) return 1;
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}
