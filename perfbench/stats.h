// The benchmark's own arithmetic: nearest-rank percentiles that refuse
// thin tails, span self time, metric names and the result line.
// Header-only so the self-test binary checks exactly what the benchmark
// runs.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Samples a percentile must leave above its rank before it is reported:
/// p99 needs at least 1000 samples, p50 at least 20.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank `pct`-th percentile of ascending `sorted`: the sample at
/// 1-based rank ceil(pct * n / 100). Returns nullopt when fewer than
/// `min_beyond` samples lie above that rank — a tail that thin is one
/// sample's noise, not a percentile.
inline std::optional<double> NearestRank(std::span<const double> sorted,
                                         int pct,
                                         std::size_t min_beyond =
                                             kMinSamplesBeyond) {
  const std::size_t n = sorted.size();
  if (n == 0 || pct <= 0 || pct > 100) return std::nullopt;
  const std::size_t rank = (static_cast<std::size_t>(pct) * n + 99) / 100;
  if (n - rank < min_beyond) return std::nullopt;
  return sorted[rank - 1];
}

/// Sorts `samples` and returns its nearest-rank percentile (see above).
inline std::optional<double> Percentile(std::vector<double> samples, int pct) {
  std::sort(samples.begin(), samples.end());
  return NearestRank(samples, pct);
}

/// Median over `slices` equal time slices of [start_ns, end_ns) of a
/// per-slice statistic. Sample i completed at `t_ns[i]` with `values[i]`;
/// `stat(samples, slice_seconds)` returns nullopt to refuse a slice, and
/// then the whole result is refused. The median slice ignores a phase in
/// which the host ran slow for less than half the window, where a
/// statistic of the pooled window would move with it.
template <typename Stat>
std::optional<double> SliceMedian(std::span<const std::int64_t> t_ns,
                                  std::span<const double> values,
                                  std::int64_t start_ns, std::int64_t end_ns,
                                  int slices, Stat&& stat) {
  if (slices <= 0 || end_ns <= start_ns || t_ns.size() != values.size()) {
    return std::nullopt;
  }
  const double width = static_cast<double>(end_ns - start_ns) / slices;
  std::vector<std::vector<double>> per(static_cast<std::size_t>(slices));
  for (std::size_t i = 0; i < t_ns.size(); ++i) {
    if (t_ns[i] < start_ns || t_ns[i] >= end_ns) continue;
    const auto k = static_cast<std::size_t>((t_ns[i] - start_ns) / width);
    per[std::min(k, per.size() - 1)].push_back(values[i]);
  }
  std::vector<double> results;
  for (std::vector<double>& samples : per) {
    const std::optional<double> r = stat(std::move(samples), width * 1e-9);
    if (!r) return std::nullopt;
    results.push_back(*r);
  }
  std::sort(results.begin(), results.end());
  return NearestRank(results, 50, 0);
}

/// One timed interval of the benchmark's own calls into a layer. Spans of
/// one request share `request`; `parent` is the causing span's id (0 for a
/// root). Times are steady-clock nanoseconds.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Duration of `parent` minus the part of its interval that `children`
/// cover. Children are clipped to the parent's interval and overlapping
/// children are counted once (their union is subtracted, not their sum).
inline std::int64_t SelfTimeNs(const Span& parent,
                               std::span<const Span> children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  cover.reserve(children.size());
  for (const Span& c : children) {
    const std::int64_t a = std::max(c.start_ns, parent.start_ns);
    const std::int64_t b = std::min(c.end_ns, parent.end_ns);
    if (a < b) cover.emplace_back(a, b);
  }
  std::sort(cover.begin(), cover.end());
  std::int64_t covered = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  bool open = false;
  for (const auto& [a, b] : cover) {
    if (open && a <= run_end) {
      run_end = std::max(run_end, b);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = a;
    run_end = b;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return (parent.end_ns - parent.start_ns) - covered;
}

/// Self time of every span in `spans` (any order), indexed like `spans`.
inline std::vector<std::int64_t> SelfTimes(std::span<const Span> spans) {
  std::unordered_map<std::uint64_t, std::vector<Span>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = children.find(spans[i].id);
    self[i] = it == children.end() ? spans[i].end_ns - spans[i].start_ns
                                   : SelfTimeNs(spans[i], it->second);
  }
  return self;
}

/// Metric names: `[A-Za-z0-9_.-]+`, starting with a letter or digit, at
/// most 64 characters.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  const char c = name.front();
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

/// The metrics of one result line, in insertion order.
class MetricSet {
 public:
  /// Records `name`; false (and nothing recorded) when the name breaks
  /// the grammar, is already used, or the value is not finite.
  bool Add(std::string_view name, double value, std::string_view unit) {
    if (!ValidMetricName(name) || !std::isfinite(value)) return false;
    for (const Entry& e : entries_) {
      if (e.name == name) return false;
    }
    entries_.push_back({std::string(name), value, std::string(unit)});
    return true;
  }

  bool Has(std::string_view name) const {
    for (const Entry& e : entries_) {
      if (e.name == name) return true;
    }
    return false;
  }

  /// `{"name": {"value": v, "unit": "u"}, ...}` with round-trip digits.
  std::string ToJson() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
      out += (i == 0 ? "\"" : ", \"") + entries_[i].name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + entries_[i].unit +
             "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
