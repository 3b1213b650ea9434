#ifndef VAQ_WORKLOAD_CHURN_H_
#define VAQ_WORKLOAD_CHURN_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>

namespace vaq {

/// The dynamic-update experiment: an interleaved stream of inserts,
/// deletes and area queries against a `DynamicPointDatabase`, the first
/// genuinely online workload of the library (every prior experiment
/// queries a frozen database). Each query runs all three dynamic methods
/// and cross-checks that they agree; optionally, every `verify_every`-th
/// operation rebuilds an immutable `PointDatabase` from the current live
/// set and compares each method's result sets against brute force on the
/// rebuild — the from-scratch ground truth across however many
/// compactions the stream has triggered.
struct ChurnConfig {
  std::size_t initial_size = 20000;
  /// Total operations in the stream (mutations + queries).
  std::size_t operations = 20000;
  /// Operation mix; the remainder after inserts and erases is queries.
  double insert_fraction = 0.40;
  double erase_fraction = 0.30;
  /// Query-polygon knobs (as in the paper's experiments).
  double query_size_fraction = 0.04;
  int polygon_vertices = 10;
  std::uint64_t seed = 42;
  /// 0 = never verify against a from-scratch rebuild.
  std::size_t verify_every = 0;
  /// Forwarded to `DynamicPointDatabase::Options`.
  std::size_t compact_threshold = 0;
  bool auto_compact = true;
};

struct ChurnReport {
  std::size_t inserts = 0;
  std::size_t erases = 0;
  std::size_t queries = 0;
  /// Inserts rejected because an equal point was live (the distinctness
  /// invariant at work; astronomically rare with random doubles).
  std::size_t rejected_duplicates = 0;
  std::uint64_t compactions = 0;
  std::size_t verifications = 0;
  /// Result-set disagreements: any dynamic method vs. any other on a
  /// query, or vs. brute force on the from-scratch rebuild at a
  /// verification point. 0 on a correct build.
  std::size_t mismatches = 0;
  std::size_t final_size = 0;
  double mutate_ms = 0.0;
  double query_ms = 0.0;
  double verify_ms = 0.0;
};

/// Runs the churn stream. Deterministic given the config.
ChurnReport RunChurnExperiment(const ChurnConfig& config);

/// One-line human-readable summary (ops mix, rates, compactions,
/// mismatches).
void PrintChurnReport(const ChurnConfig& config, const ChurnReport& report,
                      std::ostream& os);

}  // namespace vaq

#endif  // VAQ_WORKLOAD_CHURN_H_
