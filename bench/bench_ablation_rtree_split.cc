// Ablation: R-tree node-split strategy (quadratic vs linear) and bulk load
// (Hilbert packing) vs dynamic insertion. Reports build time and
// window-query node accesses — the classic quality-vs-build-cost trade-off
// of Guttman's two split algorithms, plus how much bulk loading beats both.

#include <chrono>
#include <iomanip>
#include <iostream>

#include "index/rtree.h"
#include "workload/point_generator.h"
#include "workload/rng.h"

namespace {

using namespace vaq;

double QueryNodeAccesses(RTree& tree, int reps) {
  Rng rng(5);
  IndexStats stats;
  std::vector<PointId> out;
  for (int i = 0; i < reps; ++i) {
    const double x = rng.Uniform(0.0, 0.9);
    const double y = rng.Uniform(0.0, 0.9);
    out.clear();
    tree.WindowQuery(Box::FromExtents(x, y, x + 0.1, y + 0.1), &out, &stats);
  }
  return static_cast<double>(stats.node_accesses) / reps;
}

}  // namespace

int main() {
  constexpr Box kUnit{{0.0, 0.0}, {1.0, 1.0}};
  constexpr std::size_t kN = 200000;
  constexpr int kQueryReps = 200;

  Rng rng(1);
  const auto points = GenerateUniformPoints(kN, kUnit, &rng);

  std::cout << "=== R-tree construction ablation (2E5 points, 10% windows, "
            << kQueryReps << " query reps) ===\n";
  std::cout << std::left << std::setw(26) << "variant" << std::right
            << std::setw(14) << "build ms" << std::setw(16) << "height"
            << std::setw(18) << "nodes/query" << "\n";

  struct Case {
    const char* name;
    RTree::SplitStrategy split;
    bool bulk;
  };
  const Case cases[] = {
      {"Hilbert bulk load", RTree::SplitStrategy::kQuadratic, true},
      {"insert + quadratic split", RTree::SplitStrategy::kQuadratic, false},
      {"insert + linear split", RTree::SplitStrategy::kLinear, false},
  };
  for (const Case& c : cases) {
    RTree tree(16, 6, c.split);
    const auto t0 = std::chrono::steady_clock::now();
    if (c.bulk) {
      tree.Build(points);
    } else {
      tree.Build({});
      for (std::size_t i = 0; i < points.size(); ++i) {
        tree.Insert(points[i], static_cast<PointId>(i));
      }
    }
    const double build_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    std::cout << std::left << std::setw(26) << c.name << std::right
              << std::fixed << std::setprecision(1) << std::setw(14)
              << build_ms << std::setw(16) << tree.Height() << std::setw(18)
              << std::setprecision(2) << QueryNodeAccesses(tree, kQueryReps)
              << "\n";
  }
  return 0;
}
