#include "delaunay/hilbert.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace vaq {
namespace {

// The textbook bit loop (one quadrant rotation per level): the oracle for
// the table-driven `HilbertD`.
std::uint64_t HilbertDBitLoop(std::uint32_t order, std::uint32_t x,
                              std::uint32_t y) {
  std::uint64_t rx, ry, d = 0;
  for (std::uint64_t s = 1ULL << (order - 1); s > 0; s >>= 1) {
    rx = (x & s) > 0 ? 1 : 0;
    ry = (y & s) > 0 ? 1 : 0;
    d += s * s * ((3 * rx) ^ ry);
    if (ry == 0) {
      if (rx == 1) {
        x = static_cast<std::uint32_t>(s - 1 - x);
        y = static_cast<std::uint32_t>(s - 1 - y);
      }
      std::swap(x, y);
    }
  }
  return d;
}

TEST(HilbertTest, TableKeyMatchesBitLoop) {
  for (std::uint32_t order = 1; order <= 8; ++order) {
    const std::uint32_t side = 1u << order;
    for (std::uint32_t x = 0; x < side; ++x) {
      for (std::uint32_t y = 0; y < side; ++y) {
        ASSERT_EQ(HilbertD(order, x, y), HilbertDBitLoop(order, x, y))
            << "order " << order << " cell (" << x << ", " << y << ")";
      }
    }
  }
  std::uint64_t state = 0x2545F4914F6CDD1DULL;
  for (int i = 0; i < 1000000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const auto x = static_cast<std::uint32_t>(state & 0xFFFF);
    const auto y = static_cast<std::uint32_t>((state >> 16) & 0xFFFF);
    ASSERT_EQ(HilbertD(16, x, y), HilbertDBitLoop(16, x, y))
        << "order 16 cell (" << x << ", " << y << ")";
  }
}

TEST(HilbertTest, Order1IsTheBasicUShape) {
  // 2x2 curve visits (0,0) -> (0,1) -> (1,1) -> (1,0).
  EXPECT_EQ(HilbertD(1, 0, 0), 0u);
  EXPECT_EQ(HilbertD(1, 0, 1), 1u);
  EXPECT_EQ(HilbertD(1, 1, 1), 2u);
  EXPECT_EQ(HilbertD(1, 1, 0), 3u);
}

TEST(HilbertTest, BijectiveOnSmallGrid) {
  std::set<std::uint64_t> seen;
  for (std::uint32_t x = 0; x < 16; ++x) {
    for (std::uint32_t y = 0; y < 16; ++y) {
      EXPECT_TRUE(seen.insert(HilbertD(4, x, y)).second);
    }
  }
  EXPECT_EQ(seen.size(), 256u);
  EXPECT_EQ(*seen.rbegin(), 255u);  // Dense range [0, 255].
}

TEST(HilbertTest, ConsecutiveIndicesAreGridNeighbors) {
  // The defining locality property of the curve.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> by_index(64);
  for (std::uint32_t x = 0; x < 8; ++x) {
    for (std::uint32_t y = 0; y < 8; ++y) {
      by_index[HilbertD(3, x, y)] = {x, y};
    }
  }
  for (std::size_t i = 1; i < by_index.size(); ++i) {
    const auto [x0, y0] = by_index[i - 1];
    const auto [x1, y1] = by_index[i];
    const int manhattan = std::abs(static_cast<int>(x0) - static_cast<int>(x1)) +
                          std::abs(static_cast<int>(y0) - static_cast<int>(y1));
    EXPECT_EQ(manhattan, 1) << "jump at index " << i;
  }
}

TEST(HilbertOrderTest, PermutationOfAllIndices) {
  std::vector<Point> points;
  for (int i = 0; i < 100; ++i) {
    points.push_back({i * 0.37 - std::floor(i * 0.37), i * 0.71 - std::floor(i * 0.71)});
  }
  const auto order = HilbertOrder(points);
  ASSERT_EQ(order.size(), points.size());
  std::set<std::uint32_t> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), points.size());
}

TEST(HilbertOrderTest, SpatialLocalityBeatsRandomOrder) {
  // Total tour length along the Hilbert order should be far below the
  // identity (effectively random) order for scattered points.
  std::vector<Point> points;
  std::uint64_t state = 88172645463325252ULL;
  auto next = [&] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<double>(state % 1000000) / 1000000.0;
  };
  for (int i = 0; i < 2000; ++i) points.push_back({next(), next()});
  const auto order = HilbertOrder(points);
  double hilbert_tour = 0.0, identity_tour = 0.0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    hilbert_tour += Distance(points[order[i - 1]], points[order[i]]);
    identity_tour += Distance(points[i - 1], points[i]);
  }
  EXPECT_LT(hilbert_tour, identity_tour * 0.25);
}

TEST(HilbertOrderTest, EmptyAndSingle) {
  EXPECT_TRUE(HilbertOrder({}).empty());
  EXPECT_EQ(HilbertOrder(std::vector<Point>{{0.5, 0.5}}).size(), 1u);
}

TEST(HilbertOrderTest, DegenerateCollinearInput) {
  std::vector<Point> points;
  for (int i = 0; i < 50; ++i) points.push_back({i * 1.0, 3.0});
  const auto order = HilbertOrder(points);
  EXPECT_EQ(order.size(), 50u);
  std::set<std::uint32_t> unique(order.begin(), order.end());
  EXPECT_EQ(unique.size(), 50u);
}

}  // namespace
}  // namespace vaq
