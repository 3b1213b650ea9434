#include "delaunay/hilbert.h"

#include <algorithm>
#include <array>
#include <utility>

namespace vaq {

namespace {

// The curve as a 4-state machine. The state is the transform the levels
// above have applied to the cell coordinates — bit 0 swaps x and y, bit 1
// complements both — and the two transforms commute. At each level the
// transformed bits (rx, ry) pick the quadrant digit (3 * rx) ^ ry; a
// lower-half quadrant (ry == 0) swaps the coordinates, complementing them
// too when rx == 1. Entry [state][x bit][y bit] packs digit << 2 | next.
constexpr std::array<std::uint8_t, 16> MakeHilbertTable() {
  std::array<std::uint8_t, 16> table{};
  for (unsigned state = 0; state < 4; ++state) {
    for (unsigned bits = 0; bits < 4; ++bits) {
      unsigned rx = bits >> 1;
      unsigned ry = bits & 1;
      if (state & 2) {
        rx ^= 1;
        ry ^= 1;
      }
      if (state & 1) std::swap(rx, ry);
      const unsigned digit = (3 * rx) ^ ry;
      const unsigned next = ry != 0 ? state : state ^ (1 | (rx << 1));
      table[state << 2 | bits] = static_cast<std::uint8_t>(digit << 2 | next);
    }
  }
  return table;
}

constexpr std::array<std::uint8_t, 16> kHilbertTable = MakeHilbertTable();

}  // namespace

std::uint64_t HilbertD(std::uint32_t order, std::uint32_t x, std::uint32_t y) {
  std::uint64_t d = 0;
  unsigned state = 0;
  for (std::uint32_t level = order; level-- > 0;) {
    const unsigned bits = ((x >> level) & 1) << 1 | ((y >> level) & 1);
    const std::uint8_t entry = kHilbertTable[state << 2 | bits];
    d = d << 2 | (entry >> 2);
    state = entry & 3;
  }
  return d;
}

std::uint64_t HilbertKeyInBox(const Box& domain, const Point& p) {
  constexpr std::uint32_t kOrder = 16;
  constexpr double kCells = 65535.0;  // 2^16 - 1.
  const double w = std::max(domain.Width(), 1e-300);
  const double h = std::max(domain.Height(), 1e-300);
  const double fx = std::clamp((p.x - domain.min.x) / w, 0.0, 1.0);
  const double fy = std::clamp((p.y - domain.min.y) / h, 0.0, 1.0);
  return HilbertD(kOrder, static_cast<std::uint32_t>(fx * kCells),
                  static_cast<std::uint32_t>(fy * kCells));
}

std::vector<std::uint32_t> HilbertOrder(std::span<const Point> points) {
  Box bounds;
  for (const Point& p : points) bounds.ExpandToInclude(p);

  // Sorting contiguous (key, index) records keeps the comparisons in
  // cache; ties on the key break on the index.
  struct KeyedIndex {
    std::uint64_t key;
    std::uint32_t index;
  };
  std::vector<KeyedIndex> keyed(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    keyed[i] = {HilbertKeyInBox(bounds, points[i]),
                static_cast<std::uint32_t>(i)};
  }
  std::sort(keyed.begin(), keyed.end(),
            [](const KeyedIndex& a, const KeyedIndex& b) {
              return a.key < b.key || (a.key == b.key && a.index < b.index);
            });
  std::vector<std::uint32_t> order(points.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = keyed[i].index;
  return order;
}

}  // namespace vaq
