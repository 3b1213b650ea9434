#ifndef VAQ_DELAUNAY_HILBERT_H_
#define VAQ_DELAUNAY_HILBERT_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/box.h"
#include "geometry/point.h"

namespace vaq {

/// Hilbert space-filling-curve utilities used to order Delaunay insertions
/// (a simple BRIO substitute): inserting spatially coherent points keeps the
/// walk-based point location O(1) amortised.

/// Distance along a Hilbert curve of order `order` (grid of 2^order x
/// 2^order cells) for integer cell coordinates (x, y).
std::uint64_t HilbertD(std::uint32_t order, std::uint32_t x, std::uint32_t y);

/// Curve distance of `p` on the order-16 grid over `domain` — the key
/// `HilbertOrder` sorts by, exposed so callers that partition by curve
/// ranges (the sharding layer) can route points with the exact arithmetic
/// the ordering used. Coordinates outside `domain` are clamped to the
/// border cells, so every point has a key and routing stays total.
std::uint64_t HilbertKeyInBox(const Box& domain, const Point& p);

/// Returns the permutation of `[0, points.size())` that orders `points`
/// along a Hilbert curve over their bounding box (order-16 grid).
std::vector<std::uint32_t> HilbertOrder(std::span<const Point> points);

}  // namespace vaq

#endif  // VAQ_DELAUNAY_HILBERT_H_
