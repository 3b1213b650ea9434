#ifndef VAQ_TESTS_PINNED_INPUTS_H_
#define VAQ_TESTS_PINNED_INPUTS_H_

// Point sets and a digest for tests that pin the *exact* output of the
// base build (triangle ids, CSR neighbour order, Hilbert permutation).
// Everything here is integer arithmetic plus exact integer-to-double
// conversions and power-of-two scalings, so the inputs — and therefore
// the digests — are bit-identical on every compiler, standard library and
// build type. (The library's `Rng` distributions are implementation-
// defined and would not be.)

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "geometry/point.h"

namespace vaq::pinned {

/// 64-bit FNV-1a over 32-bit words (little-endian byte order).
class Fnv1a {
 public:
  void Add(std::uint32_t word) {
    for (int i = 0; i < 4; ++i) {
      hash_ ^= (word >> (8 * i)) & 0xFFu;
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// SplitMix64: a tiny seeded generator with a fixed, portable output.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Appends `p` unless it is already in `seen`.
inline void PushDistinct(const Point& p,
                         std::unordered_set<Point, PointHash>* seen,
                         std::vector<Point>* out) {
  if (seen->insert(p).second) out->push_back(p);
}

/// `n` distinct points with 53-bit uniform coordinates in [0, 1).
inline std::vector<Point> UniformPoints(std::size_t n, std::uint64_t seed) {
  SplitMix64 g(seed);
  std::unordered_set<Point, PointHash> seen;
  std::vector<Point> out;
  while (out.size() < n) {
    const double x = static_cast<double>(g.Next() >> 11) * 0x1p-53;
    const double y = static_cast<double>(g.Next() >> 11) * 0x1p-53;
    PushDistinct({x, y}, &seen, &out);
  }
  return out;
}

/// `n` distinct points in 16 clusters on the 2^-20 lattice of [0, 1):
/// dense blobs full of collinear and cocircular quadruples.
inline std::vector<Point> ClusteredPoints(std::size_t n, std::uint64_t seed) {
  constexpr std::int64_t kSide = std::int64_t{1} << 20;
  SplitMix64 g(seed);
  std::int64_t centres[16][2];
  for (auto& c : centres) {
    c[0] = static_cast<std::int64_t>(g.Next() % kSide);
    c[1] = static_cast<std::int64_t>(g.Next() % kSide);
  }
  // Sum of four uniform offsets: a bell-shaped spread of ~2^12 cells.
  const auto offset = [&g] {
    std::int64_t sum = 0;
    for (int i = 0; i < 4; ++i) {
      sum += static_cast<std::int64_t>(g.Next() % 8192) - 4096;
    }
    return sum;
  };
  const auto clamp = [](std::int64_t v) {
    return v < 0 ? 0 : (v >= kSide ? kSide - 1 : v);
  };
  std::unordered_set<Point, PointHash> seen;
  std::vector<Point> out;
  while (out.size() < n) {
    const auto& c = centres[g.Next() % 16];
    const double x = static_cast<double>(clamp(c[0] + offset())) * 0x1p-20;
    const double y = static_cast<double>(clamp(c[1] + offset())) * 0x1p-20;
    PushDistinct({x, y}, &seen, &out);
  }
  return out;
}

/// The `side` x `side` integer grid, row-major.
inline std::vector<Point> GridPoints(int side) {
  std::vector<Point> out;
  out.reserve(static_cast<std::size_t>(side) * side);
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      out.push_back({static_cast<double>(x), static_cast<double>(y)});
    }
  }
  return out;
}

}  // namespace vaq::pinned

#endif  // VAQ_TESTS_PINNED_INPUTS_H_
