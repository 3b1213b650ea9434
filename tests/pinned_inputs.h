#ifndef VAQ_TESTS_PINNED_INPUTS_H_
#define VAQ_TESTS_PINNED_INPUTS_H_

// Point sets and a digest for tests that pin the *exact* output of the
// base build (triangle ids, CSR neighbour order, Hilbert permutation),
// and the query polygon that pins the exactness of the served paths.
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

/// A simple 36-vertex star of nine ~0.005-wide spikes. Over
/// `GenerateUniformPoints(2000, unit square, Rng(2000))` (what `vaq_server
/// --points 2000 --seed 2000` serves) it holds 21 points, and the paper's
/// segment rule returns none of them: the seed, the nearest site to the
/// star's interior point, lies outside the star with no Delaunay edge
/// crossing a spike. The vertices are the full-precision text: rounding
/// them hides the miss.
inline constexpr const char* kThinSpikeStarWkt =
    "POLYGON ((0.68896177615586496 0.46135927480470768, "
    "0.86811906778459647 0.46135927480470768, "
    "0.86811906778459647 0.46650164168540414, "
    "0.68896177615586496 0.46650164168540414, "
    "0.6849778759673425 0.47744731749473079, "
    "0.8222203236637784 0.59260740473867723, "
    "0.81891487394840423 0.59654668631211394, "
    "0.68167242625196833 0.48138659906816739, "
    "0.67158483686072912 0.4872106715186737, "
    "0.70269517406780124 0.66364616132331755, "
    "0.6976309312948582 0.6645391239610452, "
    "0.66652059408778608 0.48810363415640146, "
    "0.65504941068105926 0.48608095502114024, "
    "0.56547076486669356 0.64123572084483882, "
    "0.56101734451243057 0.6386645374044907, "
    "0.65059599032679627 0.483509771580792, "
    "0.64310870710859191 0.47458677490672657, "
    "0.474755922205084 0.53586217746742393, "
    "0.47299712914751502 0.53102993325625958, "
    "0.64134991405102304 0.46975453069556222, "
    "0.64134991405102304 0.4581063857945496, "
    "0.47299712914751502 0.39683098323385224, "
    "0.474755922205084 0.39199873902268789, "
    "0.64310870710859191 0.45327414158338525, "
    "0.65059599032679638 0.44435114490931982, "
    "0.56101734451243057 0.28919637908562129, "
    "0.56547076486669334 0.28662519564527306, "
    "0.65504941068105915 0.44177996146897158, "
    "0.66652059408778608 0.43975728233371036, "
    "0.69763093129485809 0.26332179252906646, "
    "0.70269517406780113 0.26421475516679421, "
    "0.67158483686072912 0.44065024497143812, "
    "0.68167242625196833 0.44647431742194443, "
    "0.81891487394840423 0.33131423017799788, "
    "0.8222203236637784 0.33525351175143447, "
    "0.6849778759673425 0.45041359899538103, "
    "0.68896177615586496 0.46135927480470768))";

}  // namespace vaq::pinned

#endif  // VAQ_TESTS_PINNED_INPUTS_H_
