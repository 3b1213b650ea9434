#ifndef VAQ_INDEX_HILBERT_RTREE_H_
#define VAQ_INDEX_HILBERT_RTREE_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "index/spatial_index.h"

namespace vaq {

/// Implicit packed Hilbert R-tree (Kamel & Faloutsos, "On Packing
/// R-trees", CIKM 1993) over a coordinate array the caller owns: the index
/// `PointDatabase` builds and both of the paper's methods read.
///
/// The points are expected in Hilbert order with ids equal to positions
/// (what `PointDatabase` stores), so the tree needs no ids at all:
/// * leaf `i` is the id range `[16i, 16i + 16) ∩ [0, n)`;
/// * node `j` of level `k + 1` has children `[16j, 16j + 16)` of level
///   `k`, so every subtree is one contiguous id range;
/// * the only storage is one SoA MBR array per level (`minx`, `miny`,
///   `maxx`, `maxy`: 32 bytes per node) plus a view of the points —
///   no per-point boxes, no per-node vectors.
///
/// Queries visit children in ascending order, so `WindowQuery` and
/// `PolygonQuery` emit strictly ascending ids. A subtree whose MBR lies
/// inside the window (polygon) is emitted as its id range without reading
/// a point; only straddling leaves test their points against the array.
/// Nearest-neighbour search is best-first over MINDIST with ties broken
/// toward the smallest id.
///
/// The tree views the array it was built over: the array must outlive the
/// tree and must not move while it is in use. Input in any order gives
/// correct answers; only the MBRs loosen.
class HilbertRTree : public SpatialIndex {
 public:
  static constexpr std::size_t kFanout = 16;

  /// Builds the MBR levels over `points`, which the tree then views (see
  /// the class comment).
  void Build(std::span<const Point> points) override;
  std::size_t size() const override { return points_.size(); }
  void WindowQuery(const Box& window, std::vector<PointId>* out,
                   IndexStats* stats = nullptr) const override;
  void PolygonQuery(const PreparedArea& area, std::vector<PointId>* out,
                    IndexStats* stats = nullptr) const override;
  /// The closest point to `q`; among equidistant points, the smallest id.
  PointId NearestNeighbor(const Point& q,
                          IndexStats* stats = nullptr) const override;
  /// The `k` closest points in (squared distance, id) order.
  void KNearestNeighbors(const Point& q, std::size_t k,
                         std::vector<PointId>* out,
                         IndexStats* stats = nullptr) const override;
  std::string_view Name() const override { return "hilbert_rtree"; }

  /// Number of levels (1 = the root is a leaf); 0 when empty.
  int Height() const { return static_cast<int>(levels_.size()); }
  /// Number of nodes on level `k` (0 = leaves, `Height() - 1` = root).
  std::size_t LevelSize(int k) const { return levels_[k].minx.size(); }
  /// The MBR of node `j` on level `k`.
  Box NodeBox(int k, std::size_t j) const {
    const Level& l = levels_[k];
    return Box::FromExtents(l.minx[j], l.miny[j], l.maxx[j], l.maxy[j]);
  }
  /// The id range `[*first, *last)` of node `j` on level `k`.
  void NodeRange(int k, std::size_t j, std::size_t* first,
                 std::size_t* last) const;
  /// The children `[*first, *last)` on level `k - 1` of node `j` on level
  /// `k >= 1`.
  void ChildRange(int k, std::size_t j, std::size_t* first,
                  std::size_t* last) const {
    *first = j * kFanout;
    *last = std::min(*first + kFanout, LevelSize(k - 1));
  }
  /// Heap bytes of the MBR levels, from their capacities.
  std::size_t MemoryBytes() const;

  /// Validates that every node's box equals the union of its children's
  /// boxes (of its points', for leaves) and that the level sizes follow
  /// from n. Returns false with a message in `*why` on failure; tests.
  bool CheckInvariants(std::string* why) const;

 private:
  struct Level {
    std::vector<double> minx, miny, maxx, maxy;
  };

  /// Appends, in ascending order, the ids that `filter` accepts (the
  /// shared walk of `WindowQuery` and `PolygonQuery`; see
  /// hilbert_rtree.cc).
  template <typename Filter>
  void Collect(const Filter& filter, std::vector<PointId>* out,
               IndexStats* stats) const;

  std::span<const Point> points_;
  std::vector<Level> levels_;  // levels_[0] = leaves, back() = root.
};

}  // namespace vaq

#endif  // VAQ_INDEX_HILBERT_RTREE_H_
