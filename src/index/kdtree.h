#ifndef VAQ_INDEX_KDTREE_H_
#define VAQ_INDEX_KDTREE_H_

#include <cstdint>
#include <vector>

#include "index/spatial_index.h"

namespace vaq {

/// Static KD-tree (Bentley 1975, Friedman/Bentley/Finkel NN search) over
/// points. Built once by median splits on the axis of larger spread; no
/// dynamic updates (rebuild instead). Included as an ablation alternative
/// to the R-tree for the seed NN query and window filter of area queries.
class KDTree : public SpatialIndex {
 public:
  /// `leaf_size` is the bucket capacity at which recursion stops.
  explicit KDTree(int leaf_size = 16);

  void Build(std::span<const Point> points) override;
  std::size_t size() const override { return points_.size(); }
  void WindowQuery(const Box& window, std::vector<PointId>* out,
                   IndexStats* stats = nullptr) const override;
  void PolygonQuery(const PreparedArea& area, std::vector<PointId>* out,
                    IndexStats* stats = nullptr) const override;
  PointId NearestNeighbor(const Point& q,
                          IndexStats* stats = nullptr) const override;
  void KNearestNeighbors(const Point& q, std::size_t k,
                         std::vector<PointId>* out,
                         IndexStats* stats = nullptr) const override;
  std::string_view Name() const override { return "kdtree"; }

 private:
  struct Node {
    Box bounds;
    // Children; both -1 for leaves.
    std::int32_t left = -1;
    std::int32_t right = -1;
    // Range [begin, end) into ids_ for leaves.
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  std::int32_t BuildRecursive(std::uint32_t begin, std::uint32_t end);

  std::vector<Point> points_;
  std::vector<PointId> ids_;  // Permutation of [0, n) owned by the tree.
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
  int leaf_size_;
};

}  // namespace vaq

#endif  // VAQ_INDEX_KDTREE_H_
