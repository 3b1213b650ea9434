#ifndef VAQ_INDEX_QUADTREE_H_
#define VAQ_INDEX_QUADTREE_H_

#include <cstdint>
#include <vector>

#include "index/spatial_index.h"

namespace vaq {

/// Point-region (PR) quadtree (Samet 1984): square cells recursively split
/// into four quadrants once a bucket overflows. Supports dynamic inserts.
/// Included as an ablation alternative to the R-tree.
class Quadtree : public SpatialIndex {
 public:
  /// `bucket_capacity` points are stored per leaf before it splits;
  /// `max_depth` caps subdivision (duplicates/ultra-dense spots then
  /// overflow the bucket in place).
  explicit Quadtree(int bucket_capacity = 16, int max_depth = 32);

  void Build(std::span<const Point> points) override;
  std::size_t size() const override { return count_; }
  void WindowQuery(const Box& window, std::vector<PointId>* out,
                   IndexStats* stats = nullptr) const override;
  void PolygonQuery(const PreparedArea& area, std::vector<PointId>* out,
                    IndexStats* stats = nullptr) const override;
  PointId NearestNeighbor(const Point& q,
                          IndexStats* stats = nullptr) const override;
  void KNearestNeighbors(const Point& q, std::size_t k,
                         std::vector<PointId>* out,
                         IndexStats* stats = nullptr) const override;
  std::string_view Name() const override { return "quadtree"; }

  /// Dynamic insert. Precondition: `p` lies inside the world box passed to
  /// `Build` (or of the first bulk load).
  void Insert(const Point& p, PointId id);

  /// Bulk load with an explicit world box (points outside are clamped by
  /// precondition, not checked).
  void Build(std::span<const Point> points, const Box& world);

 private:
  struct Item {
    Point point;
    PointId id;
  };
  struct Node {
    // child[0] = SW, child[1] = SE, child[2] = NW, child[3] = NE.
    std::int32_t child[4] = {-1, -1, -1, -1};
    std::vector<Item> items;  // Only for leaves.
    bool leaf = true;
  };

  static Box ChildBox(const Box& box, int quadrant);
  int QuadrantOf(const Box& box, const Point& p) const;
  void InsertInto(std::int32_t node_id, const Box& box, const Item& item,
                  int depth);

  std::vector<Node> nodes_;
  Box world_;
  std::int32_t root_ = -1;
  std::size_t count_ = 0;
  int bucket_capacity_;
  int max_depth_;
};

}  // namespace vaq

#endif  // VAQ_INDEX_QUADTREE_H_
