#ifndef VAQ_INDEX_RTREE_H_
#define VAQ_INDEX_RTREE_H_

#include <cstdint>
#include <vector>

#include "index/spatial_index.h"

namespace vaq {

/// R-tree over points (Guttman 1984), the index both the paper's methods
/// build on: the traditional area query issues `WindowQuery(MBR(A))` against
/// it, and the Voronoi-based method issues a single `NearestNeighbor` call
/// to find its seed.
///
/// * dynamic inserts use ChooseLeaf by least area enlargement and the
///   quadratic split;
/// * bulk loads are Hilbert-packed: `Build` sorts by Hilbert key, then
///   packs consecutive runs into leaves at near-100% utilisation;
/// * nearest-neighbour search is best-first over MINDIST
///   (Hjaltason & Samet 1999).
class RTree : public SpatialIndex {
 public:
  /// Node-split algorithm used on dynamic-insert overflow (Guttman 1984):
  /// the quadratic split optimises dead area at O(M^2) per split; the
  /// linear split picks extreme seeds per axis and distributes the rest in
  /// one pass. Bulk loads (`Build`) never split. Benchmarked in
  /// bench_ablation_rtree_split.
  enum class SplitStrategy { kQuadratic, kLinear };

  /// `max_entries` is the node capacity M; `min_entries` the underflow
  /// bound m (only used by splits; this library does not implement delete).
  /// Preconditions: `max_entries >= 4`, `2 <= min_entries <= max_entries/2`.
  explicit RTree(int max_entries = 16, int min_entries = 6,
                 SplitStrategy split = SplitStrategy::kQuadratic);

  /// Sorts `points` along a Hilbert curve, then packs consecutive runs of
  /// `max_entries` into leaves, one O(n) pass per level (curve runs are
  /// spatially compact, so leaf MBRs are tight). Ids stay positions in
  /// `points`.
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
  std::string_view Name() const override { return "rtree"; }

  /// Dynamic insert (Guttman). Usable to grow a bulk-loaded tree.
  void Insert(const Point& p, PointId id);

  /// Height of the tree (1 = root is a leaf); 0 when empty.
  int Height() const;

  /// Validates structural invariants (bounds containment, entry counts);
  /// used by tests. Returns false and leaves a message in `*why` on failure.
  bool CheckInvariants(std::string* why) const;

 private:
  struct Entry {
    Box box;        // Degenerate box of the point for leaves; child MBR
                    // for internal nodes.
    std::int32_t id;  // PointId for leaves; child node index otherwise.
  };
  struct Node {
    Box bounds;
    bool leaf = true;
    std::vector<Entry> entries;
  };

  std::int32_t NewNode(bool leaf);
  void RecomputeBounds(std::int32_t node_id);
  /// Replaces the content with a tree packed bottom-up from `level` (leaf
  /// entries in the order they should fill leaves).
  void Pack(std::vector<Entry> level);
  /// Emits every point of `node_id`'s subtree without geometric tests
  /// (bulk accept of a subtree fully inside the query polygon).
  void EmitSubtree(std::int32_t node_id, std::vector<PointId>* out,
                   IndexStats* stats) const;
  std::int32_t ChooseLeaf(std::int32_t node_id, const Box& box,
                          std::vector<std::int32_t>* path) const;
  /// Splits `node_id` (which overflowed) in place; returns the new sibling.
  std::int32_t SplitNode(std::int32_t node_id);
  /// PickSeeds variants: fill `*seed_a`/`*seed_b` with the two seed
  /// positions within `entries`.
  void PickSeedsQuadratic(const std::vector<Entry>& entries,
                          std::size_t* seed_a, std::size_t* seed_b) const;
  void PickSeedsLinear(const std::vector<Entry>& entries, std::size_t* seed_a,
                       std::size_t* seed_b) const;
  void InsertEntry(const Entry& entry);

  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
  std::size_t count_ = 0;
  int max_entries_;
  int min_entries_;
  SplitStrategy split_;
};

}  // namespace vaq

#endif  // VAQ_INDEX_RTREE_H_
