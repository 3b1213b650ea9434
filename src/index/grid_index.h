#ifndef VAQ_INDEX_GRID_INDEX_H_
#define VAQ_INDEX_GRID_INDEX_H_

#include <cstdint>
#include <vector>

#include "index/spatial_index.h"

namespace vaq {

/// Uniform grid over the data's bounding box: the simplest possible filter
/// structure, used as a bottom-line ablation baseline. Cell resolution is
/// chosen so the average bucket holds ~`target_bucket_size` points.
///
/// Nearest-neighbour search expands rings of cells around the query until
/// the best candidate provably beats every unvisited cell.
class GridIndex : public SpatialIndex {
 public:
  explicit GridIndex(int target_bucket_size = 4);

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
  std::string_view Name() const override { return "grid"; }

 private:
  int CellX(double x) const;
  int CellY(double y) const;
  const std::vector<PointId>& Cell(int cx, int cy) const {
    return cells_[static_cast<std::size_t>(cy) * nx_ + cx];
  }

  std::vector<Point> points_;
  std::vector<std::vector<PointId>> cells_;
  Box world_;
  int nx_ = 0;
  int ny_ = 0;
  double cell_w_ = 1.0;
  double cell_h_ = 1.0;
  int target_bucket_size_;
};

}  // namespace vaq

#endif  // VAQ_INDEX_GRID_INDEX_H_
