#include "index/grid_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>

#include "geometry/prepared_area.h"

namespace vaq {

GridIndex::GridIndex(int target_bucket_size)
    : target_bucket_size_(target_bucket_size) {
  assert(target_bucket_size_ >= 1);
}

int GridIndex::CellX(double x) const {
  int c = static_cast<int>((x - world_.min.x) / cell_w_);
  return std::clamp(c, 0, nx_ - 1);
}

int GridIndex::CellY(double y) const {
  int c = static_cast<int>((y - world_.min.y) / cell_h_);
  return std::clamp(c, 0, ny_ - 1);
}

void GridIndex::Build(std::span<const Point> points) {
  points_.assign(points.begin(), points.end());
  world_ = Box{};
  for (const Point& p : points) world_.ExpandToInclude(p);
  if (world_.Empty()) world_ = Box{{0, 0}, {1, 1}};

  const double n = static_cast<double>(std::max<std::size_t>(points.size(), 1));
  const int side = std::max(
      1, static_cast<int>(std::sqrt(n / target_bucket_size_)));
  nx_ = ny_ = side;
  cell_w_ = std::max(world_.Width(), 1e-12) / nx_;
  cell_h_ = std::max(world_.Height(), 1e-12) / ny_;

  cells_.assign(static_cast<std::size_t>(nx_) * ny_, {});
  for (std::size_t i = 0; i < points.size(); ++i) {
    cells_[static_cast<std::size_t>(CellY(points[i].y)) * nx_ +
           CellX(points[i].x)]
        .push_back(static_cast<PointId>(i));
  }
}

void GridIndex::WindowQuery(const Box& window, std::vector<PointId>* out,
                            IndexStats* stats) const {
  if (stats != nullptr) ++stats->node_accesses;  // The grid directory itself.
  if (points_.empty() || !window.Intersects(world_)) return;
  const int x0 = CellX(window.min.x);
  const int x1 = CellX(window.max.x);
  const int y0 = CellY(window.min.y);
  const int y1 = CellY(window.max.y);
  for (int cy = y0; cy <= y1; ++cy) {
    for (int cx = x0; cx <= x1; ++cx) {
      if (stats != nullptr) ++stats->node_accesses;
      for (const PointId id : Cell(cx, cy)) {
        if (window.Contains(points_[id])) {
          out->push_back(id);
          if (stats != nullptr) ++stats->entries_reported;
        }
      }
    }
  }
}

void GridIndex::PolygonQuery(const PreparedArea& area,
                             std::vector<PointId>* out,
                             IndexStats* stats) const {
  if (stats != nullptr) ++stats->node_accesses;  // The grid directory itself.
  if (points_.empty() || !area.prepared()) return;
  const Box& window = area.bounds();
  if (!window.Intersects(world_)) return;
  const int x0 = CellX(window.min.x);
  const int x1 = CellX(window.max.x);
  const int y0 = CellY(window.min.y);
  const int y1 = CellY(window.max.y);
  for (int cy = y0; cy <= y1; ++cy) {
    for (int cx = x0; cx <= x1; ++cx) {
      const std::vector<PointId>& bucket = Cell(cx, cy);
      if (bucket.empty()) continue;
      if (stats != nullptr) ++stats->node_accesses;
      const Box cell_box{
          {world_.min.x + cx * cell_w_, world_.min.y + cy * cell_h_},
          {world_.min.x + (cx + 1) * cell_w_,
           world_.min.y + (cy + 1) * cell_h_}};
      switch (area.ClassifyBox(cell_box)) {
        case PreparedArea::Region::kOutside:
          break;
        case PreparedArea::Region::kInside:
          out->insert(out->end(), bucket.begin(), bucket.end());
          if (stats != nullptr) {
            stats->entries_reported += bucket.size();
            stats->bulk_accepted += bucket.size();
          }
          break;
        case PreparedArea::Region::kStraddling:
          for (const PointId id : bucket) {
            if (area.Contains(points_[id])) {
              out->push_back(id);
              if (stats != nullptr) ++stats->entries_reported;
            }
          }
          break;
      }
    }
  }
}

void GridIndex::KNearestNeighbors(const Point& q, std::size_t k,
                                  std::vector<PointId>* out,
                                  IndexStats* stats) const {
  if (points_.empty() || k == 0) return;
  // Ring expansion around the query's cell: scan cells at growing
  // Chebyshev radius r, stopping once the current k-th best distance beats
  // the lower bound (r-1) * min(cell_w, cell_h) of everything on ring r
  // and beyond. (The bound also holds for queries outside the grid, whose
  // starting cell is clamped: they are at least that far from ring r.)
  const int qcx = CellX(q.x);
  const int qcy = CellY(q.y);
  using Candidate = std::pair<double, PointId>;  // Max-heap by distance.
  std::priority_queue<Candidate> heap;
  auto consider_cell = [&](int cx, int cy) {
    if (cx < 0 || cy < 0 || cx >= nx_ || cy >= ny_) return;
    if (stats != nullptr) ++stats->node_accesses;
    for (const PointId id : Cell(cx, cy)) {
      const double d = SquaredDistance(points_[id], q);
      if (heap.size() < k) {
        heap.push({d, id});
      } else if (d < heap.top().first) {
        heap.pop();
        heap.push({d, id});
      }
    }
  };
  const double cell_min = std::min(cell_w_, cell_h_);
  const int max_r = std::max(nx_, ny_);
  for (int r = 0; r <= max_r; ++r) {
    if (heap.size() == k && r >= 2) {
      const double ring_lb = (r - 1) * cell_min;
      if (ring_lb * ring_lb >= heap.top().first) break;
    }
    if (r == 0) {
      consider_cell(qcx, qcy);
    } else {
      for (int dx = -r; dx <= r; ++dx) {
        consider_cell(qcx + dx, qcy - r);
        consider_cell(qcx + dx, qcy + r);
      }
      for (int dy = -r + 1; dy <= r - 1; ++dy) {
        consider_cell(qcx - r, qcy + dy);
        consider_cell(qcx + r, qcy + dy);
      }
    }
  }
  // Emit ascending by distance.
  std::vector<Candidate> found(heap.size());
  for (std::size_t i = found.size(); i-- > 0;) {
    found[i] = heap.top();
    heap.pop();
  }
  for (const Candidate& c : found) {
    out->push_back(c.second);
    if (stats != nullptr) ++stats->entries_reported;
  }
}

PointId GridIndex::NearestNeighbor(const Point& q, IndexStats* stats) const {
  std::vector<PointId> out;
  KNearestNeighbors(q, 1, &out, stats);
  return out.empty() ? kInvalidPointId : out[0];
}

}  // namespace vaq
