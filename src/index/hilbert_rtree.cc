#include "index/hilbert_rtree.h"

#include <algorithm>
#include <queue>

#include "geometry/prepared_area.h"

namespace vaq {

namespace {

/// Log2 of `HilbertRTree::kFanout`: node `j` of level `k` covers the ids
/// `[j << 4(k + 1), (j + 1) << 4(k + 1))`.
constexpr unsigned kFanoutBits = 4;
static_assert(HilbertRTree::kFanout == std::size_t{1} << kFanoutBits);

}  // namespace

void HilbertRTree::Build(std::span<const Point> points) {
  points_ = points;
  levels_.clear();
  if (points.empty()) return;
  // Leaves: the boxes of consecutive runs of kFanout points.
  Level leaves;
  const std::size_t num_leaves = (points.size() + kFanout - 1) / kFanout;
  leaves.minx.resize(num_leaves);
  leaves.miny.resize(num_leaves);
  leaves.maxx.resize(num_leaves);
  leaves.maxy.resize(num_leaves);
  for (std::size_t i = 0; i < num_leaves; ++i) {
    const std::size_t last = std::min((i + 1) * kFanout, points.size());
    Box box;
    for (std::size_t id = i * kFanout; id < last; ++id) {
      box.ExpandToInclude(points[id]);
    }
    leaves.minx[i] = box.min.x;
    leaves.miny[i] = box.min.y;
    leaves.maxx[i] = box.max.x;
    leaves.maxy[i] = box.max.y;
  }
  levels_.push_back(std::move(leaves));
  // Each parent level folds consecutive runs of kFanout children.
  while (levels_.back().minx.size() > 1) {
    const Level& child = levels_.back();
    const std::size_t num_children = child.minx.size();
    const std::size_t num_parents = (num_children + kFanout - 1) / kFanout;
    Level parent;
    parent.minx.resize(num_parents);
    parent.miny.resize(num_parents);
    parent.maxx.resize(num_parents);
    parent.maxy.resize(num_parents);
    for (std::size_t j = 0; j < num_parents; ++j) {
      const std::size_t first = j * kFanout;
      const std::size_t last = std::min(first + kFanout, num_children);
      parent.minx[j] = *std::min_element(&child.minx[first],
                                         child.minx.data() + last);
      parent.miny[j] = *std::min_element(&child.miny[first],
                                         child.miny.data() + last);
      parent.maxx[j] = *std::max_element(&child.maxx[first],
                                         child.maxx.data() + last);
      parent.maxy[j] = *std::max_element(&child.maxy[first],
                                         child.maxy.data() + last);
    }
    levels_.push_back(std::move(parent));
  }
}

void HilbertRTree::NodeRange(int k, std::size_t j, std::size_t* first,
                             std::size_t* last) const {
  const unsigned shift = kFanoutBits * static_cast<unsigned>(k + 1);
  *first = j << shift;
  *last = std::min((j + 1) << shift, points_.size());
}

std::size_t HilbertRTree::MemoryBytes() const {
  std::size_t bytes = 0;
  for (const Level& l : levels_) {
    bytes += (l.minx.capacity() + l.miny.capacity() + l.maxx.capacity() +
              l.maxy.capacity()) *
             sizeof(double);
  }
  return bytes;
}

namespace {

/// `Collect`'s filter for `WindowQuery` (borders inclusive). A window's
/// inside subtrees are not counted as bulk-accepted, which
/// `IndexStats::bulk_accepted` reserves for polygon queries.
struct WindowFilter {
  static constexpr bool kCountsBulkAccepted = false;
  const Box& window;
  PreparedArea::Region ClassifyBox(const Box& box) const {
    if (!window.Intersects(box)) return PreparedArea::Region::kOutside;
    if (window.Contains(box)) return PreparedArea::Region::kInside;
    return PreparedArea::Region::kStraddling;
  }
  bool Contains(const Point& p) const { return window.Contains(p); }
};

struct PolygonFilter {
  static constexpr bool kCountsBulkAccepted = true;
  const PreparedArea& area;
  PreparedArea::Region ClassifyBox(const Box& box) const {
    return area.ClassifyBox(box);
  }
  bool Contains(const Point& p) const { return area.Contains(p); }
};

}  // namespace

// Classifies the node's MBR: an outside subtree is pruned without being
// read (a window query over MBR(A) would visit everything inside
// MBR(A) \ A), an inside subtree is emitted as its id range with zero
// per-point tests, and a straddling one is read — one node access — and
// descended in child order, down to point tests at straddling leaves.
template <typename Filter>
void HilbertRTree::Collect(const Filter& filter, int k, std::size_t j,
                           std::vector<PointId>* out,
                           IndexStats* stats) const {
  std::size_t first, last;
  switch (filter.ClassifyBox(NodeBox(k, j))) {
    case PreparedArea::Region::kOutside:
      return;
    case PreparedArea::Region::kInside:
      NodeRange(k, j, &first, &last);
      for (std::size_t id = first; id < last; ++id) {
        out->push_back(static_cast<PointId>(id));
      }
      if (stats != nullptr) {
        stats->entries_reported += last - first;
        if constexpr (Filter::kCountsBulkAccepted) {
          stats->bulk_accepted += last - first;
        }
      }
      return;
    case PreparedArea::Region::kStraddling:
      break;
  }
  if (stats != nullptr) ++stats->node_accesses;
  if (k == 0) {
    NodeRange(0, j, &first, &last);
    for (std::size_t id = first; id < last; ++id) {
      if (filter.Contains(points_[id])) {
        out->push_back(static_cast<PointId>(id));
        if (stats != nullptr) ++stats->entries_reported;
      }
    }
    return;
  }
  ChildRange(k, j, &first, &last);
  for (std::size_t c = first; c < last; ++c) {
    Collect(filter, k - 1, c, out, stats);
  }
}

void HilbertRTree::WindowQuery(const Box& window, std::vector<PointId>* out,
                               IndexStats* stats) const {
  if (levels_.empty()) return;
  Collect(WindowFilter{window}, Height() - 1, 0, out, stats);
}

void HilbertRTree::PolygonQuery(const PreparedArea& area,
                                std::vector<PointId>* out,
                                IndexStats* stats) const {
  if (levels_.empty() || !area.prepared()) return;
  Collect(PolygonFilter{area}, Height() - 1, 0, out, stats);
}

namespace {

/// A best-first queue entry: node `index` of level `level`, or point
/// `index` when `level` is -1.
struct QueueItem {
  double dist2;
  int level;
  std::size_t index;
};

/// Min-heap order on (dist2, points after nodes, index). A node's MINDIST
/// never exceeds the distance of a point under it, so popping nodes before
/// equidistant points expands every node that could hold a point at that
/// distance before any such point is reported: the points then leave the
/// queue in (dist2, id) order.
struct PopsLater {
  bool operator()(const QueueItem& a, const QueueItem& b) const {
    if (a.dist2 != b.dist2) return a.dist2 > b.dist2;
    const bool a_point = a.level < 0, b_point = b.level < 0;
    if (a_point != b_point) return a_point;
    if (a.level != b.level) return a.level > b.level;
    return a.index > b.index;
  }
};

}  // namespace

void HilbertRTree::KNearestNeighbors(const Point& q, std::size_t k,
                                     std::vector<PointId>* out,
                                     IndexStats* stats) const {
  if (levels_.empty() || k == 0) return;
  const int top = Height() - 1;
  std::priority_queue<QueueItem, std::vector<QueueItem>, PopsLater> pq;
  pq.push(QueueItem{NodeBox(top, 0).SquaredDistanceTo(q), top, 0});
  std::size_t found = 0;
  while (!pq.empty() && found < k) {
    const QueueItem item = pq.top();
    pq.pop();
    if (item.level < 0) {
      out->push_back(static_cast<PointId>(item.index));
      if (stats != nullptr) ++stats->entries_reported;
      ++found;
      continue;
    }
    if (stats != nullptr) ++stats->node_accesses;
    std::size_t first, last;
    if (item.level == 0) {
      NodeRange(0, item.index, &first, &last);
      for (std::size_t id = first; id < last; ++id) {
        pq.push(QueueItem{SquaredDistance(points_[id], q), -1, id});
      }
    } else {
      ChildRange(item.level, item.index, &first, &last);
      for (std::size_t c = first; c < last; ++c) {
        pq.push(QueueItem{NodeBox(item.level - 1, c).SquaredDistanceTo(q),
                          item.level - 1, c});
      }
    }
  }
}

PointId HilbertRTree::NearestNeighbor(const Point& q, IndexStats* stats) const {
  std::vector<PointId> out;
  KNearestNeighbors(q, 1, &out, stats);
  return out.empty() ? kInvalidPointId : out[0];
}

bool HilbertRTree::CheckInvariants(std::string* why) const {
  std::size_t expect = points_.size();
  for (int k = 0; k < Height(); ++k) {
    expect = (expect + kFanout - 1) / kFanout;
    const Level& l = levels_[k];
    if (l.minx.size() != expect || l.miny.size() != expect ||
        l.maxx.size() != expect || l.maxy.size() != expect) {
      *why = "level " + std::to_string(k) + " has the wrong size";
      return false;
    }
    for (std::size_t j = 0; j < expect; ++j) {
      Box union_box;
      std::size_t first, last;
      if (k == 0) {
        NodeRange(0, j, &first, &last);
        for (std::size_t id = first; id < last; ++id) {
          union_box.ExpandToInclude(points_[id]);
        }
      } else {
        ChildRange(k, j, &first, &last);
        for (std::size_t c = first; c < last; ++c) {
          union_box.ExpandToInclude(NodeBox(k - 1, c));
        }
      }
      if (union_box != NodeBox(k, j)) {
        *why = "node " + std::to_string(j) + " of level " + std::to_string(k) +
               " is not the union of its children";
        return false;
      }
    }
  }
  if (points_.empty() ? Height() != 0 : LevelSize(Height() - 1) != 1) {
    *why = "the top level is not a single root";
    return false;
  }
  return true;
}

}  // namespace vaq
