#include "index/hilbert_rtree.h"

#include <algorithm>
#include <bit>
#include <cstdint>
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

/// `Collect`'s filter for `WindowQuery` (borders inclusive). Both tests
/// combine their comparisons with `&` / `|`, so classifying a node's
/// children and compacting a leaf's points take no data-dependent branch.
/// A window's inside subtrees are not counted as bulk-accepted, which
/// `IndexStats::bulk_accepted` reserves for polygon queries.
struct WindowFilter {
  static constexpr bool kCountsBulkAccepted = false;
  double minx, miny, maxx, maxy;

  explicit WindowFilter(const Box& w)
      : minx(w.min.x), miny(w.min.y), maxx(w.max.x), maxy(w.max.y) {}

  /// Sets bit c of `*inside` / `*straddling` for child box c of `count`
  /// (SoA extents); outside children set neither.
  void ClassifyChildren(const double* cminx, const double* cminy,
                        const double* cmaxx, const double* cmaxy,
                        std::size_t count, std::uint32_t* inside,
                        std::uint32_t* straddling) const {
    std::uint32_t in_bits = 0;
    std::uint32_t cut_bits = 0;
    for (std::size_t c = 0; c < count; ++c) {
      const bool meets = !((cminx[c] > maxx) | (cmaxx[c] < minx) |
                           (cminy[c] > maxy) | (cmaxy[c] < miny));
      const bool within = (cminx[c] >= minx) & (cmaxx[c] <= maxx) &
                          (cminy[c] >= miny) & (cmaxy[c] <= maxy);
      in_bits |= static_cast<std::uint32_t>(meets & within) << c;
      cut_bits |= static_cast<std::uint32_t>(meets & !within) << c;
    }
    *inside = in_bits;
    *straddling = cut_bits;
  }
  bool Contains(const Point& p) const {
    return (p.x >= minx) & (p.x <= maxx) & (p.y >= miny) & (p.y <= maxy);
  }
};

struct PolygonFilter {
  static constexpr bool kCountsBulkAccepted = true;
  const PreparedArea& area;

  void ClassifyChildren(const double* cminx, const double* cminy,
                        const double* cmaxx, const double* cmaxy,
                        std::size_t count, std::uint32_t* inside,
                        std::uint32_t* straddling) const {
    *inside = 0;
    *straddling = 0;
    for (std::size_t c = 0; c < count; ++c) {
      const PreparedArea::Region r = area.ClassifyBox(
          Box::FromExtents(cminx[c], cminy[c], cmaxx[c], cmaxy[c]));
      *inside |= std::uint32_t{r == PreparedArea::Region::kInside} << c;
      *straddling |= std::uint32_t{r == PreparedArea::Region::kStraddling}
                     << c;
    }
  }
  bool Contains(const Point& p) const { return area.Contains(p); }
};

/// Deepest tree `Collect` walks: 32-bit ids cap n at 2^32 = 16^8 points.
constexpr int kMaxHeight = 8;

}  // namespace

// An iterative depth-first walk that visits children in ascending order.
// Each node's MBR is classified: an outside subtree is pruned without being
// read (a window query over MBR(A) would visit everything inside
// MBR(A) \ A), an inside subtree is emitted as its id range with zero
// per-point tests, and a straddling one is read — one node access — and
// descended, down to point tests at straddling leaves. A frame per level
// holds the node's children still to visit as a bitmask; a run of
// adjacent inside children is one contiguous id range, appended at once.
template <typename Filter>
void HilbertRTree::Collect(const Filter& filter, std::vector<PointId>* out,
                           IndexStats* stats) const {
  const std::size_t n = points_.size();
  const std::size_t first_out = out->size();
  std::uint64_t accesses = 0;
  std::uint64_t bulk = 0;
  // A straddling leaf's accepted ids are staged in a small buffer and
  // appended to `out` in bulk, so a leaf costs no vector growth check.
  constexpr std::size_t kStage = 256;
  PointId stage[kStage];
  std::size_t staged = 0;
  auto flush = [&] {
    out->insert(out->end(), stage, stage + staged);
    staged = 0;
  };
  auto append_range = [&](std::size_t first, std::size_t last) {
    flush();
    const std::size_t at = out->size();
    out->resize(at + (last - first));
    PointId* dst = out->data() + at;
    for (std::size_t id = first; id < last; ++id) {
      *dst++ = static_cast<PointId>(id);
    }
    bulk += last - first;
  };
  // A straddling leaf: write every id, keep the accepted ones.
  auto scan_leaf = [&](std::size_t leaf) {
    if (staged + kFanout > kStage) flush();
    const std::size_t first = leaf << kFanoutBits;
    const std::size_t last = std::min(first + kFanout, n);
    for (std::size_t id = first; id < last; ++id) {
      stage[staged] = static_cast<PointId>(id);
      staged += filter.Contains(points_[id]) ? 1 : 0;
    }
  };
  struct Frame {
    std::size_t node;       // The straddling node on this level.
    std::uint32_t pending;  // Its children not yet visited.
    std::uint32_t inside;   // Of those, the ones inside the filter.
  };
  // Reads node `j` of level `k >= 1` (or the virtual root parent, level
  // Height()): classifies its children into masks.
  auto expand = [&](int k, std::size_t j) {
    const Level& l = levels_[k - 1];
    const std::size_t first = j * kFanout;
    Frame f{j, 0, 0};
    std::uint32_t straddling = 0;
    filter.ClassifyChildren(l.minx.data() + first, l.miny.data() + first,
                            l.maxx.data() + first, l.maxy.data() + first,
                            std::min(kFanout, l.minx.size() - first),
                            &f.inside, &straddling);
    f.pending = f.inside | straddling;
    return f;
  };

  // The walk starts at a virtual node on level Height() whose one child is
  // the root, so the root is classified like any other child.
  const int top = Height();
  Frame stack[kMaxHeight + 1] = {};
  int k = top;
  stack[k] = expand(k, 0);
  while (k <= top) {
    Frame& f = stack[k];
    if (f.pending == 0) {
      ++k;  // Node exhausted: resume its parent.
      continue;
    }
    const unsigned c = static_cast<unsigned>(std::countr_zero(f.pending));
    const std::size_t child = f.node * kFanout + c;
    if (((f.inside >> c) & 1u) != 0) {
      // Adjacent inside children cover one contiguous id range.
      const auto run = static_cast<unsigned>(std::countr_one(f.inside >> c));
      const std::uint32_t taken = ((std::uint32_t{1} << run) - 1) << c;
      f.pending &= ~taken;
      f.inside &= ~taken;
      const unsigned shift = kFanoutBits * static_cast<unsigned>(k);
      append_range(child << shift, std::min((child + run) << shift, n));
      continue;
    }
    f.pending &= f.pending - 1;
    ++accesses;
    if (k == 1) {
      scan_leaf(child);
    } else {
      --k;
      stack[k] = expand(k, child);
    }
  }
  flush();
  if (stats != nullptr) {
    stats->node_accesses += accesses;
    stats->entries_reported += out->size() - first_out;
    if constexpr (Filter::kCountsBulkAccepted) stats->bulk_accepted += bulk;
  }
}

void HilbertRTree::WindowQuery(const Box& window, std::vector<PointId>* out,
                               IndexStats* stats) const {
  if (levels_.empty()) return;
  Collect(WindowFilter{window}, out, stats);
}

void HilbertRTree::PolygonQuery(const PreparedArea& area,
                                std::vector<PointId>* out,
                                IndexStats* stats) const {
  if (levels_.empty() || !area.prepared()) return;
  Collect(PolygonFilter{area}, out, stats);
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
