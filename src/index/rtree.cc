#include "index/rtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>
#include <string>

#include "delaunay/hilbert.h"
#include "geometry/prepared_area.h"

namespace vaq {

RTree::RTree(int max_entries, int min_entries, SplitStrategy split)
    : max_entries_(max_entries), min_entries_(min_entries), split_(split) {
  assert(max_entries_ >= 4);
  assert(min_entries_ >= 2 && min_entries_ <= max_entries_ / 2);
}

std::int32_t RTree::NewNode(bool leaf) {
  nodes_.push_back(Node{});
  nodes_.back().leaf = leaf;
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

void RTree::RecomputeBounds(std::int32_t node_id) {
  Node& node = nodes_[node_id];
  node.bounds = Box{};
  for (const Entry& e : node.entries) node.bounds.ExpandToInclude(e.box);
}

void RTree::Build(std::span<const Point> points) {
  std::vector<Entry> leaves;
  leaves.reserve(points.size());
  for (const std::uint32_t i : HilbertOrder(points)) {
    leaves.push_back(Entry{Box(points[i]), static_cast<std::int32_t>(i)});
  }
  Pack(std::move(leaves));
}

void RTree::Pack(std::vector<Entry> level) {
  nodes_.clear();
  root_ = -1;
  count_ = level.size();
  if (level.empty()) return;

  // Pack consecutive runs of the (spatially clustered) entries into
  // leaves. Group sizes are balanced across the level so no node falls
  // far under capacity: ceil(n / M) groups of n / groups entries each.
  bool leaf_level = true;
  while (level.size() > static_cast<std::size_t>(max_entries_) ||
         leaf_level) {
    const std::size_t n = level.size();
    const std::size_t capacity = static_cast<std::size_t>(max_entries_);
    const std::size_t num_groups = (n + capacity - 1) / capacity;
    const std::size_t base = n / num_groups;
    const std::size_t remainder = n % num_groups;

    std::vector<Entry> parents;
    parents.reserve(num_groups);
    std::size_t at = 0;
    for (std::size_t g = 0; g < num_groups; ++g) {
      const std::size_t group_size = base + (g < remainder ? 1 : 0);
      const std::int32_t node_id = NewNode(leaf_level);
      Node& node = nodes_[node_id];
      node.entries.assign(level.begin() + at, level.begin() + at + group_size);
      at += group_size;
      RecomputeBounds(node_id);
      parents.push_back(Entry{nodes_[node_id].bounds, node_id});
    }
    level = std::move(parents);
    leaf_level = false;
    if (level.size() == 1) break;
  }

  if (level.size() == 1) {
    root_ = level[0].id;
  } else {
    root_ = NewNode(false);
    nodes_[root_].entries = std::move(level);
    RecomputeBounds(root_);
  }
}

std::int32_t RTree::ChooseLeaf(std::int32_t node_id, const Box& box,
                               std::vector<std::int32_t>* path) const {
  while (true) {
    path->push_back(node_id);
    const Node& node = nodes_[node_id];
    if (node.leaf) return node_id;
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    std::int32_t best_child = -1;
    for (const Entry& e : node.entries) {
      const double area = e.box.Area();
      const double enlargement = Box::Union(e.box, box).Area() - area;
      if (enlargement < best_enlargement ||
          (enlargement == best_enlargement && area < best_area)) {
        best_enlargement = enlargement;
        best_area = area;
        best_child = e.id;
      }
    }
    node_id = best_child;
  }
}

void RTree::PickSeedsQuadratic(const std::vector<Entry>& entries,
                               std::size_t* seed_a,
                               std::size_t* seed_b) const {
  // The pair wasting the most area.
  double worst_waste = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      const double waste = Box::Union(entries[i].box, entries[j].box).Area() -
                           entries[i].box.Area() - entries[j].box.Area();
      if (waste > worst_waste) {
        worst_waste = waste;
        *seed_a = i;
        *seed_b = j;
      }
    }
  }
}

void RTree::PickSeedsLinear(const std::vector<Entry>& entries,
                            std::size_t* seed_a, std::size_t* seed_b) const {
  // Per axis: the entry with the highest low side and the one with the
  // lowest high side; normalise their separation by the axis width and
  // take the axis with the greatest normalised separation.
  double best_separation = -std::numeric_limits<double>::infinity();
  for (int axis = 0; axis < 2; ++axis) {
    auto lo = [axis](const Entry& e) {
      return axis == 0 ? e.box.min.x : e.box.min.y;
    };
    auto hi = [axis](const Entry& e) {
      return axis == 0 ? e.box.max.x : e.box.max.y;
    };
    std::size_t highest_low = 0, lowest_high = 0;
    double min_lo = lo(entries[0]), max_hi = hi(entries[0]);
    for (std::size_t i = 1; i < entries.size(); ++i) {
      if (lo(entries[i]) > lo(entries[highest_low])) highest_low = i;
      if (hi(entries[i]) < hi(entries[lowest_high])) lowest_high = i;
      min_lo = std::min(min_lo, lo(entries[i]));
      max_hi = std::max(max_hi, hi(entries[i]));
    }
    if (highest_low == lowest_high) continue;  // Degenerate axis.
    const double width = std::max(max_hi - min_lo, 1e-300);
    const double separation =
        (lo(entries[highest_low]) - hi(entries[lowest_high])) / width;
    if (separation > best_separation) {
      best_separation = separation;
      *seed_a = lowest_high;
      *seed_b = highest_low;
    }
  }
}

std::int32_t RTree::SplitNode(std::int32_t node_id) {
  Node& node = nodes_[node_id];
  std::vector<Entry> entries = std::move(node.entries);
  node.entries.clear();
  const std::int32_t sibling_id = NewNode(node.leaf);
  // NOTE: NewNode may reallocate nodes_; re-take the reference.
  Node& left = nodes_[node_id];
  Node& right = nodes_[sibling_id];

  std::size_t seed_a = 0, seed_b = 1;
  if (split_ == SplitStrategy::kQuadratic) {
    PickSeedsQuadratic(entries, &seed_a, &seed_b);
  } else {
    PickSeedsLinear(entries, &seed_a, &seed_b);
  }

  Box left_box = entries[seed_a].box;
  Box right_box = entries[seed_b].box;
  left.entries.push_back(entries[seed_a]);
  right.entries.push_back(entries[seed_b]);
  std::vector<bool> assigned(entries.size(), false);
  assigned[seed_a] = assigned[seed_b] = true;
  std::size_t remaining = entries.size() - 2;

  while (remaining > 0) {
    // If one group must take all remaining entries to reach min_entries_.
    const std::size_t min_needed = static_cast<std::size_t>(min_entries_);
    if (left.entries.size() + remaining == min_needed) {
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!assigned[i]) {
          left.entries.push_back(entries[i]);
          left_box.ExpandToInclude(entries[i].box);
          assigned[i] = true;
        }
      }
      remaining = 0;
      break;
    }
    if (right.entries.size() + remaining == min_needed) {
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!assigned[i]) {
          right.entries.push_back(entries[i]);
          right_box.ExpandToInclude(entries[i].box);
          assigned[i] = true;
        }
      }
      remaining = 0;
      break;
    }

    // PickNext. Quadratic: the entry with the strongest preference for one
    // group (Guttman's O(M) scan per step). Linear: simply the next
    // unassigned entry.
    std::size_t best = 0;
    double best_d_left = 0.0, best_d_right = 0.0;
    if (split_ == SplitStrategy::kQuadratic) {
      double best_diff = -1.0;
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (assigned[i]) continue;
        const double d_left =
            Box::Union(left_box, entries[i].box).Area() - left_box.Area();
        const double d_right =
            Box::Union(right_box, entries[i].box).Area() - right_box.Area();
        const double diff = std::fabs(d_left - d_right);
        if (diff > best_diff) {
          best_diff = diff;
          best = i;
          best_d_left = d_left;
          best_d_right = d_right;
        }
      }
    } else {
      while (assigned[best]) ++best;
      best_d_left =
          Box::Union(left_box, entries[best].box).Area() - left_box.Area();
      best_d_right =
          Box::Union(right_box, entries[best].box).Area() - right_box.Area();
    }
    bool to_left = best_d_left < best_d_right;
    if (best_d_left == best_d_right) {
      to_left = left_box.Area() < right_box.Area() ||
                (left_box.Area() == right_box.Area() &&
                 left.entries.size() <= right.entries.size());
    }
    if (to_left) {
      left.entries.push_back(entries[best]);
      left_box.ExpandToInclude(entries[best].box);
    } else {
      right.entries.push_back(entries[best]);
      right_box.ExpandToInclude(entries[best].box);
    }
    assigned[best] = true;
    --remaining;
  }

  left.bounds = left_box;
  right.bounds = right_box;
  return sibling_id;
}

void RTree::InsertEntry(const Entry& entry) {
  if (root_ < 0) {
    root_ = NewNode(true);
    nodes_[root_].entries.push_back(entry);
    nodes_[root_].bounds = entry.box;
    return;
  }
  std::vector<std::int32_t> path;
  const std::int32_t leaf = ChooseLeaf(root_, entry.box, &path);
  nodes_[leaf].entries.push_back(entry);

  // Walk back up: refresh the entry box of the child we descended into,
  // absorb splits, fix bounds.
  std::int32_t split_child = -1;
  for (std::size_t depth = path.size(); depth-- > 0;) {
    const std::int32_t node_id = path[depth];
    if (depth + 1 < path.size()) {
      const std::int32_t child = path[depth + 1];
      for (Entry& e : nodes_[node_id].entries) {
        if (e.id == child) {
          e.box = nodes_[child].bounds;
          break;
        }
      }
    }
    if (split_child >= 0) {
      nodes_[node_id].entries.push_back(
          Entry{nodes_[split_child].bounds, split_child});
      split_child = -1;
    }
    if (nodes_[node_id].entries.size() >
        static_cast<std::size_t>(max_entries_)) {
      split_child = SplitNode(node_id);
    } else {
      RecomputeBounds(node_id);
    }
  }
  if (split_child >= 0) {
    const std::int32_t old_root = root_;
    root_ = NewNode(false);
    nodes_[root_].entries.push_back(Entry{nodes_[old_root].bounds, old_root});
    nodes_[root_].entries.push_back(
        Entry{nodes_[split_child].bounds, split_child});
    RecomputeBounds(root_);
  }
}

void RTree::Insert(const Point& p, PointId id) {
  InsertEntry(Entry{Box(p), static_cast<std::int32_t>(id)});
  ++count_;
}

void RTree::WindowQuery(const Box& window, std::vector<PointId>* out,
                        IndexStats* stats) const {
  if (root_ < 0) return;
  std::vector<std::int32_t> stack{root_};
  while (!stack.empty()) {
    const std::int32_t node_id = stack.back();
    stack.pop_back();
    if (stats != nullptr) ++stats->node_accesses;
    const Node& node = nodes_[node_id];
    if (node.leaf) {
      if (window.Contains(node.bounds)) {
        // Leaf fully covered: report every entry without per-point tests.
        for (const Entry& e : node.entries) {
          out->push_back(static_cast<PointId>(e.id));
        }
        if (stats != nullptr) stats->entries_reported += node.entries.size();
        continue;
      }
      for (const Entry& e : node.entries) {
        if (window.Contains(e.box.min)) {
          out->push_back(static_cast<PointId>(e.id));
          if (stats != nullptr) ++stats->entries_reported;
        }
      }
    } else {
      for (const Entry& e : node.entries) {
        if (window.Intersects(e.box)) stack.push_back(e.id);
      }
    }
  }
}

void RTree::EmitSubtree(std::int32_t node_id, std::vector<PointId>* out,
                        IndexStats* stats) const {
  if (stats != nullptr) ++stats->node_accesses;
  const Node& node = nodes_[node_id];
  if (node.leaf) {
    for (const Entry& e : node.entries) {
      out->push_back(static_cast<PointId>(e.id));
    }
    if (stats != nullptr) {
      stats->entries_reported += node.entries.size();
      stats->bulk_accepted += node.entries.size();
    }
  } else {
    for (const Entry& e : node.entries) EmitSubtree(e.id, out, stats);
  }
}

void RTree::PolygonQuery(const PreparedArea& area, std::vector<PointId>* out,
                         IndexStats* stats) const {
  if (root_ < 0 || !area.prepared()) return;
  // Classify each child MBR against the polygon: outside subtrees are
  // pruned without being read (the window query visits everything inside
  // MBR(A) \ A), inside subtrees are emitted wholesale with zero per-point
  // tests, and only straddling paths descend to leaf-level point tests.
  switch (area.ClassifyBox(nodes_[root_].bounds)) {
    case PreparedArea::Region::kOutside:
      return;
    case PreparedArea::Region::kInside:
      EmitSubtree(root_, out, stats);
      return;
    case PreparedArea::Region::kStraddling:
      break;
  }
  std::vector<std::int32_t> stack{root_};
  while (!stack.empty()) {
    const std::int32_t node_id = stack.back();
    stack.pop_back();
    if (stats != nullptr) ++stats->node_accesses;
    const Node& node = nodes_[node_id];
    if (node.leaf) {
      for (const Entry& e : node.entries) {
        if (area.Contains(e.box.min)) {
          out->push_back(static_cast<PointId>(e.id));
          if (stats != nullptr) ++stats->entries_reported;
        }
      }
    } else {
      for (const Entry& e : node.entries) {
        switch (area.ClassifyBox(e.box)) {
          case PreparedArea::Region::kOutside:
            break;
          case PreparedArea::Region::kInside:
            EmitSubtree(e.id, out, stats);
            break;
          case PreparedArea::Region::kStraddling:
            stack.push_back(e.id);
            break;
        }
      }
    }
  }
}

namespace {
struct QueueItem {
  double dist2;
  bool is_node;
  std::int32_t id;
  bool operator>(const QueueItem& o) const { return dist2 > o.dist2; }
};
}  // namespace

void RTree::KNearestNeighbors(const Point& q, std::size_t k,
                              std::vector<PointId>* out,
                              IndexStats* stats) const {
  if (root_ < 0 || k == 0) return;
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> pq;
  pq.push(QueueItem{nodes_[root_].bounds.SquaredDistanceTo(q), true, root_});
  std::size_t found = 0;
  while (!pq.empty() && found < k) {
    const QueueItem item = pq.top();
    pq.pop();
    if (item.is_node) {
      if (stats != nullptr) ++stats->node_accesses;
      const Node& node = nodes_[item.id];
      if (node.leaf) {
        for (const Entry& e : node.entries) {
          pq.push(QueueItem{SquaredDistance(e.box.min, q), false, e.id});
        }
      } else {
        for (const Entry& e : node.entries) {
          pq.push(QueueItem{e.box.SquaredDistanceTo(q), true, e.id});
        }
      }
    } else {
      out->push_back(static_cast<PointId>(item.id));
      if (stats != nullptr) ++stats->entries_reported;
      ++found;
    }
  }
}

PointId RTree::NearestNeighbor(const Point& q, IndexStats* stats) const {
  std::vector<PointId> out;
  KNearestNeighbors(q, 1, &out, stats);
  return out.empty() ? kInvalidPointId : out[0];
}

int RTree::Height() const {
  if (root_ < 0) return 0;
  int height = 1;
  std::int32_t node_id = root_;
  while (!nodes_[node_id].leaf) {
    node_id = nodes_[node_id].entries.front().id;
    ++height;
  }
  return height;
}

bool RTree::CheckInvariants(std::string* why) const {
  if (root_ < 0) {
    if (count_ != 0) {
      *why = "empty tree with nonzero count";
      return false;
    }
    return true;
  }
  std::size_t seen = 0;
  int leaf_depth = -1;
  struct Frame {
    std::int32_t id;
    int depth;
  };
  std::vector<Frame> stack{{root_, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& node = nodes_[f.id];
    if (node.entries.empty()) {
      *why = "node with no entries";
      return false;
    }
    if (node.entries.size() > static_cast<std::size_t>(max_entries_)) {
      *why = "node overflow";
      return false;
    }
    Box expect;
    for (const Entry& e : node.entries) expect.ExpandToInclude(e.box);
    if (expect != node.bounds) {
      *why = "stale node bounds";
      return false;
    }
    if (node.leaf) {
      if (leaf_depth < 0) leaf_depth = f.depth;
      if (leaf_depth != f.depth) {
        *why = "leaves at different depths";
        return false;
      }
      seen += node.entries.size();
    } else {
      for (const Entry& e : node.entries) {
        stack.push_back({e.id, f.depth + 1});
      }
    }
  }
  if (seen != count_) {
    *why = "entry count mismatch";
    return false;
  }
  return true;
}

}  // namespace vaq
