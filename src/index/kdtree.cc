#include "index/kdtree.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "geometry/prepared_area.h"

namespace vaq {

KDTree::KDTree(int leaf_size) : leaf_size_(leaf_size) {
  assert(leaf_size_ >= 1);
}

void KDTree::Build(std::span<const Point> points) {
  points_.assign(points.begin(), points.end());
  ids_.resize(points.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    ids_[i] = static_cast<PointId>(i);
  }
  nodes_.clear();
  root_ = points.empty()
              ? -1
              : BuildRecursive(0, static_cast<std::uint32_t>(points.size()));
}

std::int32_t KDTree::BuildRecursive(std::uint32_t begin, std::uint32_t end) {
  const std::int32_t node_id = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(Node{});
  Box bounds;
  for (std::uint32_t i = begin; i < end; ++i) {
    bounds.ExpandToInclude(points_[ids_[i]]);
  }
  nodes_[node_id].bounds = bounds;
  nodes_[node_id].begin = begin;
  nodes_[node_id].end = end;

  if (end - begin <= static_cast<std::uint32_t>(leaf_size_)) {
    return node_id;  // Leaf.
  }
  // Split at the median of the wider axis.
  const bool split_x = bounds.Width() >= bounds.Height();
  const std::uint32_t mid = begin + (end - begin) / 2;
  std::nth_element(ids_.begin() + begin, ids_.begin() + mid,
                   ids_.begin() + end, [&](PointId a, PointId b) {
                     return split_x ? points_[a].x < points_[b].x
                                    : points_[a].y < points_[b].y;
                   });
  const std::int32_t left = BuildRecursive(begin, mid);
  const std::int32_t right = BuildRecursive(mid, end);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

void KDTree::WindowQuery(const Box& window, std::vector<PointId>* out,
                         IndexStats* stats) const {
  if (root_ < 0) return;
  std::vector<std::int32_t> stack{root_};
  while (!stack.empty()) {
    const std::int32_t node_id = stack.back();
    stack.pop_back();
    if (stats != nullptr) ++stats->node_accesses;
    const Node& node = nodes_[node_id];
    if (!window.Intersects(node.bounds)) continue;
    if (node.left < 0) {
      const bool all_inside = window.Contains(node.bounds);
      for (std::uint32_t i = node.begin; i < node.end; ++i) {
        if (all_inside || window.Contains(points_[ids_[i]])) {
          out->push_back(ids_[i]);
          if (stats != nullptr) ++stats->entries_reported;
        }
      }
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
}

void KDTree::PolygonQuery(const PreparedArea& area, std::vector<PointId>* out,
                          IndexStats* stats) const {
  if (root_ < 0 || !area.prepared()) return;
  std::vector<std::int32_t> stack{root_};
  while (!stack.empty()) {
    const std::int32_t node_id = stack.back();
    stack.pop_back();
    if (stats != nullptr) ++stats->node_accesses;
    const Node& node = nodes_[node_id];
    switch (area.ClassifyBox(node.bounds)) {
      case PreparedArea::Region::kOutside:
        continue;
      case PreparedArea::Region::kInside:
        // Every node records its subtree's id range, so a fully-inside
        // subtree bulk-accepts as one contiguous copy with no point tests.
        out->insert(out->end(), ids_.begin() + node.begin,
                    ids_.begin() + node.end);
        if (stats != nullptr) {
          stats->entries_reported += node.end - node.begin;
          stats->bulk_accepted += node.end - node.begin;
        }
        continue;
      case PreparedArea::Region::kStraddling:
        break;
    }
    if (node.left < 0) {
      for (std::uint32_t i = node.begin; i < node.end; ++i) {
        if (area.Contains(points_[ids_[i]])) {
          out->push_back(ids_[i]);
          if (stats != nullptr) ++stats->entries_reported;
        }
      }
    } else {
      stack.push_back(node.left);
      stack.push_back(node.right);
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

void KDTree::KNearestNeighbors(const Point& q, std::size_t k,
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
      if (node.left < 0) {
        for (std::uint32_t i = node.begin; i < node.end; ++i) {
          pq.push(QueueItem{SquaredDistance(points_[ids_[i]], q), false,
                            static_cast<std::int32_t>(ids_[i])});
        }
      } else {
        pq.push(QueueItem{nodes_[node.left].bounds.SquaredDistanceTo(q), true,
                          node.left});
        pq.push(QueueItem{nodes_[node.right].bounds.SquaredDistanceTo(q), true,
                          node.right});
      }
    } else {
      out->push_back(static_cast<PointId>(item.id));
      if (stats != nullptr) ++stats->entries_reported;
      ++found;
    }
  }
}

PointId KDTree::NearestNeighbor(const Point& q, IndexStats* stats) const {
  std::vector<PointId> out;
  KNearestNeighbors(q, 1, &out, stats);
  return out.empty() ? kInvalidPointId : out[0];
}

}  // namespace vaq
