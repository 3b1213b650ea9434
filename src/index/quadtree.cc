#include "index/quadtree.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "geometry/prepared_area.h"

namespace vaq {

Quadtree::Quadtree(int bucket_capacity, int max_depth)
    : bucket_capacity_(bucket_capacity), max_depth_(max_depth) {
  assert(bucket_capacity_ >= 1);
  assert(max_depth_ >= 1);
}

Box Quadtree::ChildBox(const Box& box, int quadrant) {
  const Point c = box.Center();
  switch (quadrant) {
    case 0: return Box{box.min, c};                                  // SW
    case 1: return Box{{c.x, box.min.y}, {box.max.x, c.y}};          // SE
    case 2: return Box{{box.min.x, c.y}, {c.x, box.max.y}};          // NW
    default: return Box{c, box.max};                                 // NE
  }
}

int Quadtree::QuadrantOf(const Box& box, const Point& p) const {
  const Point c = box.Center();
  const int east = p.x >= c.x ? 1 : 0;
  const int north = p.y >= c.y ? 2 : 0;
  return east + north;
}

void Quadtree::Build(std::span<const Point> points) {
  Box world;
  for (const Point& p : points) world.ExpandToInclude(p);
  if (world.Empty()) world = Box{{0, 0}, {1, 1}};
  Build(points, world);
}

void Quadtree::Build(std::span<const Point> points, const Box& world) {
  nodes_.clear();
  world_ = world;
  count_ = 0;
  nodes_.push_back(Node{});
  root_ = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    Insert(points[i], static_cast<PointId>(i));
  }
}

void Quadtree::Insert(const Point& p, PointId id) {
  assert(root_ >= 0 && "call Build before Insert");
  assert(world_.Contains(p) && "point outside quadtree world box");
  InsertInto(root_, world_, Item{p, id}, 0);
  ++count_;
}

void Quadtree::InsertInto(std::int32_t node_id, const Box& box,
                          const Item& item, int depth) {
  while (true) {
    Node& node = nodes_[node_id];
    if (node.leaf) {
      if (node.items.size() <
              static_cast<std::size_t>(bucket_capacity_) ||
          depth >= max_depth_) {
        node.items.push_back(item);
        return;
      }
      // Split: redistribute the bucket into four children.
      std::vector<Item> items = std::move(node.items);
      node.items.clear();
      node.leaf = false;
      for (int q = 0; q < 4; ++q) {
        nodes_.push_back(Node{});
        // nodes_ may have reallocated; node reference is stale now.
        nodes_[node_id].child[q] =
            static_cast<std::int32_t>(nodes_.size() - 1);
      }
      for (const Item& it : items) {
        const int q = QuadrantOf(box, it.point);
        InsertInto(nodes_[node_id].child[q], ChildBox(box, q), it, depth + 1);
      }
      // Fall through: insert `item` into the now-internal node.
    }
    const int q = QuadrantOf(box, item.point);
    const std::int32_t child = nodes_[node_id].child[q];
    node_id = child;
    const Box child_box = ChildBox(box, q);
    // Tail-call style loop.
    return InsertInto(node_id, child_box, item, depth + 1);
  }
}

void Quadtree::WindowQuery(const Box& window, std::vector<PointId>* out,
                           IndexStats* stats) const {
  if (root_ < 0) return;
  struct Frame {
    std::int32_t id;
    Box box;
  };
  std::vector<Frame> stack{{root_, world_}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    // The root page is always read; children are pruned by their (derived)
    // quadrant boxes before being visited.
    if (stats != nullptr) ++stats->node_accesses;
    const Node& node = nodes_[f.id];
    if (node.leaf) {
      for (const Item& it : node.items) {
        if (window.Contains(it.point)) {
          out->push_back(it.id);
          if (stats != nullptr) ++stats->entries_reported;
        }
      }
    } else {
      for (int q = 0; q < 4; ++q) {
        const Box child_box = ChildBox(f.box, q);
        if (window.Intersects(child_box)) {
          stack.push_back({node.child[q], child_box});
        }
      }
    }
  }
}

void Quadtree::PolygonQuery(const PreparedArea& area,
                            std::vector<PointId>* out,
                            IndexStats* stats) const {
  if (root_ < 0 || !area.prepared()) return;
  struct Frame {
    std::int32_t id;
    Box box;
    bool inside;  // An ancestor quadrant classified fully inside.
  };
  std::vector<Frame> stack{{root_, world_, false}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (stats != nullptr) ++stats->node_accesses;
    const Node& node = nodes_[f.id];
    if (node.leaf) {
      for (const Item& it : node.items) {
        if (f.inside || area.Contains(it.point)) {
          out->push_back(it.id);
          if (stats != nullptr) {
            ++stats->entries_reported;
            if (f.inside) ++stats->bulk_accepted;
          }
        }
      }
    } else {
      for (int q = 0; q < 4; ++q) {
        const Box child_box = ChildBox(f.box, q);
        if (f.inside) {
          stack.push_back({node.child[q], child_box, true});
          continue;
        }
        switch (area.ClassifyBox(child_box)) {
          case PreparedArea::Region::kOutside:
            break;
          case PreparedArea::Region::kInside:
            stack.push_back({node.child[q], child_box, true});
            break;
          case PreparedArea::Region::kStraddling:
            stack.push_back({node.child[q], child_box, false});
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
  Box box;  // Node box when is_node.
  bool operator>(const QueueItem& o) const { return dist2 > o.dist2; }
};
}  // namespace

void Quadtree::KNearestNeighbors(const Point& q, std::size_t k,
                                 std::vector<PointId>* out,
                                 IndexStats* stats) const {
  if (root_ < 0 || k == 0 || count_ == 0) return;
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>> pq;
  pq.push(QueueItem{world_.SquaredDistanceTo(q), true, root_, world_});
  std::size_t found = 0;
  while (!pq.empty() && found < k) {
    const QueueItem item = pq.top();
    pq.pop();
    if (item.is_node) {
      if (stats != nullptr) ++stats->node_accesses;
      const Node& node = nodes_[item.id];
      if (node.leaf) {
        for (const Item& it : node.items) {
          pq.push(QueueItem{SquaredDistance(it.point, q), false,
                            static_cast<std::int32_t>(it.id), Box{}});
        }
      } else {
        for (int c = 0; c < 4; ++c) {
          const Box child_box = ChildBox(item.box, c);
          pq.push(QueueItem{child_box.SquaredDistanceTo(q), true,
                            node.child[c], child_box});
        }
      }
    } else {
      out->push_back(static_cast<PointId>(item.id));
      if (stats != nullptr) ++stats->entries_reported;
      ++found;
    }
  }
}

PointId Quadtree::NearestNeighbor(const Point& q, IndexStats* stats) const {
  std::vector<PointId> out;
  KNearestNeighbors(q, 1, &out, stats);
  return out.empty() ? kInvalidPointId : out[0];
}

}  // namespace vaq
