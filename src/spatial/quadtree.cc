// Copyright 2026 The pasjoin Authors.
#include "spatial/quadtree.h"

#include <algorithm>
#include <string>

#include "common/macros.h"

namespace pasjoin::spatial {

Result<QuadTreePartitioner> QuadTreePartitioner::Make(
    const Rect& bounds, const std::vector<Point>& sample,
    const QuadTreeOptions& options) {
  if (options.max_items_per_node <= 0) {
    return Status::InvalidArgument("quadtree max_items_per_node must be > 0");
  }
  if (options.max_depth < 0 || options.max_depth > kMaxDepth) {
    return Status::InvalidArgument(
        "quadtree max_depth must be in [0, " + std::to_string(kMaxDepth) +
        "] so that every leaf id fits a 32-bit partition id");
  }
  return QuadTreePartitioner(bounds, sample, options);
}

QuadTreePartitioner::QuadTreePartitioner(const Rect& bounds,
                                         const std::vector<Point>& sample,
                                         const QuadTreeOptions& options) {
  PASJOIN_CHECK(options.max_items_per_node > 0);
  PASJOIN_CHECK(options.max_depth >= 0 && options.max_depth <= kMaxDepth);
  nodes_.push_back(Node{bounds, -1, -1, 0});
  std::vector<Point> pts = sample;
  Build(0, std::move(pts), 0, options);
}

void QuadTreePartitioner::Build(int32_t node_idx, std::vector<Point>&& pts,
                                int depth, const QuadTreeOptions& options) {
  nodes_[node_idx].sample_count = static_cast<int32_t>(pts.size());
  if (static_cast<int>(pts.size()) <= options.max_items_per_node ||
      depth >= options.max_depth) {
    nodes_[node_idx].partition_id = static_cast<int32_t>(leaves_.size());
    leaves_.push_back(node_idx);
    return;
  }
  const Rect b = nodes_[node_idx].bounds;
  const Point c = b.Center();
  const Rect quads[4] = {
      Rect{b.min_x, b.min_y, c.x, c.y},  // SW
      Rect{c.x, b.min_y, b.max_x, c.y},  // SE
      Rect{b.min_x, c.y, c.x, b.max_y},  // NW
      Rect{c.x, c.y, b.max_x, b.max_y},  // NE
  };
  const int32_t first = static_cast<int32_t>(nodes_.size());
  nodes_[node_idx].first_child = first;
  for (const Rect& q : quads) nodes_.push_back(Node{q, -1, -1, 0});

  std::vector<Point> child_pts[4];
  for (const Point& p : pts) {
    const int qx = p.x >= c.x ? 1 : 0;
    const int qy = p.y >= c.y ? 1 : 0;
    child_pts[qy * 2 + qx].push_back(p);
  }
  pts.clear();
  pts.shrink_to_fit();
  for (int i = 0; i < 4; ++i) {
    Build(first + i, std::move(child_pts[i]), depth + 1, options);
  }
}

int QuadTreePartitioner::PartitionOf(const Point& p) const {
  int32_t idx = 0;
  while (nodes_[idx].partition_id < 0) {
    const Point c = nodes_[idx].bounds.Center();
    const int qx = p.x >= c.x ? 1 : 0;
    const int qy = p.y >= c.y ? 1 : 0;
    idx = nodes_[idx].first_child + qy * 2 + qx;
  }
  return nodes_[idx].partition_id;
}

SmallVector<int32_t, 8> QuadTreePartitioner::PartitionsIntersecting(
    const Rect& query) const {
  SmallVector<int32_t, 8> out;
  SmallVector<int32_t, 8> stack;
  stack.push_back(0);
  while (!stack.empty()) {
    const int32_t idx = stack.back();
    stack.pop_back();
    const Node& node = nodes_[idx];
    if (!node.bounds.Intersects(query)) continue;
    if (node.partition_id >= 0) {
      out.push_back(node.partition_id);
      continue;
    }
    for (int i = 0; i < 4; ++i) stack.push_back(node.first_child + i);
  }
  return out;
}

}  // namespace pasjoin::spatial
