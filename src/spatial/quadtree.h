// Copyright 2026 The pasjoin Authors.
//
// A point-quadtree space partitioner, mirroring Apache Sedona's QuadTree
// partitioning scheme: the tree is built on the driver from a data sample,
// its leaves become the workload partitions, and objects are assigned to
// every leaf their (eps-expanded) envelope intersects.
#ifndef PASJOIN_SPATIAL_QUADTREE_H_
#define PASJOIN_SPATIAL_QUADTREE_H_

#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "common/small_vector.h"
#include "common/status.h"

namespace pasjoin::spatial {

/// Configuration of the quadtree build.
struct QuadTreeOptions {
  /// A node splits when it holds more than this many sample points.
  int max_items_per_node = 256;
  /// Maximum tree depth (root is depth 0).
  int max_depth = 12;
};

/// A quadtree whose leaves define space partitions.
class QuadTreePartitioner {
 public:
  /// Deepest tree the factory accepts: 4^15 leaves still fit the engine's
  /// 32-bit PartitionId.
  static constexpr int kMaxDepth = 15;

  /// Builds the tree over `sample` within `bounds`. Fails with
  /// InvalidArgument unless max_items_per_node > 0 and max_depth is in
  /// [0, kMaxDepth], so every leaf id fits a PartitionId.
  [[nodiscard]] static Result<QuadTreePartitioner> Make(
      const Rect& bounds, const std::vector<Point>& sample,
      const QuadTreeOptions& options = {});

  /// As Make, for options known to be valid (checked; aborts otherwise).
  QuadTreePartitioner(const Rect& bounds, const std::vector<Point>& sample,
                      const QuadTreeOptions& options = {});

  /// Number of leaf partitions.
  int num_partitions() const { return static_cast<int>(leaves_.size()); }

  /// Extent of leaf partition `id`.
  const Rect& PartitionBounds(int id) const { return nodes_[leaves_[id]].bounds; }

  /// The single partition containing `p` (points outside the root bounds are
  /// clamped to the nearest leaf).
  int PartitionOf(const Point& p) const;

  /// All partitions whose extent intersects `query` (used to replicate the
  /// eps-buffered side). At most a handful for realistic eps.
  SmallVector<int32_t, 8> PartitionsIntersecting(const Rect& query) const;

 private:
  struct Node {
    Rect bounds;
    /// Index of the first of 4 children in nodes_; -1 for leaves.
    int32_t first_child = -1;
    /// Leaf partition id; -1 for internal nodes.
    int32_t partition_id = -1;
    int32_t sample_count = 0;
  };

  void Build(int32_t node_idx, std::vector<Point>&& pts, int depth,
             const QuadTreeOptions& options);

  std::vector<Node> nodes_;
  std::vector<int32_t> leaves_;  // node index per partition id
};

}  // namespace pasjoin::spatial

#endif  // PASJOIN_SPATIAL_QUADTREE_H_
