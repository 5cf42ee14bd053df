// Copyright 2026 The pasjoin Authors.
//
// A bulk-loaded (Sort-Tile-Recursive) R-tree over points, and the R-tree
// probe join the Sedona-like baseline runs per partition: Sedona builds an
// R-tree on the larger data set and probes it with eps-range queries from
// the other set.
#ifndef PASJOIN_SPATIAL_RTREE_H_
#define PASJOIN_SPATIAL_RTREE_H_

#include <cstdint>
#include <vector>

#include "common/geometry.h"
#include "common/tuple.h"
#include "spatial/local_join.h"

namespace pasjoin::spatial {

/// An immutable STR-packed R-tree over a point set.
class RTree {
 public:
  /// Maximum children per node.
  static constexpr int kFanout = 16;

  /// Bulk-loads the tree over `points`. The tree stores indexes into the
  /// caller's vector, which must stay alive and unmodified while queries run.
  explicit RTree(const std::vector<Tuple>& points);

  /// Invokes `visit(const Tuple&)` for every point within distance `eps` of
  /// `center`. Returns the number of leaf entries whose exact distance was
  /// evaluated (candidates).
  template <typename Visit>
  uint64_t RangeQuery(const Point& center, double eps, Visit&& visit) const {
    if (nodes_.empty()) return 0;
    uint64_t candidates = 0;
    RangeQueryNode(root_, center, eps, eps * eps, &candidates, visit);
    return candidates;
  }

  /// Number of indexed points.
  size_t size() const { return points_ != nullptr ? points_->size() : 0; }

  /// Tree height (0 for an empty tree, 1 for a single leaf).
  int height() const { return height_; }

 private:
  struct Node {
    Rect bounds;
    /// Children: indexes into nodes_ (internal) or points (leaf).
    int32_t first = 0;
    int32_t count = 0;
    bool leaf = true;
  };

  template <typename Visit>
  void RangeQueryNode(int32_t node_idx, const Point& center, double eps,
                      double eps2, uint64_t* candidates, Visit&& visit) const {
    const Node& node = nodes_[node_idx];
    if (SquaredMinDist(center, node.bounds) > eps2) return;
    if (node.leaf) {
      for (int32_t i = 0; i < node.count; ++i) {
        const Tuple& t = (*points_)[entry_order_[node.first + i]];
        ++*candidates;
        if (SquaredDistance(center, t.pt) <= eps2) visit(t);
      }
      return;
    }
    for (int32_t i = 0; i < node.count; ++i) {
      RangeQueryNode(node.first + i, center, eps, eps2, candidates, visit);
    }
  }

  const std::vector<Tuple>* points_ = nullptr;
  /// Permutation of point indexes, grouped into leaves by the STR layout.
  std::vector<int32_t> entry_order_;
  std::vector<Node> nodes_;
  int32_t root_ = 0;
  int height_ = 0;
};

/// R-tree probe join: bulk-loads an R-tree over `r` when `index_r`, else
/// over `s`, probes it with an eps-range query per tuple of the other side,
/// and calls `emit(const Tuple& r, const Tuple& s)` per match. Candidates
/// are the leaf entries whose exact distance was evaluated. Polls `cancel`
/// between probes once kKernelPollGrain units of work (candidates plus one
/// per probe) accumulated; returns partial counters when cancelled (see
/// KernelCancellation).
template <typename Emit>
JoinCounters RTreeProbeJoin(const std::vector<Tuple>& r,
                            const std::vector<Tuple>& s, double eps,
                            bool index_r, Emit&& emit,
                            const KernelCancellation* cancel = nullptr) {
  JoinCounters counters;
  if (r.empty() || s.empty()) return counters;
  const RTree tree(index_r ? r : s);
  uint64_t since_poll = 0;
  for (const Tuple& q : index_r ? s : r) {
    const uint64_t found = tree.RangeQuery(q.pt, eps, [&](const Tuple& hit) {
      ++counters.results;
      if (index_r) {
        emit(hit, q);
      } else {
        emit(q, hit);
      }
    });
    counters.candidates += found;
    if (cancel != nullptr && (since_poll += found + 1) >= kKernelPollGrain) {
      cancel->Pulse(since_poll);
      since_poll = 0;
      if (cancel->ShouldStop()) return counters;
    }
  }
  if (cancel != nullptr) cancel->Pulse(since_poll);
  return counters;
}

}  // namespace pasjoin::spatial

#endif  // PASJOIN_SPATIAL_RTREE_H_
