// Copyright 2026 The pasjoin Authors.
//
// Conflict-free coloring of the quartet-adjacency graph, the scheduling
// substrate for parallel agreement-graph planning (docs/PARALLELISM.md §9).
//
// Two quartets CONFLICT when they share a side-adjacent cell pair (a
// horizontal or vertical pair edge): the pair's agreement type is stored
// once globally and copied into both owning subgraphs, so any future
// mutation of shared pair state from two quartets at once would race.
// In the quartet lattice that is exactly 4-neighborhood adjacency —
// quartets (qx, qy) and (qx', qy') conflict iff |qx-qx'| + |qy-qy'| == 1.
// Diagonally touching quartets share only a cell, never a pair edge, and
// do NOT conflict.
//
// The coloring is produced by deterministic greedy first-fit in ascending
// quartet-id order (the classic sequential greedy of parallel-coloring
// literature); on the 4-neighbor lattice it converges to the checkerboard
// 2-coloring by (qx + qy) parity. The planner processes colors as
// sequential barriers and marks all quartets of one color in parallel:
// no two concurrently processed subgraphs ever share a pair edge.
#ifndef PASJOIN_AGREEMENTS_COLORING_H_
#define PASJOIN_AGREEMENTS_COLORING_H_

#include <cstdint>
#include <vector>

#include "grid/grid.h"

namespace pasjoin::agreements {

/// A proper coloring of the quartet conflict graph: adjacent (pair-edge
/// sharing) quartets always receive different colors. Immutable after
/// Build; safe to read from any number of threads.
class QuartetColoring {
 public:
  /// Greedy first-fit coloring in ascending quartet-id order. Deterministic:
  /// the same grid always yields the same colors, independent of threads.
  static QuartetColoring Build(const grid::Grid& grid);

  /// Number of colors used (0 for a grid without quartets, else <= 5 by
  /// the greedy bound on a degree-4 lattice; 2 in practice).
  int num_colors() const { return num_colors_; }

  /// Color of quartet `q` in [0, num_colors()).
  int ColorOf(grid::QuartetId q) const {
    return color_[static_cast<size_t>(q)];
  }

  /// The quartets of one color class, in ascending quartet-id order.
  const std::vector<grid::QuartetId>& QuartetsOfColor(int color) const {
    return by_color_[static_cast<size_t>(color)];
  }

  /// True when no two conflicting quartets share a color (self-check used
  /// by tests; Build always returns a validating coloring).
  bool Validate(const grid::Grid& grid) const;

 private:
  QuartetColoring() = default;

  int num_colors_ = 0;
  /// Per-quartet color, indexed by QuartetId.
  std::vector<int32_t> color_;
  /// Color classes, each in ascending quartet-id order.
  std::vector<std::vector<grid::QuartetId>> by_color_;
};

}  // namespace pasjoin::agreements

#endif  // PASJOIN_AGREEMENTS_COLORING_H_
