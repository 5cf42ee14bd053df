// Copyright 2026 The pasjoin Authors.
#include "agreements/coloring.h"

#include <array>

namespace pasjoin::agreements {

namespace {

/// The conflict neighborhood of quartet `q`: quartets sharing a side-pair
/// edge, i.e. the 4-neighbors in the quartet lattice. Writes up to 4 ids
/// into `out` and returns how many. Quartet coordinates run over
/// [1, nx-1) x [1, ny-1) (see grid::Grid::QuartetX/QuartetY).
int ConflictNeighbors(const grid::Grid& grid, grid::QuartetId q,
                      std::array<grid::QuartetId, 4>* out) {
  const int qx = grid.QuartetX(q);
  const int qy = grid.QuartetY(q);
  const int qnx = grid.nx() - 1;
  int n = 0;
  if (qx > 1) (*out)[n++] = q - 1;
  if (qx < grid.nx() - 1) (*out)[n++] = q + 1;
  if (qy > 1) (*out)[n++] = q - qnx;
  if (qy < grid.ny() - 1) (*out)[n++] = q + qnx;
  return n;
}

}  // namespace

QuartetColoring QuartetColoring::Build(const grid::Grid& grid) {
  QuartetColoring coloring;
  const auto num_quartets = static_cast<grid::QuartetId>(grid.num_quartets());
  coloring.color_.assign(static_cast<size_t>(num_quartets), -1);
  std::array<grid::QuartetId, 4> nbr;
  for (grid::QuartetId q = 0; q < num_quartets; ++q) {
    // First-fit: smallest color unused by an already-colored neighbor.
    // Degree <= 4, so 5 candidate colors always suffice.
    bool used[5] = {false, false, false, false, false};
    const int n = ConflictNeighbors(grid, q, &nbr);
    for (int i = 0; i < n; ++i) {
      const int32_t c = coloring.color_[static_cast<size_t>(nbr[i])];
      if (c >= 0) used[c] = true;
    }
    int32_t chosen = 0;
    while (used[chosen]) ++chosen;
    coloring.color_[static_cast<size_t>(q)] = chosen;
    if (chosen >= coloring.num_colors_) coloring.num_colors_ = chosen + 1;
  }
  coloring.by_color_.resize(static_cast<size_t>(coloring.num_colors_));
  for (grid::QuartetId q = 0; q < num_quartets; ++q) {
    coloring.by_color_[static_cast<size_t>(coloring.color_[static_cast<size_t>(q)])]
        .push_back(q);
  }
  return coloring;
}

bool QuartetColoring::Validate(const grid::Grid& grid) const {
  if (color_.size() != static_cast<size_t>(grid.num_quartets())) return false;
  std::array<grid::QuartetId, 4> nbr;
  for (grid::QuartetId q = 0; q < grid.num_quartets(); ++q) {
    const int32_t c = color_[static_cast<size_t>(q)];
    if (c < 0 || c >= num_colors_) return false;
    const int n = ConflictNeighbors(grid, q, &nbr);
    for (int i = 0; i < n; ++i) {
      if (color_[static_cast<size_t>(nbr[i])] == c) return false;
    }
  }
  size_t total = 0;
  for (const auto& bucket : by_color_) {
    for (size_t i = 0; i < bucket.size(); ++i) {
      if (ColorOf(bucket[i]) < 0) return false;
      if (i > 0 && bucket[i - 1] >= bucket[i]) return false;
    }
    total += bucket.size();
  }
  return total == color_.size();
}

}  // namespace pasjoin::agreements
