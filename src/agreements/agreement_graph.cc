// Copyright 2026 The pasjoin Authors.
#include "agreements/agreement_graph.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/macros.h"
#include "common/rng.h"

namespace pasjoin::agreements {

using grid::CellId;
using grid::DirIndex;
using grid::Grid;
using grid::GridStats;
using grid::QuartetId;

const char* MarkingOrderName(MarkingOrder order) {
  switch (order) {
    case MarkingOrder::kPaper:
      return "paper";
    case MarkingOrder::kWeightDescending:
      return "weight-desc";
    case MarkingOrder::kIndexOrder:
      return "index";
  }
  return "?";
}

const char* PolicyName(Policy p) {
  switch (p) {
    case Policy::kLPiB:
      return "LPiB";
    case Policy::kDiff:
      return "DIFF";
    case Policy::kUniformR:
      return "UNI(R)";
    case Policy::kUniformS:
      return "UNI(S)";
  }
  return "?";
}

AgreementGraph::AgreementGraph(const Grid* grid, Policy policy,
                               AgreementType tie_break)
    : grid_(grid), policy_(policy), tie_break_(tie_break) {}

AgreementType AgreementGraph::DecideByDiff(const GridStats& stats, CellId a,
                                           CellId b) const {
  // The cell with the greatest |#R - #S| decides; the agreement replicates
  // the set with the fewest points in that cell (Section 4.3, DIFF).
  const int64_t ra = stats.CellCount(Side::kR, a);
  const int64_t sa = stats.CellCount(Side::kS, a);
  const int64_t rb = stats.CellCount(Side::kR, b);
  const int64_t sb = stats.CellCount(Side::kS, b);
  const int64_t diff_a = std::llabs(ra - sa);
  const int64_t diff_b = std::llabs(rb - sb);
  // An exact diff tie is resolved by the smaller CellId, not by argument
  // order, so that DecideByDiff(a, b) == DecideByDiff(b, a).
  const bool a_decides = diff_a != diff_b ? diff_a > diff_b : a < b;
  const int64_t decider_r = a_decides ? ra : rb;
  const int64_t decider_s = a_decides ? sa : sb;
  if (decider_r < decider_s) return AgreementType::kReplicateR;
  if (decider_s < decider_r) return AgreementType::kReplicateS;
  return tie_break_;
}

AgreementType AgreementGraph::DecidePairType(const GridStats& stats, CellId a,
                                             CellId b, int dir_ab) const {
  switch (policy_) {
    case Policy::kUniformR:
      return AgreementType::kReplicateR;
    case Policy::kUniformS:
      return AgreementType::kReplicateS;
    case Policy::kLPiB: {
      // Replicate the set with the fewest replication candidates in the
      // boundary areas of the two cells; an uninformative (tied) sample
      // defers to the DIFF criterion.
      int dx, dy;
      grid::DirOffset(dir_ab, &dx, &dy);
      const int dir_ba = DirIndex(-dx, -dy);
      const uint64_t cand_r = stats.BandCount(Side::kR, a, dir_ab) +
                              stats.BandCount(Side::kR, b, dir_ba);
      const uint64_t cand_s = stats.BandCount(Side::kS, a, dir_ab) +
                              stats.BandCount(Side::kS, b, dir_ba);
      if (cand_r < cand_s) return AgreementType::kReplicateR;
      if (cand_s < cand_r) return AgreementType::kReplicateS;
      return DecideByDiff(stats, a, b);
    }
    case Policy::kDiff:
      return DecideByDiff(stats, a, b);
  }
  return tie_break_;
}

AgreementGraph AgreementGraph::PrepareBuild(const Grid& grid, Policy policy,
                                            AgreementType tie_break) {
  AgreementGraph g(&grid, policy, tie_break);
  const int nx = grid.nx();
  const int ny = grid.ny();
  g.htype_.resize(static_cast<size_t>(std::max(0, nx - 1)) * ny);
  g.vtype_.resize(static_cast<size_t>(nx) * std::max(0, ny - 1));
  g.subgraphs_.resize(static_cast<size_t>(grid.num_quartets()));
  return g;
}

void AgreementGraph::DecidePairRange(const GridStats& stats, int begin,
                                     int end) {
  // Slot layout: horizontal pairs [0, H), then vertical pairs [H, H + V).
  // Horizontal slot cx + cy * (nx - 1) covers (cx, cy)-(cx+1, cy); vertical
  // slot cx + cy * nx covers (cx, cy)-(cx, cy+1). Build step 1.
  const Grid& grid = *grid_;
  const int nx = grid.nx();
  const int h = static_cast<int>(htype_.size());
  PASJOIN_DCHECK(begin >= 0 && begin <= end && end <= NumPairSlots());
  for (int idx = begin; idx < end; ++idx) {
    if (idx < h) {
      const int cx = idx % (nx - 1);
      const int cy = idx / (nx - 1);
      const CellId a = grid.CellIdOf(cx, cy);
      const CellId b = grid.CellIdOf(cx + 1, cy);
      htype_[static_cast<size_t>(idx)] =
          DecidePairType(stats, a, b, DirIndex(1, 0));
    } else {
      const int v = idx - h;
      const int cx = v % nx;
      const int cy = v / nx;
      const CellId a = grid.CellIdOf(cx, cy);
      const CellId b = grid.CellIdOf(cx, cy + 1);
      vtype_[static_cast<size_t>(v)] =
          DecidePairType(stats, a, b, DirIndex(0, 1));
    }
  }
}

void AgreementGraph::MaterializeSubgraphRange(const GridStats& stats,
                                              QuartetId begin, QuartetId end) {
  // Build step 2: copy the pair types of the quartet's four side pairs,
  // decide its two diagonal pairs, and compute edge weights.
  const Grid& grid = *grid_;
  const AgreementGraph& g = *this;
  const int nx = grid.nx();
  PASJOIN_DCHECK(begin >= 0 && begin <= end &&
                 end <= static_cast<QuartetId>(subgraphs_.size()));
  for (QuartetId q = begin; q < end; ++q) {
    QuartetSubgraph& sub = subgraphs_[q];
    sub.id = q;
    sub.ref = grid.QuartetRefPoint(q);
    for (int which = 0; which < 4; ++which) {
      sub.cells[which] = grid.QuartetCellId(q, which);
    }
    // Pair types. Positions: kSW=0, kSE=1, kNW=2, kNE=3.
    auto set_pair = [&sub](int i, int j, AgreementType t) {
      sub.type[i][j] = t;
      sub.type[j][i] = t;
    };
    const int qx = grid.QuartetX(q);
    const int qy = grid.QuartetY(q);
    // Horizontal side pairs (SW,SE) and (NW,NE).
    set_pair(grid::kSW, grid::kSE,
             g.htype_[(qx - 1) + static_cast<size_t>(qy - 1) * (nx - 1)]);
    set_pair(grid::kNW, grid::kNE,
             g.htype_[(qx - 1) + static_cast<size_t>(qy) * (nx - 1)]);
    // Vertical side pairs (SW,NW) and (SE,NE).
    set_pair(grid::kSW, grid::kNW,
             g.vtype_[(qx - 1) + static_cast<size_t>(qy - 1) * nx]);
    set_pair(grid::kSE, grid::kNE,
             g.vtype_[qx + static_cast<size_t>(qy - 1) * nx]);
    // Diagonal pairs, owned by this quartet alone.
    set_pair(grid::kSW, grid::kNE,
             g.DecidePairType(stats, sub.cells[grid::kSW], sub.cells[grid::kNE],
                              DirIndex(1, 1)));
    set_pair(grid::kSE, grid::kNW,
             g.DecidePairType(stats, sub.cells[grid::kSE], sub.cells[grid::kNW],
                              DirIndex(-1, 1)));

    // Edge weights (Example 4.4): for e_ij of type tau, weight = number of
    // tau-side replication candidates in i toward j, times the number of
    // points of the other side in j. Quartets with no sampled points keep
    // zero weights without touching the band counters.
    bool any_samples = false;
    for (int which = 0; which < 4 && !any_samples; ++which) {
      any_samples = stats.CellCount(Side::kR, sub.cells[which]) > 0 ||
                    stats.CellCount(Side::kS, sub.cells[which]) > 0;
    }
    if (!any_samples) continue;
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i == j) continue;
        const int dxi = grid.CellX(sub.cells[j]) - grid.CellX(sub.cells[i]);
        const int dyi = grid.CellY(sub.cells[j]) - grid.CellY(sub.cells[i]);
        const Side rep = ReplicatedSide(sub.type[i][j]);
        const uint64_t candidates =
            stats.BandCount(rep, sub.cells[i], DirIndex(dxi, dyi));
        const uint64_t targets =
            stats.CellCount(OtherSide(rep), sub.cells[j]);
        sub.edge[i][j].weight = static_cast<float>(candidates) *
                                static_cast<float>(targets);
      }
    }
  }
}

AgreementGraph AgreementGraph::Build(const Grid& grid, const GridStats& stats,
                                     Policy policy, AgreementType tie_break) {
  AgreementGraph g = PrepareBuild(grid, policy, tie_break);
  g.DecidePairRange(stats, 0, g.NumPairSlots());
  g.MaterializeSubgraphRange(stats, 0,
                             static_cast<grid::QuartetId>(grid.num_quartets()));
  return g;
}

AgreementType AgreementGraph::PairTypeToward(CellId cell, int dx, int dy) const {
  PASJOIN_DCHECK((dx == 0) != (dy == 0));
  const int cx = grid_->CellX(cell);
  const int cy = grid_->CellY(cell);
  if (dx != 0) {
    const int left = dx > 0 ? cx : cx - 1;
    PASJOIN_DCHECK(left >= 0 && left < grid_->nx() - 1);
    return htype_[left + static_cast<size_t>(cy) * (grid_->nx() - 1)];
  }
  const int bottom = dy > 0 ? cy : cy - 1;
  PASJOIN_DCHECK(bottom >= 0 && bottom < grid_->ny() - 1);
  return vtype_[cx + static_cast<size_t>(bottom) * grid_->nx()];
}

namespace {

/// True when the pair (i, j) is a diagonal pair of the quartet.
inline bool IsDiagonalPair(int i, int j) { return j == grid::DiagonalOf(i); }

struct EdgeRef {
  int i;
  int j;
  float weight;
  bool diagonal;
};

}  // namespace

void AgreementGraph::MarkSubgraph(QuartetSubgraph* sub, MarkingOrder order) {
  // Uniform subgraphs (a single agreement type) contain no mixed triangle
  // and need no marking (Section 4.4); this covers the vast majority of
  // quartets in sparsely populated regions, where every pair defaults to
  // the tie-break type.
  const AgreementType first = sub->type[0][1];
  bool uniform = true;
  for (int i = 0; i < 4 && uniform; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      if (sub->type[i][j] != first) {
        uniform = false;
        break;
      }
    }
  }
  if (uniform) return;

  // Collect the 12 directed edges, ordered: diagonal-pair edges first (their
  // marking needs no supplementary replication, Corollary 4.9), then side
  // edges; descending weight within each group; ties by (i, j) for
  // determinism (Section 5.2).
  std::array<EdgeRef, 12> edges;
  int n = 0;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i == j) continue;
      edges[n++] = EdgeRef{i, j, sub->edge[i][j].weight, IsDiagonalPair(i, j)};
    }
  }
  std::sort(edges.begin(), edges.end(),
            [order](const EdgeRef& a, const EdgeRef& b) {
              if (order == MarkingOrder::kPaper && a.diagonal != b.diagonal) {
                return a.diagonal;
              }
              if (order != MarkingOrder::kIndexOrder && a.weight != b.weight) {
                return a.weight > b.weight;
              }
              if (a.i != b.i) return a.i < b.i;
              return a.j < b.j;
            });

  for (const EdgeRef& e : edges) {
    EdgeState& eij = sub->edge[e.i][e.j];
    if (eij.locked) continue;
    // The two triangles containing edge (i, j) are completed by the two
    // remaining cells.
    int ks[2];
    int kn = 0;
    for (int k = 0; k < 4; ++k) {
      if (k != e.i && k != e.j) ks[kn++] = k;
    }
    PASJOIN_DCHECK(kn == 2);
    // Eligibility (Algorithm 1 lines 5-6): the triangle carries both
    // agreement types with i as the problem vertex, and neither edge that
    // would be locked is already marked.
    auto eligible = [&](int k) {
      return sub->type[e.i][k] == sub->type[e.i][e.j] &&
             sub->type[e.j][k] != sub->type[e.i][e.j] &&
             !sub->edge[e.j][k].marked && !sub->edge[e.i][k].marked;
    };
    const bool ok0 = eligible(ks[0]);
    const bool ok1 = eligible(ks[1]);
    if (!ok0 && !ok1) continue;
    int k;
    if (ok0 && ok1) {
      // Both triangles eligible: pick the one whose to-be-locked edges have
      // the largest weight sum (Section 5.2, special case).
      const float sum0 =
          sub->edge[e.j][ks[0]].weight + sub->edge[e.i][ks[0]].weight;
      const float sum1 =
          sub->edge[e.j][ks[1]].weight + sub->edge[e.i][ks[1]].weight;
      k = sum0 >= sum1 ? ks[0] : ks[1];
    } else {
      k = ok0 ? ks[0] : ks[1];
    }
    eij.marked = true;
    sub->edge[e.j][k].locked = true;
    sub->edge[e.i][k].locked = true;
  }
}

void AgreementGraph::MarkQuartets(const QuartetId* ids, size_t n,
                                  MarkingOrder order) {
  for (size_t i = 0; i < n; ++i) {
    PASJOIN_DCHECK(ids[i] >= 0 &&
                   ids[i] < static_cast<QuartetId>(subgraphs_.size()));
    MarkSubgraph(&subgraphs_[static_cast<size_t>(ids[i])], order);
  }
}

void AgreementGraph::RunDuplicateFreeMarking(MarkingOrder order) {
  if (marking_done_) return;
  for (QuartetSubgraph& sub : subgraphs_) MarkSubgraph(&sub, order);
  marking_done_ = true;
}

void AgreementGraph::SetHorizontalPairType(int cx, int cy, AgreementType t) {
  PASJOIN_CHECK(cx >= 0 && cx < grid_->nx() - 1 && cy >= 0 && cy < grid_->ny());
  PASJOIN_CHECK(!marking_done_);
  htype_[cx + static_cast<size_t>(cy) * (grid_->nx() - 1)] = t;
  // Update the subgraph copies in the quartets below and above the pair.
  auto update = [&](int qx, int qy, int a, int b) {
    const QuartetId q = grid_->QuartetIdOf(qx, qy);
    if (q == grid::kInvalidId) return;
    subgraphs_[q].type[a][b] = t;
    subgraphs_[q].type[b][a] = t;
  };
  update(cx + 1, cy, grid::kNW, grid::kNE);      // quartet below the pair
  update(cx + 1, cy + 1, grid::kSW, grid::kSE);  // quartet above the pair
}

void AgreementGraph::SetVerticalPairType(int cx, int cy, AgreementType t) {
  PASJOIN_CHECK(cx >= 0 && cx < grid_->nx() && cy >= 0 && cy < grid_->ny() - 1);
  PASJOIN_CHECK(!marking_done_);
  vtype_[cx + static_cast<size_t>(cy) * grid_->nx()] = t;
  auto update = [&](int qx, int qy, int a, int b) {
    const QuartetId q = grid_->QuartetIdOf(qx, qy);
    if (q == grid::kInvalidId) return;
    subgraphs_[q].type[a][b] = t;
    subgraphs_[q].type[b][a] = t;
  };
  update(cx, cy + 1, grid::kSE, grid::kNE);      // quartet left of the pair
  update(cx + 1, cy + 1, grid::kSW, grid::kNW);  // quartet right of the pair
}

void AgreementGraph::SetDiagonalPairType(QuartetId q, int which_diagonal,
                                         AgreementType t) {
  PASJOIN_CHECK(q >= 0 && q < static_cast<QuartetId>(subgraphs_.size()));
  PASJOIN_CHECK(!marking_done_);
  QuartetSubgraph& sub = subgraphs_[q];
  const int a = which_diagonal == 0 ? grid::kSW : grid::kSE;
  const int b = grid::DiagonalOf(a);
  sub.type[a][b] = t;
  sub.type[b][a] = t;
}

void AgreementGraph::RandomizeForTesting(uint64_t seed) {
  PASJOIN_CHECK(!marking_done_);
  Rng rng(seed);
  auto flip = [&rng](AgreementType t) {
    if (!rng.NextBernoulli(0.5)) return t;
    return t == AgreementType::kReplicateR ? AgreementType::kReplicateS
                                           : AgreementType::kReplicateR;
  };
  for (int cy = 0; cy < grid_->ny(); ++cy) {
    for (int cx = 0; cx + 1 < grid_->nx(); ++cx) {
      SetHorizontalPairType(
          cx, cy, flip(htype_[cx + static_cast<size_t>(cy) * (grid_->nx() - 1)]));
    }
  }
  for (int cy = 0; cy + 1 < grid_->ny(); ++cy) {
    for (int cx = 0; cx < grid_->nx(); ++cx) {
      SetVerticalPairType(cx, cy,
                          flip(vtype_[cx + static_cast<size_t>(cy) * grid_->nx()]));
    }
  }
  for (QuartetSubgraph& sub : subgraphs_) {
    SetDiagonalPairType(sub.id, 0, flip(sub.type[grid::kSW][grid::kNE]));
    SetDiagonalPairType(sub.id, 1, flip(sub.type[grid::kSE][grid::kNW]));
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i != j) {
          sub.edge[i][j].weight =
              static_cast<float>(rng.NextBounded(1000));
        }
      }
    }
  }
}

size_t AgreementGraph::CountMarked() const {
  size_t n = 0;
  for (const QuartetSubgraph& sub : subgraphs_) {
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i != j && sub.edge[i][j].marked) ++n;
      }
    }
  }
  return n;
}

size_t AgreementGraph::CountLocked() const {
  size_t n = 0;
  for (const QuartetSubgraph& sub : subgraphs_) {
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        if (i != j && sub.edge[i][j].locked) ++n;
      }
    }
  }
  return n;
}

}  // namespace pasjoin::agreements
