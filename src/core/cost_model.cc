// Copyright 2026 The pasjoin Authors.
#include "core/cost_model.h"

#include <algorithm>

#include "common/macros.h"
#include "common/str_append.h"

namespace pasjoin::core {

using agreements::AgreementGraph;
using agreements::AgreementType;
using agreements::Policy;
using agreements::ReplicatedSide;
using grid::CellId;
using grid::DirIndex;

std::string CostPrediction::ToString() const {
  // Built on string appends: %.0f of a large replica estimate expands to
  // hundreds of digits, which a fixed 256-byte snprintf buffer silently
  // truncated (the same bug class JobMetrics::ToString had before PR 5).
  std::string out;
  AppendF(&out, "repl=%.0f (R %.0f / S %.0f) shuffled=%.0f ", ReplicatedTotal(),
          replicated_r, replicated_s, shuffled_tuples);
  AppendF(&out, "candidates=%.3e max-cell=%.3e", total_candidates,
          max_cell_candidates);
  return out;
}

namespace {

/// Estimated points of `side` in cell `cell` after replication: natives plus
/// inbound band points from every neighbor whose pair agreement replicates
/// `side` toward `cell`.
/// Returns the estimate in *population* units (sample counts times the
/// stats' scale factor).
double EstimatedSideInCell(const grid::Grid& grid, const grid::GridStats& stats,
                           const AgreementGraph& graph, Side side,
                           CellId cell) {
  const int cx = grid.CellX(cell);
  const int cy = grid.CellY(cell);
  double total = stats.CellCount(side, cell);
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      if (dx == 0 && dy == 0) continue;
      const int nx = cx + dx;
      const int ny = cy + dy;
      if (!grid.HasCell(nx, ny)) continue;
      // Agreement between `cell` and the neighbor. For diagonal neighbors
      // the pair is owned by the quartet at the shared corner.
      AgreementType type;
      if (dx != 0 && dy != 0) {
        const int qx = cx + (dx > 0 ? 1 : 0);
        const int qy = cy + (dy > 0 ? 1 : 0);
        const grid::QuartetId q = grid.QuartetIdOf(qx, qy);
        if (q == grid::kInvalidId) continue;
        const agreements::QuartetSubgraph& sub = graph.Subgraph(q);
        const int pos_cell = grid.PositionInQuartet(q, cell);
        const int pos_nbr =
            grid.PositionInQuartet(q, grid.CellIdOf(nx, ny));
        PASJOIN_DCHECK(pos_cell >= 0 && pos_nbr >= 0);
        type = sub.type[pos_nbr][pos_cell];
      } else {
        type = graph.PairTypeToward(cell, dx, dy);
      }
      if (ReplicatedSide(type) != side) continue;
      // Band of the neighbor toward `cell` (opposite direction).
      total += stats.BandCount(side, grid.CellIdOf(nx, ny), DirIndex(-dx, -dy));
    }
  }
  return total * stats.Scale(side);
}

}  // namespace

void CostModel::PerCellCandidatesRange(const AgreementGraph& graph,
                                       CellId begin, CellId end,
                                       double* out) const {
  PASJOIN_DCHECK(begin >= 0 && begin <= end && end <= grid_->num_cells());
  for (CellId c = begin; c < end; ++c) {
    const double est_r =
        EstimatedSideInCell(*grid_, *stats_, graph, Side::kR, c);
    const double est_s =
        EstimatedSideInCell(*grid_, *stats_, graph, Side::kS, c);
    out[static_cast<size_t>(c)] = est_r * est_s;
  }
}

std::vector<double> CostModel::PerCellCandidates(
    const AgreementGraph& graph) const {
  const auto cells = static_cast<int>(grid_->num_cells());
  std::vector<double> out(static_cast<size_t>(cells), 0.0);
  PerCellCandidatesRange(graph, 0, cells, out.data());
  return out;
}

CostModel::PredictPartial CostModel::PredictRange(const AgreementGraph& graph,
                                                  CellId begin,
                                                  CellId end) const {
  PASJOIN_DCHECK(begin >= 0 && begin <= end && end <= grid_->num_cells());
  PredictPartial part;
  for (CellId c = begin; c < end; ++c) {
    const double est_r =
        EstimatedSideInCell(*grid_, *stats_, graph, Side::kR, c);
    const double est_s =
        EstimatedSideInCell(*grid_, *stats_, graph, Side::kS, c);
    const double inbound_r =
        est_r - stats_->CellCount(Side::kR, c) * stats_->Scale(Side::kR);
    const double inbound_s =
        est_s - stats_->CellCount(Side::kS, c) * stats_->Scale(Side::kS);
    part.replicated_r += inbound_r;
    part.replicated_s += inbound_s;
    const double candidates = est_r * est_s;
    part.total_candidates += candidates;
    part.max_cell_candidates = std::max(part.max_cell_candidates, candidates);
  }
  return part;
}

CostPrediction CostModel::FoldPredict(const PredictPartial* partials,
                                      size_t n) const {
  CostPrediction pred;
  for (size_t i = 0; i < n; ++i) {
    pred.replicated_r += partials[i].replicated_r;
    pred.replicated_s += partials[i].replicated_s;
    pred.total_candidates += partials[i].total_candidates;
    pred.max_cell_candidates =
        std::max(pred.max_cell_candidates, partials[i].max_cell_candidates);
  }
  pred.shuffled_tuples =
      pred.ReplicatedTotal() +
      static_cast<double>(stats_->SampleSize(Side::kR)) *
          stats_->Scale(Side::kR) +
      static_cast<double>(stats_->SampleSize(Side::kS)) *
          stats_->Scale(Side::kS);
  return pred;
}

CostPrediction CostModel::Predict(const AgreementGraph& graph) const {
  // Fixed-block accumulation: per-block partials folded in ascending block
  // order. The parallel planner computes the same blocks on worker threads
  // and folds them in the same order, so both paths agree bit-for-bit.
  const auto cells = static_cast<int>(grid_->num_cells());
  const int blocks = cells == 0 ? 0 : (cells + kPredictBlockCells - 1) /
                                          kPredictBlockCells;
  std::vector<PredictPartial> partials(static_cast<size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    const CellId begin = b * kPredictBlockCells;
    const CellId end = std::min(cells, begin + kPredictBlockCells);
    partials[static_cast<size_t>(b)] = PredictRange(graph, begin, end);
  }
  return FoldPredict(partials.data(), partials.size());
}

double CostModel::PredictMakespan(const AgreementGraph& graph,
                                  const std::vector<int>& owner,
                                  int workers) const {
  PASJOIN_CHECK(workers >= 1);
  const std::vector<double> per_cell = PerCellCandidates(graph);
  PASJOIN_CHECK(owner.size() >= per_cell.size());
  std::vector<double> load(static_cast<size_t>(workers), 0.0);
  for (size_t c = 0; c < per_cell.size(); ++c) {
    const int w = owner[c];
    PASJOIN_DCHECK(w >= 0 && w < workers);
    load[static_cast<size_t>(w)] += per_cell[c];
  }
  return *std::max_element(load.begin(), load.end());
}

Policy CostModel::RecommendPolicy(const grid::Grid& grid,
                                  const grid::GridStats& stats,
                                  AgreementType tie_break) {
  const CostModel model(&grid, &stats);
  Policy best = Policy::kLPiB;
  CostPrediction best_pred;
  bool first = true;
  for (const Policy policy : {Policy::kLPiB, Policy::kDiff, Policy::kUniformR,
                              Policy::kUniformS}) {
    const AgreementGraph graph =
        AgreementGraph::Build(grid, stats, policy, tie_break);
    const CostPrediction pred = model.Predict(graph);
    const bool better =
        first || pred.total_candidates < best_pred.total_candidates ||
        (pred.total_candidates == best_pred.total_candidates &&
         pred.ReplicatedTotal() < best_pred.ReplicatedTotal());
    if (better) {
      best = policy;
      best_pred = pred;
      first = false;
    }
  }
  return best;
}

}  // namespace pasjoin::core
