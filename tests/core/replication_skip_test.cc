// Copyright 2026 The pasjoin Authors.
//
// ReplicationAssigner skips the supplementary-area test (Algorithm 4) for
// quartet positions with no marked incoming side edge. The skip must be
// exact: this suite compares every cell list, entry by entry and in order,
// against a frozen copy of the assigner as it was before the skip existed.
// The end-to-end benchmark's reference replay reuses ReplicationAssigner
// itself, so only a test like this one can catch a wrong skip.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agreements/agreement_graph.h"
#include "common/rng.h"
#include "core/replication.h"
#include "datagen/generators.h"
#include "grid/grid.h"
#include "grid/stats.h"
#include "test_util.h"

namespace pasjoin {
namespace {

using agreements::AgreementFor;
using agreements::AgreementGraph;
using agreements::AgreementType;
using agreements::MarkingOrder;
using agreements::Policy;
using agreements::QuartetSubgraph;
using core::CellList;
using core::ReplicationAssigner;
using grid::AreaInfo;
using grid::AreaKind;
using grid::CellId;
using grid::DiagonalOf;
using grid::Grid;
using grid::GridStats;
using grid::QuartetId;

/// Algorithms 2-4 exactly as ReplicationAssigner implemented them before the
/// per-quartet skip: every supplementary-area probe is evaluated.
class FrozenAssigner {
 public:
  FrozenAssigner(const Grid* grid, const AgreementGraph* graph)
      : grid_(grid), graph_(graph), eps2_(grid->eps() * grid->eps()) {}

  CellList Assign(const Point& p, Side side) const {
    const CellId native = grid_->Locate(p);
    CellList out;
    out.push_back(native);
    const AreaInfo area = grid_->ClassifyArea(p, native);
    if (area.kind == AreaKind::kNone) return out;
    const AgreementType tau = AgreementFor(side);
    const int cx = grid_->CellX(native);
    const int cy = grid_->CellY(native);
    if (area.kind == AreaKind::kCorner) {
      const QuartetSubgraph& sub = graph_->Subgraph(area.quartet);
      const int i = grid_->PositionInQuartet(area.quartet, native);
      MeDuPAr(sub, p, tau, i, &out);
      SupAr(sub, p, tau, i, &out);
      const int qx = grid_->QuartetX(area.quartet);
      const int qy = grid_->QuartetY(area.quartet);
      SupArAt(qx, qy - area.dy, p, tau, native, &out);
      SupArAt(qx - area.dx, qy, p, tau, native, &out);
      return out;
    }
    if (graph_->PairTypeToward(native, area.dx, area.dy) == tau) {
      out.PushBackUnique(grid_->CellIdOf(cx + area.dx, cy + area.dy));
    }
    if (area.dx != 0) {
      const int qx = cx + (area.dx > 0 ? 1 : 0);
      SupArAt(qx, cy, p, tau, native, &out);
      SupArAt(qx, cy + 1, p, tau, native, &out);
    } else {
      const int qy = cy + (area.dy > 0 ? 1 : 0);
      SupArAt(cx, qy, p, tau, native, &out);
      SupArAt(cx + 1, qy, p, tau, native, &out);
    }
    return out;
  }

 private:
  void MeDuPAr(const QuartetSubgraph& sub, const Point& o, AgreementType tau,
               int i, CellList* out) const {
    const int side_adjacent[2] = {i ^ 1, i ^ 2};
    for (const int j : side_adjacent) {
      if (sub.type[i][j] == tau && !sub.edge[i][j].marked) {
        out->PushBackUnique(sub.cells[j]);
      }
    }
    const int d = DiagonalOf(i);
    if (sub.type[i][d] == tau && !sub.edge[i][d].marked) {
      if (SquaredDistance(o, sub.ref) <= eps2_) {
        out->PushBackUnique(sub.cells[d]);
      } else {
        for (const int j : side_adjacent) {
          if (sub.type[i][j] == tau && sub.edge[i][j].marked) {
            out->PushBackUnique(sub.cells[d]);
            break;
          }
        }
      }
    }
  }

  void SupAr(const QuartetSubgraph& sub, const Point& o, AgreementType tau,
             int i, CellList* out) const {
    if (SquaredDistance(o, sub.ref) > 4.0 * eps2_) return;
    const int side_adjacent[2] = {i ^ 1, i ^ 2};
    for (const int j : side_adjacent) {
      const Rect j_rect = grid_->CellRect(sub.cells[j]);
      if (SquaredMinDist(o, j_rect) > eps2_) continue;
      if (sub.type[j][i] == tau || !sub.edge[j][i].marked) continue;
      const int k = (j == (i ^ 1)) ? (i ^ 2) : (i ^ 1);
      const int l = DiagonalOf(i);
      if (sub.type[i][k] == tau && !sub.edge[i][k].marked &&
          sub.type[j][k] != tau && !sub.edge[j][k].marked) {
        out->PushBackUnique(sub.cells[k]);
      } else if (sub.type[i][l] == tau && !sub.edge[i][l].marked &&
                 sub.type[j][l] != tau && !sub.edge[j][l].marked) {
        out->PushBackUnique(sub.cells[l]);
      }
    }
  }

  void SupArAt(int qx, int qy, const Point& o, AgreementType tau,
               CellId native, CellList* out) const {
    const QuartetId q = grid_->QuartetIdOf(qx, qy);
    if (q == grid::kInvalidId) return;
    const int i = grid_->PositionInQuartet(q, native);
    if (i < 0) return;
    SupAr(graph_->Subgraph(q), o, tau, i, out);
  }

  const Grid* grid_;
  const AgreementGraph* graph_;
  double eps2_;
};

std::string Describe(const CellList& cells) {
  std::string out = "[";
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(cells[i]);
  }
  return out + "]";
}

/// Compares both assigners on every tuple of `r` and `s`; returns the
/// number of tuples with at least one replica.
size_t ExpectSameCellLists(const Grid& grid, const AgreementGraph& graph,
                           const Dataset& r, const Dataset& s,
                           const std::string& label) {
  const ReplicationAssigner assigner(&grid, &graph);
  const FrozenAssigner frozen(&grid, &graph);
  size_t replicated = 0;
  size_t mismatches = 0;
  for (const Side side : {Side::kR, Side::kS}) {
    for (const Tuple& t : (side == Side::kR ? r : s).tuples) {
      const CellList got = assigner.Assign(t.pt, side);
      const CellList want = frozen.Assign(t.pt, side);
      replicated += got.size() > 1 ? 1 : 0;
      bool same = got.size() == want.size();
      for (size_t i = 0; same && i < got.size(); ++i) {
        same = got[i] == want[i];
      }
      if (!same && ++mismatches <= 5) {
        ADD_FAILURE() << label << ": tuple " << t.id << " side "
                      << SideName(side) << " got " << Describe(got)
                      << ", frozen " << Describe(want);
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label;
  return replicated;
}

constexpr MarkingOrder kOrders[] = {MarkingOrder::kPaper,
                                    MarkingOrder::kWeightDescending,
                                    MarkingOrder::kIndexOrder};

TEST(ReplicationSkipTest, PaperInputsMatchFrozenAssigner) {
  struct Pair {
    datagen::PaperDataset r;
    datagen::PaperDataset s;
    const char* name;
  };
  const Pair pairs[] = {
      {datagen::PaperDataset::kS1, datagen::PaperDataset::kS2, "S1xS2"},
      {datagen::PaperDataset::kR1, datagen::PaperDataset::kR2, "R1xR2"},
  };
  const double eps = 0.12;
  for (const Pair& pair : pairs) {
    const Dataset r = datagen::MakePaperDataset(pair.r, 60000);
    const Dataset s = datagen::MakePaperDataset(pair.s, 60000);
    const Grid grid =
        Grid::Make(r.Mbr().Union(s.Mbr()), eps, 2.0).MoveValue();
    GridStats stats(&grid);
    stats.AddSample(Side::kR, r, 0.2, 1);
    stats.AddSample(Side::kS, s, 0.2, 2);
    for (const Policy policy : {Policy::kLPiB, Policy::kDiff}) {
      for (const MarkingOrder order : kOrders) {
        AgreementGraph graph = AgreementGraph::Build(grid, stats, policy);
        graph.RunDuplicateFreeMarking(order);
        const std::string label = std::string(pair.name) + " " +
                                  agreements::PolicyName(policy) + " " +
                                  agreements::MarkingOrderName(order);
        EXPECT_GT(graph.CountMarked(), 0u) << label;
        EXPECT_GT(ExpectSameCellLists(grid, graph, r, s, label), 0u)
            << label;
      }
    }
  }
}

TEST(ReplicationSkipTest, CornerHeavyRandomGraphsMatchFrozenAssigner) {
  // Randomized agreement weights on small grids with points packed around
  // the quartet corners: many marked edges, so the supplementary areas are
  // exercised far more often than on the paper inputs.
  const double eps = 1.0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 7919);
    const double factor = 2.02 + rng.NextDouble();
    const int nx = 2 + static_cast<int>(rng.NextBounded(5));
    const int ny = 2 + static_cast<int>(rng.NextBounded(5));
    const Rect mbr{0, 0, nx * factor + 0.01, ny * factor + 0.01};
    const Grid grid = Grid::Make(mbr, eps, factor).MoveValue();
    std::vector<Point> corners;
    for (int qx = 1; qx < grid.nx(); ++qx) {
      for (int qy = 1; qy < grid.ny(); ++qy) {
        corners.push_back(grid.QuartetRefPoint(grid.QuartetIdOf(qx, qy)));
      }
    }
    const Dataset r = pasjoin::testing::MakeDataset(
        pasjoin::testing::RandomPointsNearCorners(&rng, mbr, corners, eps, 400),
        0, "R");
    const Dataset s = pasjoin::testing::MakeDataset(
        pasjoin::testing::RandomPointsNearCorners(&rng, mbr, corners, eps, 400),
        1000000, "S");
    GridStats stats(&grid);
    stats.AddSample(Side::kR, r, 1.0, seed);
    stats.AddSample(Side::kS, s, 1.0, seed + 1);
    for (const Policy policy : {Policy::kLPiB, Policy::kDiff}) {
      for (const MarkingOrder order : kOrders) {
        AgreementGraph graph = AgreementGraph::Build(grid, stats, policy);
        graph.RandomizeForTesting(seed * 13 + 5);
        graph.RunDuplicateFreeMarking(order);
        ExpectSameCellLists(grid, graph, r, s,
                            "seed " + std::to_string(seed) + " " +
                                agreements::PolicyName(policy) + " " +
                                agreements::MarkingOrderName(order));
      }
    }
  }
}

}  // namespace
}  // namespace pasjoin
