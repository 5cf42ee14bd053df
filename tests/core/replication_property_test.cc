// Copyright 2026 The pasjoin Authors.
//
// Property-based validation of adaptive replication (Algorithms 1-4):
// for *any* reachable graph-of-agreements instance, the per-cell joins over
// the assigned points must reproduce the brute-force join result exactly
// once per pair (correctness, Def 3.2 + duplicate-freeness, Def 3.3).
#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "agreements/agreement_graph.h"
#include "common/rng.h"
#include "core/replication.h"
#include "grid/grid.h"
#include "grid/stats.h"
#include "test_util.h"

namespace pasjoin {
namespace {

using agreements::AgreementGraph;
using agreements::AgreementType;
using agreements::Policy;
using core::CellList;
using core::ReplicationAssigner;
using grid::CellId;
using grid::Grid;
using grid::GridStats;
using pasjoin::testing::BruteForcePairs;
using pasjoin::testing::MakeDataset;
using pasjoin::testing::RandomPointsNearCorners;

/// Computes the multiset of pairs produced by joining each cell's assigned
/// points independently (nested-loop oracle within cells).
std::map<ResultPair, int> PerCellPairs(const Grid& grid,
                                       const ReplicationAssigner& assigner,
                                       const Dataset& r, const Dataset& s,
                                       double eps) {
  const auto cells = static_cast<int>(grid.num_cells());
  std::vector<std::vector<const Tuple*>> r_cells(cells), s_cells(cells);
  for (const Tuple& t : r.tuples) {
    const CellList assigned = assigner.Assign(t.pt, Side::kR);
    for (size_t i = 0; i < assigned.size(); ++i) {
      r_cells[static_cast<size_t>(assigned[i])].push_back(&t);
    }
  }
  for (const Tuple& t : s.tuples) {
    const CellList assigned = assigner.Assign(t.pt, Side::kS);
    for (size_t i = 0; i < assigned.size(); ++i) {
      s_cells[static_cast<size_t>(assigned[i])].push_back(&t);
    }
  }
  std::map<ResultPair, int> found;
  const double eps2 = eps * eps;
  for (int c = 0; c < cells; ++c) {
    for (const Tuple* a : r_cells[static_cast<size_t>(c)]) {
      for (const Tuple* b : s_cells[static_cast<size_t>(c)]) {
        if (SquaredDistance(a->pt, b->pt) <= eps2) {
          ++found[ResultPair{a->id, b->id}];
        }
      }
    }
  }
  return found;
}

/// Pretty context for failures: where the two points are and how they were
/// assigned.
std::string DescribePair(const Grid& grid, const ReplicationAssigner& assigner,
                         const Dataset& r, const Dataset& s,
                         const ResultPair& pair) {
  const Tuple* a = nullptr;
  const Tuple* b = nullptr;
  for (const Tuple& t : r.tuples) {
    if (t.id == pair.r_id) a = &t;
  }
  for (const Tuple& t : s.tuples) {
    if (t.id == pair.s_id) b = &t;
  }
  std::ostringstream os;
  if (a == nullptr || b == nullptr) return "(pair tuples not found)";
  os << "r" << pair.r_id << "=(" << a->pt.x << "," << a->pt.y << ") cells[";
  for (CellId c : assigner.Assign(a->pt, Side::kR).ToVector()) os << c << " ";
  os << "]  s" << pair.s_id << "=(" << b->pt.x << "," << b->pt.y << ") cells[";
  for (CellId c : assigner.Assign(b->pt, Side::kS).ToVector()) os << c << " ";
  os << "] dist=" << Distance(a->pt, b->pt) << " grid=" << grid.ToString();
  return os.str();
}

/// One randomized scenario; accumulates into *duplicates the number of
/// duplicate occurrences seen (so the non-duplicate-free mode can assert
/// they exist somewhere).
void RunScenario(uint64_t seed, bool run_marking, bool expect_exactly_once,
                 int* duplicates) {
  Rng rng(seed);
  const double eps = 1.0;
  // Grid shape: 2..6 cells per axis, factor in (2, 3.2].
  const double factor = 2.02 + rng.NextDouble() * 1.2;
  const int nx = 2 + static_cast<int>(rng.NextBounded(5));
  const int ny = 2 + static_cast<int>(rng.NextBounded(5));
  const Rect mbr{0, 0, nx * factor * eps + 0.01, ny * factor * eps + 0.01};
  Result<Grid> grid_result = Grid::Make(mbr, eps, factor);
  EXPECT_TRUE(grid_result.ok()) << grid_result.status().ToString();
  const Grid grid = grid_result.MoveValue();

  // Corner points for clustered generation.
  std::vector<Point> corners;
  for (int qx = 1; qx < grid.nx(); ++qx) {
    for (int qy = 1; qy < grid.ny(); ++qy) {
      corners.push_back(grid.QuartetRefPoint(grid.QuartetIdOf(qx, qy)));
    }
  }
  const size_t n_r = 40 + rng.NextBounded(160);
  const size_t n_s = 40 + rng.NextBounded(160);
  const Dataset r =
      MakeDataset(RandomPointsNearCorners(&rng, mbr, corners, eps, n_r), 0, "R");
  const Dataset s = MakeDataset(
      RandomPointsNearCorners(&rng, mbr, corners, eps, n_s), 1000000, "S");

  GridStats stats(&grid);
  stats.AddSample(Side::kR, r, 1.0, seed);
  stats.AddSample(Side::kS, s, 1.0, seed + 1);

  static constexpr Policy kPolicies[] = {Policy::kLPiB, Policy::kDiff,
                                         Policy::kUniformR, Policy::kUniformS};
  AgreementGraph graph =
      AgreementGraph::Build(grid, stats, kPolicies[seed % 4]);
  if (rng.NextBernoulli(0.5)) {
    graph.RandomizeForTesting(rng.NextUint64());
  }
  if (run_marking) graph.RunDuplicateFreeMarking();

  const ReplicationAssigner assigner(&grid, &graph);
  const std::map<ResultPair, int> truth = BruteForcePairs(r, s, eps);
  const std::map<ResultPair, int> found =
      PerCellPairs(grid, assigner, r, s, eps);

  // Correctness: every true pair is found at least once, and nothing else.
  for (const auto& [pair, count] : truth) {
    (void)count;
    const auto it = found.find(pair);
    ASSERT_TRUE(it != found.end())
        << "missing pair (seed " << seed << "): "
        << DescribePair(grid, assigner, r, s, pair);
  }
  ASSERT_EQ(found.size(), truth.size())
      << "spurious pairs produced (seed " << seed << ")";

  for (const auto& [pair, count] : found) {
    if (expect_exactly_once) {
      ASSERT_EQ(count, 1) << "duplicate pair (seed " << seed
                          << "): " << DescribePair(grid, assigner, r, s, pair);
    }
    *duplicates += count - 1;
  }
}

TEST(ReplicationProperty, CorrectAndDuplicateFreeOnRandomScenarios) {
  int duplicates = 0;
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    RunScenario(seed, /*run_marking=*/true, /*expect_exactly_once=*/true,
                &duplicates);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(duplicates, 0);
}

TEST(ReplicationProperty, UnmarkedGraphIsCorrectButProducesDuplicates) {
  // Without Algorithm 1 the assignment stays correct (Corollary 4.6) but
  // loses the duplicate-free property (Lemma 4.8): some scenario must
  // produce at least one duplicate, which also demonstrates that the
  // duplicate-free assertions above have teeth.
  int total_duplicates = 0;
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    RunScenario(seed, /*run_marking=*/false, /*expect_exactly_once=*/false,
                &total_duplicates);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(total_duplicates, 0);
}

/// Exhaustively sweeps all 64 agreement-type combinations of a single
/// quartet (x several Algorithm 1 orderings via random weights) against a
/// dense point lattice around the reference point.
TEST(ReplicationProperty, ExhaustiveSingleQuartet) {
  const double eps = 1.0;
  const Rect mbr{0, 0, 4.2, 4.2};
  Result<Grid> grid_result = Grid::Make(mbr, eps, 2.0);
  ASSERT_TRUE(grid_result.ok());
  const Grid grid = grid_result.MoveValue();  // 2x2 cells, one quartet
  ASSERT_EQ(grid.num_quartets(), 1);
  const grid::QuartetId q = grid.QuartetIdOf(1, 1);
  const Point ref = grid.QuartetRefPoint(q);

  // Dense lattices (R and S offset against each other) covering the whole
  // quartet neighborhood.
  std::vector<Point> r_pts, s_pts;
  for (double x = 0.05; x < mbr.max_x; x += 0.43) {
    for (double y = 0.05; y < mbr.max_y; y += 0.43) {
      r_pts.push_back(Point{x, y});
      s_pts.push_back(Point{x + 0.17, y + 0.23});
    }
  }
  // Points exactly on the reference point and the borders (edge cases).
  r_pts.push_back(ref);
  s_pts.push_back(Point{ref.x, ref.y - eps});
  s_pts.push_back(Point{ref.x - eps, ref.y});
  const Dataset r = MakeDataset(r_pts, 0, "R");
  const Dataset s = MakeDataset(s_pts, 1000000, "S");
  const std::map<ResultPair, int> truth = BruteForcePairs(r, s, eps);

  GridStats stats(&grid);
  stats.AddSample(Side::kR, r, 1.0, 7);
  stats.AddSample(Side::kS, s, 1.0, 8);

  for (int combo = 0; combo < 64; ++combo) {
    for (uint64_t weight_seed = 1; weight_seed <= 3; ++weight_seed) {
      AgreementGraph graph =
          AgreementGraph::Build(grid, stats, Policy::kLPiB);
      auto type_of = [combo](int bit) {
        return (combo >> bit) & 1 ? AgreementType::kReplicateS
                                  : AgreementType::kReplicateR;
      };
      graph.SetHorizontalPairType(0, 0, type_of(0));
      graph.SetHorizontalPairType(0, 1, type_of(1));
      graph.SetVerticalPairType(0, 0, type_of(2));
      graph.SetVerticalPairType(1, 0, type_of(3));
      graph.SetDiagonalPairType(q, 0, type_of(4));
      graph.SetDiagonalPairType(q, 1, type_of(5));
      Rng wrng(weight_seed * 7919);
      agreements::QuartetSubgraph* sub = graph.MutableSubgraph(q);
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          if (i != j) {
            sub->edge[i][j].weight = static_cast<float>(wrng.NextBounded(100));
          }
        }
      }
      graph.RunDuplicateFreeMarking();

      const ReplicationAssigner assigner(&grid, &graph);
      const std::map<ResultPair, int> found =
          PerCellPairs(grid, assigner, r, s, eps);
      ASSERT_EQ(found.size(), truth.size())
          << "combo " << combo << " weight seed " << weight_seed;
      for (const auto& [pair, count] : found) {
        ASSERT_EQ(count, 1) << "combo " << combo << " weights " << weight_seed
                            << ": "
                            << DescribePair(grid, assigner, r, s, pair);
      }
    }
  }
}

}  // namespace
}  // namespace pasjoin
