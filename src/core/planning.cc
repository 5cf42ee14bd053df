// Copyright 2026 The pasjoin Authors.
#include "core/planning.h"

#include <algorithm>

#include "agreements/coloring.h"
#include "exec/steal_queue.h"
#include "exec/thread_pool.h"

namespace pasjoin::core {

using agreements::AgreementGraph;
using agreements::AgreementType;
using agreements::MarkingOrder;
using agreements::Policy;
using agreements::QuartetColoring;

Planner::Planner(const PlanningOptions& options)
    : threads_(options.threads <= 0 ? exec::ThreadPool::DefaultThreads()
                                    : options.threads),
      min_parallel_items_(std::max(1, options.min_parallel_items)) {}

Planner::~Planner() = default;

void Planner::ParallelFor(int count,
                          const std::function<void(int, int)>& body) {
  if (count <= 0) return;
  if (!WouldParallelize(count)) {
    body(0, count);
    return;
  }
  if (pool_ == nullptr) {
    pool_ = std::make_unique<exec::ThreadPool>(threads_);
  }
  exec::StealQueue queue(count, threads_,
                         exec::StealQueue::DefaultGrain(count, threads_));
  for (int home = 0; home < threads_; ++home) {
    pool_->Submit([home, &queue, &body] {
      int begin = 0;
      int end = 0;
      while (queue.Next(home, &begin, &end)) body(begin, end);
    });
  }
  // Wait() is also the happens-before edge that publishes the runners' slot
  // writes to the driver thread; it rethrows the first task exception.
  pool_->Wait();
}

AgreementGraph PlanAgreementGraph(const grid::Grid& grid,
                                  const grid::GridStats& stats, Policy policy,
                                  AgreementType tie_break, bool duplicate_free,
                                  MarkingOrder order, Planner* planner,
                                  obs::TraceRecorder* trace) {
  // The pairs span covers PrepareBuild too: zero-initializing the subgraph
  // array is real work at fine resolutions, and trace validation reconciles
  // the planning spans against the driver's planning stopwatch.
  AgreementGraph g = [&] {
    obs::ScopedSpan span(trace, "planning-pairs", "planning");
    AgreementGraph built = AgreementGraph::PrepareBuild(grid, policy, tie_break);
    span.AddArg("slots", built.NumPairSlots());
    planner->ParallelFor(built.NumPairSlots(),
                         [&built, &stats](int begin, int end) {
                           built.DecidePairRange(stats, begin, end);
                         });
    return built;
  }();
  {
    obs::ScopedSpan span(trace, "planning-subgraphs", "planning");
    span.AddArg("quartets", grid.num_quartets());
    const auto quartets = static_cast<int>(grid.num_quartets());
    planner->ParallelFor(quartets, [&g, &stats](int begin, int end) {
      g.MaterializeSubgraphRange(stats, begin, end);
    });
  }
  if (!duplicate_free) return g;

  obs::ScopedSpan span(trace, "planning-marking", "planning");
  span.AddArg("quartets", grid.num_quartets());
  if (order == MarkingOrder::kWeightDescending ||
      !planner->WouldParallelize(static_cast<int>(grid.num_quartets()))) {
    // kWeightDescending: conservative sequential fallback (the issue's
    // weight-strata coloring is future work; see docs/PARALLELISM.md §9).
    // Small grids: the coloring costs more than the marking.
    span.SetStringArg("mode", "sequential");
    g.RunDuplicateFreeMarking(order);
    return g;
  }
  span.SetStringArg("mode", "colored");
  const QuartetColoring coloring = QuartetColoring::Build(grid);
  span.AddArg("colors", coloring.num_colors());
  for (int color = 0; color < coloring.num_colors(); ++color) {
    // Each color class is a barrier: no two quartets in flight share a
    // side-pair edge, and the pool's Wait() orders the rounds.
    const std::vector<grid::QuartetId>& quartets =
        coloring.QuartetsOfColor(color);
    obs::ScopedSpan round(trace, "planning-color-round", "planning");
    round.AddArg("color", color);
    round.AddArg("quartets", static_cast<int64_t>(quartets.size()));
    planner->ParallelFor(
        static_cast<int>(quartets.size()),
        [&g, &quartets, order](int begin, int end) {
          g.MarkQuartets(quartets.data() + begin,
                         static_cast<size_t>(end - begin), order);
        });
  }
  g.FinishMarking();
  return g;
}

std::vector<double> PlanCellCosts(const grid::Grid& grid,
                                  const grid::GridStats& stats,
                                  Planner* planner,
                                  obs::TraceRecorder* trace) {
  obs::ScopedSpan span(trace, "planning-costs", "planning");
  span.AddArg("cells", grid.num_cells());
  std::vector<double> costs(static_cast<size_t>(grid.num_cells()), 0.0);
  double* const out = costs.data();
  const auto cells = static_cast<int>(grid.num_cells());
  planner->ParallelFor(cells, [&stats, out](int begin, int end) {
    for (grid::CellId c = begin; c < end; ++c) {
      out[static_cast<size_t>(c)] = stats.EstimatedCellCost(c);
    }
  });
  return costs;
}

std::vector<double> PlanPerCellCandidates(const CostModel& model,
                                          const AgreementGraph& graph,
                                          Planner* planner,
                                          obs::TraceRecorder* trace) {
  const auto cells = static_cast<int>(graph.grid().num_cells());
  obs::ScopedSpan span(trace, "planning-costs", "planning");
  span.AddArg("cells", cells);
  std::vector<double> candidates(static_cast<size_t>(cells), 0.0);
  double* const out = candidates.data();
  planner->ParallelFor(cells, [&model, &graph, out](int begin, int end) {
    model.PerCellCandidatesRange(graph, begin, end, out);
  });
  return candidates;
}

CostPrediction PlanPredict(const CostModel& model, const AgreementGraph& graph,
                           Planner* planner, obs::TraceRecorder* trace) {
  const auto cells = static_cast<int>(graph.grid().num_cells());
  constexpr int kBlock = CostModel::kPredictBlockCells;
  const int blocks = cells == 0 ? 0 : (cells + kBlock - 1) / kBlock;
  obs::ScopedSpan span(trace, "planning-costs", "planning");
  span.AddArg("cells", cells);
  span.AddArg("blocks", blocks);
  std::vector<CostModel::PredictPartial> partials(
      static_cast<size_t>(blocks));
  CostModel::PredictPartial* const out = partials.data();
  planner->ParallelFor(blocks, [&model, &graph, cells, out](int begin,
                                                            int end) {
    for (int b = begin; b < end; ++b) {
      const grid::CellId lo = b * kBlock;
      const grid::CellId hi = std::min(cells, lo + kBlock);
      out[static_cast<size_t>(b)] = model.PredictRange(graph, lo, hi);
    }
  });
  // Ascending-order fold on the driver thread: the same summation tree as
  // the sequential Predict, hence bit-identical results.
  return model.FoldPredict(partials.data(), partials.size());
}

CellAssignment PlanLptAssignment(const std::vector<double>& cell_costs,
                                 int workers, obs::TraceRecorder* trace) {
  obs::ScopedSpan span(trace, "planning-lpt", "planning");
  span.AddArg("cells", static_cast<int64_t>(cell_costs.size()));
  span.AddArg("workers", workers);
  return CellAssignment::Lpt(cell_costs, workers);
}

}  // namespace pasjoin::core
