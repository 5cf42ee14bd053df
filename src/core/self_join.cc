// Copyright 2026 The pasjoin Authors.
#include "core/self_join.h"

#include "common/stopwatch.h"
#include "core/lpt_scheduler.h"
#include "grid/grid.h"

namespace pasjoin::core {

Result<exec::JoinRun> SelfDistanceJoin(const Dataset& data,
                                       const SelfJoinOptions& options) {
  PASJOIN_RETURN_NOT_OK(exec::CheckRunnable(options));
  if (data.tuples.empty()) {
    return Status::InvalidArgument("input must be non-empty");
  }

  Stopwatch driver;
  obs::TraceRecorder* const trace = options.trace;
  Rect mbr = options.mbr;
  if (!(mbr.Area() > 0.0)) {
    mbr = data.Mbr();
  }
  Result<grid::Grid> grid_result = [&] {
    obs::ScopedSpan span(trace, "driver-grid", "driver");
    return grid::Grid::MakeForBaseline(mbr, options.eps,
                                       options.resolution_factor);
  }();
  if (!grid_result.ok()) return grid_result.status();
  const grid::Grid grid = grid_result.MoveValue();
  const double driver_seconds = driver.ElapsedSeconds();

  // One logical stream is replicated (fed as side R), the other is
  // single-assigned (side S); the engine's self-join filter keeps each
  // unordered pair once.
  exec::AssignFn assign = [&grid](const Tuple& t, Side side) {
    if (side == Side::kR) return grid::CellsWithinEps(grid, t.pt);
    exec::PartitionList out;
    out.push_back(grid.Locate(t.pt));
    return out;
  };

  exec::EngineOptions engine_options(options);
  engine_options.self_join = true;
  engine_options.bounds = mbr;
  return exec::FinishDriverRun(
      exec::TryRunPartitionedJoin(
          data, data, assign, CellAssignment::Hash(options.workers).AsOwnerFn(),
          engine_options),
      "self-join", driver_seconds, 0.0, trace);
}

}  // namespace pasjoin::core
