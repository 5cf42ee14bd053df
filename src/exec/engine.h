// Copyright 2026 The pasjoin Authors.
//
// The miniature data-parallel engine: the C++ stand-in for the Spark
// substrate of Algorithm 5. It executes the canonical dataflow of every
// algorithm in this repository:
//
//   input splits --map--> (partition, tuple) --shuffle--> per-partition
//   columns --local join--> result pairs [--distinct--> deduplicated pairs]
//
// The shuffle is columnar and count-then-scatter (exec/shuffle.h).
//
// The engine is algorithm-agnostic: callers supply the partition-assignment
// function (adaptive replication, PBSM replication, quadtree, ...), the
// partition->worker ownership function (hash or LPT), and the options pick
// one of the spatial::LocalJoinKernel templates for the per-partition join
// (the SoA sweep by default, R-tree probing for the Sedona-like baseline).
// There is no type-erased kernel: every kernel is compiled against the
// engine's emit lambda and polls cancellation inside the partition.
//
// Logical-vs-physical parallelism: tasks execute on a host thread pool, but
// every task is attributed to the *logical* worker that owns it; a phase's
// simulated duration is the makespan (max per-worker busy time). This makes
// the paper's scalability experiments meaningful on any host (DESIGN.md §2).
//
// Fault tolerance: with FaultOptions::enabled the same phases run with the
// recovery semantics of the Spark substrate the paper runs on, as a policy
// of the one work-stealing phase runner — task retry with exponential
// backoff, per-partition lineage rebuild after a worker loss, and
// speculative backups of stragglers. The model, its guarantees, and the
// FaultOptions knobs are documented in docs/FAULT_TOLERANCE.md.
#ifndef PASJOIN_EXEC_ENGINE_H_
#define PASJOIN_EXEC_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/cancellation.h"
#include "common/small_vector.h"
#include "common/status.h"
#include "common/tuple.h"
#include "exec/fault_injector.h"
#include "exec/metrics.h"
#include "exec/watchdog.h"
#include "obs/trace_recorder.h"
#include "spatial/local_join.h"

namespace pasjoin::exec {

/// Identifier of a workload partition (a grid cell or quadtree leaf).
using PartitionId = int32_t;

/// Partition assignment of one tuple; entry 0 is the native partition,
/// further entries are replicas. Ids must be non-negative (a run that sees
/// a negative id or an empty list fails with kInvalidArgument), and should
/// be dense — grid cells, quadtree leaves — because the shuffle sizes its
/// per-partition arrays by the largest id.
using PartitionList = SmallVector<PartitionId, 4>;

/// Maps a tuple of relation `Side` to its partitions.
using AssignFn = std::function<PartitionList(const Tuple&, Side)>;

/// Maps a partition to its owning logical worker in [0, workers).
using OwnerFn = std::function<int(PartitionId)>;

/// The execution options every driver forwards to the engine, declared
/// once: AdaptiveJoinOptions, PbsmOptions, SedonaOptions, SelfJoinOptions
/// and EngineOptions all derive from this block.
struct ExecutionOptions {
  /// Join distance threshold (required, > 0).
  double eps = 0.0;
  /// Logical workers (the paper's "nodes"/executors).
  int workers = 12;
  /// Input splits per relation; 0 selects 4 * workers.
  int num_splits = 0;
  /// Materialize result pairs in JoinRun::pairs.
  bool collect_results = false;
  /// Copy payload bytes through the shuffle (Figures 16-18). When false the
  /// shuffle carries only id+x+y, as in the post-processing variant of
  /// Table 5.
  bool carry_payloads = true;
  /// Physical threads to execute on; 0 selects the host's core count.
  int physical_threads = 0;
  /// Partition-level join kernel (docs/ALGORITHM.md §"Local join kernels").
  /// The default is the cache-friendly SoA sweep with batched emission.
  spatial::LocalJoinKernel local_kernel = spatial::LocalJoinKernel::kSweepSoA;
  /// Fault injection + recovery policy (docs/FAULT_TOLERANCE.md). Ignored
  /// unless fault.enabled; the default runs every task exactly once with no
  /// recovery state.
  FaultOptions fault;
  /// External cancellation (docs/CANCELLATION.md). A default token never
  /// cancels (zero cost); pass CancellationSource::token() to be able to
  /// abort the job from another thread. Drivers check it before their
  /// sequential construction steps and the engine polls it throughout. A
  /// cancelled run returns the token's status (kCancelled unless the
  /// canceller chose another code) and publishes NO partial results.
  CancellationToken cancel;
  /// Wall-clock budget for the whole job, driver construction included
  /// (docs/CANCELLATION.md). Unlimited by default; when set, the run
  /// returns kDeadlineExceeded shortly after the deadline passes (firing
  /// latency is bounded by watchdog.poll_interval_seconds), again with no
  /// partial results. On success, JobMetrics::deadline_slack_seconds
  /// records the margin.
  Deadline deadline;
  /// Stuck-task watchdog (exec/watchdog.h). `watchdog.enabled` turns on
  /// stall detection of fault-tolerant task attempts; deadlines above are
  /// enforced whether or not it is enabled.
  WatchdogOptions watchdog;
  /// Execution trace sink (docs/OBSERVABILITY.md). Null (the default)
  /// disables tracing at zero cost; when set, the drivers record spans for
  /// their construction steps and the engine records per-task spans on one
  /// track per logical worker, per-partition join spans, the kernel's
  /// sort/sweep/emit phases, and fault-recovery events, and folds the job's
  /// counters into trace->counters(). Not owned.
  obs::TraceRecorder* trace = nullptr;
};

/// Engine configuration: the shared block plus what only the engine reads.
struct EngineOptions : ExecutionOptions {
  EngineOptions() = default;
  /// Takes the shared block of a driver's options (slicing off the rest).
  explicit EngineOptions(const ExecutionOptions& shared)
      : ExecutionOptions(shared) {}

  /// Run a parallel distinct step after the join (the non-duplicate-free
  /// variant of Table 6). Implies internal collection of pairs.
  bool deduplicate = false;
  /// Self-join mode: both inputs are the same relation; only unordered
  /// pairs with r.id < s.id are reported (each pair once, no self-pairs).
  bool self_join = false;
  /// Declared data-space bounds. When set (positive area), every input
  /// point must lie inside (boundary inclusive) or the run is rejected with
  /// kInvalidArgument naming the offending dataset and index — partitioners
  /// built over these bounds would otherwise silently clamp outside points
  /// into edge cells and make replication decisions against the wrong cell
  /// rectangle (the Grid::Locate footgun). A zero-area rect (the default)
  /// skips the check. Exact-boundary points are valid: Grid::Locate keeps
  /// clamping max-edge coordinates into the last cell.
  Rect bounds;
};

/// The checks every run starts with, in the drivers before their
/// construction steps and in the engine: the shared options are coherent
/// (eps positive and finite, workers > 0, num_splits and physical_threads
/// >= 0, valid FaultOptions and WatchdogOptions; else kInvalidArgument),
/// the token is not cancelled, and the deadline has not passed.
[[nodiscard]] Status CheckRunnable(const ExecutionOptions& options);

/// Outcome of a partitioned join run.
struct JoinRun {
  JobMetrics metrics;
  /// Result pairs; only populated when EngineOptions::collect_results.
  std::vector<ResultPair> pairs;
};

/// Runs the map/shuffle/join dataflow. `assign` decides replication,
/// `owner` decides placement, and options.local_kernel joins each partition.
///
/// Inputs are validated (CheckRunnable, finite coordinates inside
/// options.bounds) and rejected with kInvalidArgument. When fault injection
/// is enabled, failed or lost tasks are re-executed from retained split
/// data (bounded retries with exponential backoff), a lost logical worker's
/// partitions are rebuilt on survivors from their lineage, and straggling
/// tasks are backed up speculatively; the recovered result is identical to a
/// fault-free run. Returns kResourceExhausted when a task exhausts its retry
/// budget and kInternal when a task throws with recovery off — this function
/// never throws from the engine itself. Cancellation (options.cancel) and
/// deadlines (options.deadline) surface as kCancelled / kDeadlineExceeded;
/// in every error case nothing is published to the returned JoinRun — a
/// caller either gets the complete, exact join result or an error
/// (docs/CANCELLATION.md).
[[nodiscard]] Result<JoinRun> TryRunPartitionedJoin(
    const Dataset& r, const Dataset& s, const AssignFn& assign,
    const OwnerFn& owner, const EngineOptions& options);

/// The epilogue every driver shares: on success, names the algorithm,
/// folds the driver's sequential `driver_seconds` into the construction
/// times, records the `planning_seconds` part of them, and republishes the
/// gauges of an attached trace (the engine could not see the driver time).
[[nodiscard]] Result<JoinRun> FinishDriverRun(Result<JoinRun> run,
                                              const char* algorithm,
                                              double driver_seconds,
                                              double planning_seconds,
                                              obs::TraceRecorder* trace);

}  // namespace pasjoin::exec

#endif  // PASJOIN_EXEC_ENGINE_H_
