// Copyright 2026 The pasjoin Authors.
//
// Engine implementation: one phase sequence (map -> regroup -> join ->
// optional dedup), every phase executed by the work-stealing RunStealPhase.
// The shuffle is columnar and two-pass (count, then scatter):
//
//   * map, one task per input split: assign every tuple, record its
//     partition ids in a flat array, and count instances and payload bytes
//     per destination partition;
//   * prefix sums on the driver: lay the partitions out by (owner, id) and
//     give every task a disjoint write range in each partition;
//   * regroup, one task per split: scatter id/x/y into the per-partition
//     struct-of-arrays columns, payload bytes into an offset-indexed arena;
//   * join, stolen per (worker, partition) item: the SoA sweep sorts
//     straight from the columns; other kernels get Tuple copies.
//
// Fault recovery is a policy of the phase runner, switched on by
// FaultOptions::enabled:
//
//   * off: every index runs exactly once, the pass-1 outputs are freed after
//     the scatter, and a thrown exception fails the job with kInternal. No
//     attempt state, heartbeat or retained input is allocated;
//   * on: every index keeps attempt state; a failed attempt (injected,
//     thrown, stalled, or struck by the simulated worker loss) is re-queued
//     after an exponential backoff, idle runners back up straggling
//     attempts, and each index commits exactly once (first finisher wins).
//     The pass-1 outputs are retained as lineage, so a lost worker's
//     partitions are rebuilt one at a time by re-scattering just their
//     ranges. See docs/FAULT_TOLERANCE.md for the model.
#include "exec/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/sync.h"
#include "exec/phase_clock.h"
#include "exec/shuffle.h"
#include "exec/steal_queue.h"
#include "exec/thread_pool.h"
#include "obs/counters.h"
#include "spatial/rtree.h"
#include "spatial/sweep_kernel.h"

namespace pasjoin::exec {

namespace {

// ---------------------------------------------------------------------------
// Phase bodies. Each body is a pure function of retained inputs, which is
// what makes re-execution safe.
// ---------------------------------------------------------------------------

/// The scalar join outputs of one logical worker (or of part of its items).
struct JoinTotals {
  spatial::JoinCounters counters;
  spatial::KernelTimings timings;
  uint64_t partitions = 0;
  /// Self-join matches dropped by the r.id < s.id filter.
  uint64_t filtered = 0;

  JoinTotals& operator+=(const JoinTotals& o) {
    counters += o.counters;
    timings += o.timings;
    partitions += o.partitions;
    filtered += o.filtered;
    return *this;
  }
};

/// Thread-local join state of one steal-phase runner, reused across every
/// partition it joins: the kernel scratch (SoaPartition instances are
/// strictly one-per-thread, spatial/sweep_kernel.h), per-worker emission
/// accumulators flushed in batches into the shared merge slots, and the
/// rollback point of the running attempt.
struct JoinThreadState {
  explicit JoinThreadState(int workers) : acc(static_cast<size_t>(workers)) {}

  struct WorkerAcc {
    std::vector<ResultPair> pairs;
    JoinTotals totals;
  };

  spatial::SoaPartition soa_r;
  spatial::SoaPartition soa_s;
  std::vector<ResultPair> self_scratch;
  std::vector<WorkerAcc> acc;
  /// The attempted item's accumulator before the attempt; a discarded
  /// attempt rolls back to it.
  size_t undo_pairs = 0;
  JoinTotals undo_totals;
  /// The Tuples a Tuple kernel (plane sweep, nested loop, R-tree) joins,
  /// materialized from the columns per partition (it may reorder them).
  std::vector<Tuple> tuples_r;
  std::vector<Tuple> tuples_s;
  /// A partition rebuilt from lineage after its worker was lost.
  PartitionBuffer rebuilt;
};

/// Joins ONE partition with options.local_kernel, appending into `acc` (a
/// runner's per-worker slice). The SoA sweep sorts straight from the
/// shuffle columns; the Tuple kernels join runner-local Tuple copies
/// through a per-pair emit lambda. Every kernel pulses and polls `cancel`
/// inside the partition (every kKernelPollGrain steps), and the partition
/// boundary pulses once more. The R-tree indexes R only when `index_r`. The
/// caller discards the output of a cancelled attempt.
void JoinSinglePartition(PartitionId part, const PartitionView& v,
                         const EngineOptions& options, bool index_r,
                         bool keep_pairs, JoinThreadState* scratch,
                         JoinThreadState::WorkerAcc* acc,
                         obs::TraceRecorder* trace,
                         const spatial::KernelCancellation* cancel) {
  const spatial::LocalJoinKernel kernel = options.local_kernel;
  const bool self_join = options.self_join;
  const double eps = options.eps;
  std::vector<ResultPair>* const pairs = &acc->pairs;
  JoinTotals* const totals = &acc->totals;
  obs::ScopedSpan span(trace, "join-partition", "engine");
  span.SetStringArg("kernel", spatial::LocalJoinKernelName(kernel));
  span.AddArg("cell", part);
  const spatial::JoinCounters before = totals->counters;
  ++totals->partitions;
  uint64_t* const filtered = &totals->filtered;
  if (kernel == spatial::LocalJoinKernel::kSweepSoA) {
    scratch->soa_r.LoadSorted(v.x, v.y, v.id, v.r, &totals->timings, trace);
    scratch->soa_s.LoadSorted(v.x + v.r, v.y + v.r, v.id + v.r, v.s,
                              &totals->timings, trace);
    if (self_join) {
      // The sweep sees every ordered match; keep r.id < s.id (each
      // unordered pair once) and count the rest so the phase total can be
      // corrected, exactly like the Tuple kernels' emit lambda.
      scratch->self_scratch.clear();
      totals->counters +=
          spatial::SoaSweepJoin(scratch->soa_r, scratch->soa_s, eps,
                                &scratch->self_scratch, &totals->timings,
                                trace, cancel);
      Stopwatch filter_watch;
      for (const ResultPair& p : scratch->self_scratch) {
        if (p.r_id >= p.s_id) {
          ++*filtered;
          continue;
        }
        if (keep_pairs) pairs->push_back(p);
      }
      totals->timings.emit_seconds += filter_watch.ElapsedSeconds();
    } else {
      totals->counters += spatial::SoaSweepJoin(
          scratch->soa_r, scratch->soa_s, eps, keep_pairs ? pairs : nullptr,
          &totals->timings, trace, cancel);
    }
  } else {
    // In self-join mode the local join still sees every ordered match; the
    // emit lambda keeps only r.id < s.id (each unordered pair once) and the
    // count is corrected after the phase.
    const auto emit = [pairs, filtered, keep_pairs, self_join](const Tuple& a,
                                                               const Tuple& b) {
      if (self_join && a.id >= b.id) {
        ++*filtered;
        return;
      }
      if (keep_pairs) pairs->push_back(ResultPair{a.id, b.id});
    };
    std::vector<Tuple>* const r = &scratch->tuples_r;
    std::vector<Tuple>* const s = &scratch->tuples_s;
    Materialize(v, 0, v.r, r);
    Materialize(v, v.r, v.s, s);
    switch (kernel) {
      case spatial::LocalJoinKernel::kPlaneSweep:
        totals->counters += spatial::PlaneSweepJoin(r, s, eps, emit, cancel);
        break;
      case spatial::LocalJoinKernel::kNestedLoop:
        totals->counters += spatial::NestedLoopJoin(*r, *s, eps, emit, cancel);
        break;
      case spatial::LocalJoinKernel::kRTree:
        totals->counters +=
            spatial::RTreeProbeJoin(*r, *s, eps, index_r, emit, cancel);
        break;
      case spatial::LocalJoinKernel::kSweepSoA:
        break;
    }
  }
  // Partition boundary counts as progress too.
  if (cancel != nullptr) cancel->Pulse(1);
  span.AddArg("candidates", static_cast<int64_t>(totals->counters.candidates -
                                                 before.candidates));
  span.AddArg("results", static_cast<int64_t>(totals->counters.results -
                                              before.results));
}

/// Shared merge slot of one logical worker's join output. Stealing runner
/// threads flush their thread-local accumulators in here in batches; a
/// runner holds at most one slot lock at a time (rank kEngineOutputMerge).
struct WorkerMergeSlot {
  Mutex mu{"WorkerMergeSlot::mu", lockrank::kEngineOutputMerge};
  std::vector<ResultPair> pairs PASJOIN_GUARDED_BY(mu);
  JoinTotals totals PASJOIN_GUARDED_BY(mu);
};

/// A runner's thread-local pair buffer is flushed into the shared slot once
/// it exceeds this many pairs (and at runner finish), bounding thread-local
/// memory while amortizing the slot lock over many partitions.
constexpr size_t kPairFlushThreshold = size_t{1} << 15;

/// Flushes one per-worker accumulator into its shared slot and resets it.
void FlushWorkerAcc(JoinThreadState::WorkerAcc* acc, WorkerMergeSlot* slot) {
  MutexLock lock(&slot->mu);
  slot->pairs.insert(slot->pairs.end(), acc->pairs.begin(), acc->pairs.end());
  slot->totals += acc->totals;
  acc->pairs.clear();
  acc->totals = JoinTotals{};
}

/// Hash-partitions one worker's result pairs across `workers` dedup buckets.
/// Routes through ResultPairShardHash (a splitmix64-finalized mix): the raw
/// ResultPairHash leaves low-bit structure in place, which degenerated to
/// severe shard imbalance for power-of-two-strided tuple ids on power-of-two
/// worker counts (tests/common/shard_hash_test.cc documents the failure).
/// Polls `cancel` every kKernelPollGrain pairs (partial output on cancel).
std::vector<std::vector<ResultPair>> ScatterWorkerPairs(
    const std::vector<ResultPair>& pairs, int workers,
    const spatial::KernelCancellation* cancel) {
  std::vector<std::vector<ResultPair>> out(static_cast<size_t>(workers));
  const ResultPairShardHash hasher;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const ResultPair& p = pairs[i];
    out[hasher(p) % static_cast<size_t>(workers)].push_back(p);
    if (cancel != nullptr &&
        (i & (spatial::kKernelPollGrain - 1)) ==
            spatial::kKernelPollGrain - 1) {
      cancel->Pulse(spatial::kKernelPollGrain);
      if (cancel->ShouldStop()) return out;
    }
  }
  if (cancel != nullptr) {
    cancel->Pulse(pairs.size() & (spatial::kKernelPollGrain - 1));
  }
  return out;
}

struct DedupMergeOutput {
  std::vector<ResultPair> unique;
  uint64_t count = 0;
};

/// Removes duplicates in dedup bucket `w` across all source workers.
/// Polls `cancel` between source workers (partial output on cancel).
DedupMergeOutput MergeDedupBucket(
    const std::vector<std::vector<std::vector<ResultPair>>>& buckets, int w,
    int workers, bool collect, const spatial::KernelCancellation* cancel) {
  DedupMergeOutput out;
  std::unordered_set<ResultPair, ResultPairHash> seen;
  for (int src = 0; src < workers; ++src) {
    const std::vector<ResultPair>& bucket =
        buckets[static_cast<size_t>(src)][static_cast<size_t>(w)];
    for (const ResultPair& p : bucket) {
      if (seen.insert(p).second && collect) out.unique.push_back(p);
    }
    if (cancel != nullptr) {
      cancel->Pulse(bucket.size() + 1);
      if (cancel->ShouldStop()) break;
    }
  }
  out.count = seen.size();
  return out;
}

/// Adds the dedup shuffle traffic (pair bytes crossing workers) to `*reg`.
void AccumulateDedupShuffle(
    const std::vector<std::vector<std::vector<ResultPair>>>& buckets,
    int workers, obs::CounterRegistry* reg) {
  uint64_t total_bytes = 0;
  for (int src = 0; src < workers; ++src) {
    for (int dst = 0; dst < workers; ++dst) {
      if (src == dst) continue;
      total_bytes +=
          buckets[static_cast<size_t>(src)][static_cast<size_t>(dst)].size() *
          sizeof(ResultPair);
    }
  }
  reg->Add("shuffle_bytes", total_bytes);
  reg->Add("shuffle_remote_bytes", total_bytes);
}

// ---------------------------------------------------------------------------
// Input validation (kInvalidArgument instead of silently producing garbage).
// ---------------------------------------------------------------------------

Status ValidateDatasetCoordinates(const Dataset& d, const Rect& bounds) {
  // A positive-area bounds rect means the caller partitions the data space
  // over exactly that rectangle. Points outside it used to be silently
  // clamped into edge cells by Grid::Locate, so replication decisions ran
  // against the wrong cell rectangle and near-boundary matches could be
  // missed without any error; now the run is rejected up front, naming the
  // first offender. Contains() is closed, so exact-boundary points stay
  // valid (Grid::Locate keeps clamping max-edge coordinates into the last
  // cell — the one clamp that is correct).
  const bool check_bounds = bounds.Area() > 0.0;
  for (size_t i = 0; i < d.tuples.size(); ++i) {
    const Tuple& t = d.tuples[i];
    if (!std::isfinite(t.pt.x) || !std::isfinite(t.pt.y)) {
      return Status::InvalidArgument("non-finite coordinate in dataset '" +
                                     d.name + "' at index " +
                                     std::to_string(i));
    }
    if (check_bounds && !bounds.Contains(t.pt)) {
      return Status::InvalidArgument(
          "point outside declared bounds in dataset '" + d.name +
          "' at index " + std::to_string(i) + ": (" + std::to_string(t.pt.x) +
          ", " + std::to_string(t.pt.y) + ") not in [" +
          std::to_string(bounds.min_x) + ", " + std::to_string(bounds.max_x) +
          "] x [" + std::to_string(bounds.min_y) + ", " +
          std::to_string(bounds.max_y) + "]");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// The phase runner and its recovery policy.
// ---------------------------------------------------------------------------

/// Span names of each Phase, indexed by its value.
constexpr const char* kPhaseSpanNames[] = {
    "phase-map", "phase-regroup", "phase-join", "phase-dedup-scatter",
    "phase-dedup-merge"};
constexpr const char* kTaskSpanNames[] = {
    "map-task", "regroup-task", "join-task", "dedup-scatter-task",
    "dedup-merge-task"};

/// What every phase of one job runs in. Written by the driver thread
/// between phases only; runner threads read it.
struct JobContext {
  ThreadPool* pool = nullptr;
  CancellationToken token;
  obs::TraceRecorder* trace = nullptr;
  Watchdog* watchdog = nullptr;
  obs::CounterRegistry* reg = nullptr;
  /// The fault source; null when recovery is off.
  const FaultInjector* injector = nullptr;
  /// True once the configured worker loss has struck.
  bool worker_lost = false;
  double recovery_seconds = 0.0;
};

/// One claimed attempt of an index under recovery.
struct Attempt {
  int index = 0;
  /// Position in the index's retry chain: 0 for the first attempt, k for
  /// the k-th retry. A backup carries the number of the attempt it backs
  /// up. The FaultInjector keys decisions on it.
  int number = 0;
  /// Backoff waited before this retry (0 for first attempts and backups).
  double backoff_seconds = 0.0;
  bool is_retry = false;
  /// A speculative backup: it draws no injected failure or straggle and is
  /// never struck by the worker loss, so the injected fault pattern is a
  /// function of the seed alone, not of which attempts got backed up.
  bool backup = false;
};

/// How an attempt ended. kInterrupted (its token fired) is resolved into
/// one of the others under the policy lock.
enum class Outcome : uint8_t {
  kSucceeded,
  kFailed,
  kInterrupted,
  /// The job was cancelled (external token or deadline).
  kAbandoned,
  /// A sibling attempt of the same index committed first.
  kSuperseded,
};

/// Attempt bookkeeping of one phase run with recovery on
/// (docs/FAULT_TOLERANCE.md):
///   * a failed attempt — injected, thrown, stalled (watchdog), or struck by
///     the worker loss — is re-queued after an exponential backoff until
///     FaultOptions::max_retries is exhausted, which aborts the phase with
///     kResourceExhausted;
///   * the worker loss fails the first attempt of every index the lost
///     worker owns in its phase; from then on the worker's work is
///     attributed to the failover neighbor (lost + 1) % workers;
///   * once a quarter of the indices (at least 3) committed, an idle runner
///     backs up an attempt running longer than straggler_multiplier x the
///     median committed time (the median is refreshed whenever the
///     committed count doubles). Regroup tasks scatter in place into their
///     column ranges and are never backed up: two attempts of one index
///     must not write the same range concurrently;
///   * the first successful attempt of an index commits and cancels its
///     running siblings that hold a heartbeat; later finishers are
///     discarded.
/// Runner threads share the bookkeeping under mu_ (rank kEnginePhaseState,
/// the outermost engine lock); only trace instants are recorded inside it.
class RecoveryPolicy {
 public:
  RecoveryPolicy(const JobContext& job, Phase phase, int count,
                 const char* task_name, bool lose_here, int workers)
      : job_(job),
        injector_(*job.injector),
        options_(injector_.options()),
        phase_(phase),
        count_(count),
        task_name_(task_name),
        lose_here_(lose_here),
        lost_(injector_.lost_worker()),
        survivor_(lost_ >= 0 && workers >= 2 ? (lost_ + 1) % workers : -1),
        speculate_(options_.speculation && phase != Phase::kRegroup),
        states_(static_cast<size_t>(count)) {}

  /// Claims runner `rnr`'s next attempt: a retry whose backoff elapsed, a
  /// fresh index from `queue`, or a speculative backup, in that order.
  /// Waits while only running attempts remain. Returns false once every
  /// index committed, the phase aborted, or the job was cancelled.
  bool Next(int rnr, StealQueue* queue, Attempt* attempt)
      PASJOIN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    while (!aborted_ && committed_ < count_ && !job_.token.IsCancelled()) {
      const double now = watch_.ElapsedSeconds();
      double wake = now + kIdlePollSeconds;
      for (size_t k = 0; k < retries_.size(); ++k) {
        if (retries_[k].ready_at > now) {
          wake = std::min(wake, retries_[k].ready_at);
          continue;
        }
        const QueuedRetry retry = retries_[k];
        retries_.erase(retries_.begin() + static_cast<std::ptrdiff_t>(k));
        Launch(retry.index, retry.backoff_seconds, /*is_retry=*/true,
               /*backup=*/false, attempt);
        return true;
      }
      int begin = 0;
      int end = 0;
      if (queue->Next(rnr, &begin, &end)) {
        Launch(begin, 0.0, /*is_retry=*/false, /*backup=*/false, attempt);
        return true;
      }
      const int backup = SpeculationCandidate(now);
      if (backup >= 0) {
        Launch(backup, 0.0, /*is_retry=*/false, /*backup=*/true, attempt);
        return true;
      }
      cv_.WaitFor(&mu_, std::chrono::duration<double>(wake - now));
    }
    return false;
  }

  /// Executes `attempt` on the calling runner thread: consults the
  /// FaultInjector, runs `task(index, state, cancel)`, and calls
  /// `settle(index, state, commit)` after every task call — commit is true
  /// for exactly one attempt per index. A committed attempt's time is
  /// attributed in `shard`.
  template <typename State, typename Task, typename Settle>
  void Run(const Attempt& attempt, int owner, State& state, const Task& task,
           const Settle& settle, PhaseClock::Shard* shard)
      PASJOIN_EXCLUDES(mu_) {
    const int i = attempt.index;
    const bool straggler =
        !attempt.backup && injector_.IsStraggler(phase_, i, attempt.number);
    // An attempt gets its own heartbeat (token + progress cell) only when
    // something may have to stop it alone: the watchdog, or a sibling's
    // commit ending a straggler or a re-execution. Others poll the job
    // token.
    std::shared_ptr<TaskHeartbeat> heartbeat;
    if (straggler || attempt.number > 0 || attempt.backup ||
        job_.watchdog->stall_detection()) {
      heartbeat = std::make_shared<TaskHeartbeat>(job_.token, task_name_, i);
      {
        MutexLock lock(&mu_);
        states_[static_cast<size_t>(i)].live.push_back(heartbeat);
      }
      // Registered only once executing: queue wait must not count against
      // the watchdog's quiet period.
      job_.watchdog->Register(heartbeat);
    }
    const int attributed =
        job_.worker_lost && owner == lost_ && survivor_ >= 0 ? survivor_
                                                             : owner;
    // The attempt span lands on the attributed worker's track; spans opened
    // inside `task` inherit it. Failed and losing attempts record
    // committed=0, so the trace rollup counts only what the PhaseClock did.
    obs::ScopedTrack track_scope(job_.trace, attributed);
    obs::ScopedSpan span(job_.trace, task_name_, "task");
    span.AddArg("task", i);
    span.AddArg("attempt", attempt.number);
    Stopwatch watch;
    const CancellationToken token =
        heartbeat != nullptr ? heartbeat->token() : job_.token;
    Outcome outcome = Outcome::kSucceeded;
    std::string error;
    // Backups run on healthy workers: no worker loss, no injected fault.
    if (!attempt.backup && lose_here_ && attempt.number == 0 &&
        owner == lost_) {
      outcome = Outcome::kFailed;
      error = "logical worker " + std::to_string(lost_) + " lost";
    } else if (!attempt.backup &&
               injector_.ShouldFail(phase_, i, attempt.number)) {
      outcome = Outcome::kFailed;
      error = "injected fault";
    } else if (straggler &&
               token.WaitForCancellation(injector_.StragglerDelaySeconds())) {
      // The straggler delay was cut short: a job cancel, a sibling's
      // commit, or the watchdog's stall verdict (the heartbeat stays flat
      // while the straggler sleeps — the stall signature).
      outcome = Outcome::kInterrupted;
    }
    const bool ran = outcome == Outcome::kSucceeded;
    if (ran) {
      const spatial::KernelCancellation cancel{
          &token, heartbeat != nullptr ? heartbeat->cell() : nullptr};
      try {
        task(i, state, &cancel);
      } catch (const std::exception& e) {
        outcome = Outcome::kFailed;
        error = e.what();
      } catch (...) {
        outcome = Outcome::kFailed;
        error = "unknown exception";
      }
      // A token that fired mid-task cut it short: its output is partial.
      if (outcome == Outcome::kSucceeded && token.IsCancelled()) {
        outcome = Outcome::kInterrupted;
      }
    }
    if (outcome == Outcome::kInterrupted) error = token.ToStatus().message();
    const double elapsed = watch.ElapsedSeconds();
    std::vector<std::shared_ptr<TaskHeartbeat>> siblings;
    const bool winner = EndAttempt(attempt, outcome, error, elapsed, attributed,
                                   heartbeat, &siblings);
    if (ran) settle(i, state, winner);
    if (winner) shard->Add(attributed, elapsed);
    span.AddArg("committed", winner ? 1 : 0);
    if (heartbeat != nullptr) job_.watchdog->Unregister(heartbeat);
    // The winner interrupts still-running siblings (speculation losers, or
    // the straggler a backup beat): each stops at its next poll instead of
    // finishing work that can never commit. Outside every lock.
    for (const std::shared_ptr<TaskHeartbeat>& other : siblings) {
      other->Cancel(StatusCode::kCancelled, "sibling attempt committed");
    }
  }

  /// Folds the phase's recovery counters into the job; returns the abort
  /// status, if any. Call after every runner returned.
  Status Finish(JobContext* job) PASJOIN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    job->reg->Add("tasks_failed", failed_);
    job->reg->Add("tasks_retried", retried_);
    job->reg->Add("tasks_speculated", speculated_);
    job->reg->Add("tasks_cancelled", cancelled_);
    job->recovery_seconds += recovery_seconds_;
    return aborted_ ? failure_ : Status::OK();
  }

 private:
  /// Idle runners re-check for stragglers (and the job token) this often.
  static constexpr double kIdlePollSeconds = 500e-6;

  struct AttemptState {
    bool committed = false;
    bool speculated = false;
    int attempts = 0;
    int running = 0;
    int failures = 0;
    /// Phase seconds at which the oldest running attempt began; drives the
    /// speculation threshold.
    double started_at = 0.0;
    std::string last_error;
    /// Heartbeats of the running attempts; the winner cancels the others.
    std::vector<std::shared_ptr<TaskHeartbeat>> live;
  };

  struct QueuedRetry {
    int index = 0;
    double ready_at = 0.0;
    double backoff_seconds = 0.0;
  };

  void Launch(int i, double backoff_seconds, bool is_retry, bool backup,
              Attempt* attempt) PASJOIN_REQUIRES(mu_) {
    AttemptState& st = states_[static_cast<size_t>(i)];
    // A backup shares the number of the chain attempt it backs up; only
    // first attempts and retries advance the chain.
    const int number = backup ? st.attempts - 1 : st.attempts++;
    *attempt = Attempt{i, number, backoff_seconds, is_retry, backup};
    if (st.running++ == 0) {
      running_.push_back(i);
      st.started_at = watch_.ElapsedSeconds();
    }
  }

  /// The first running, not yet backed-up attempt older than the straggler
  /// threshold, marked speculated; -1 when there is none.
  int SpeculationCandidate(double now) PASJOIN_REQUIRES(mu_) {
    const size_t min_samples =
        std::max<size_t>(3, static_cast<size_t>(count_) / 4);
    if (!speculate_ || durations_.size() < min_samples) return -1;
    if (durations_.size() >= 2 * median_samples_) {
      std::vector<double> sorted = durations_;
      const auto mid = static_cast<std::ptrdiff_t>(sorted.size() / 2);
      std::nth_element(sorted.begin(), sorted.begin() + mid, sorted.end());
      median_ = sorted[static_cast<size_t>(mid)];
      median_samples_ = durations_.size();
    }
    const double threshold =
        std::max(options_.straggler_multiplier * median_, 1e-3);
    for (const int i : running_) {
      AttemptState& st = states_[static_cast<size_t>(i)];
      if (st.committed || st.speculated || now - st.started_at <= threshold) {
        continue;
      }
      st.speculated = true;
      ++speculated_;
      Instant("fault-speculate", "fault", obs::kDriverTrack, i);
      return i;
    }
    return -1;
  }

  /// Books the end of one attempt; returns true when it commits its index
  /// and fills `siblings` with the heartbeats the winner must cancel. An
  /// interrupted attempt was abandoned if the job was cancelled, superseded
  /// if a sibling committed, and otherwise stalled — a failure, so the index
  /// is re-executed from its retained input.
  bool EndAttempt(const Attempt& attempt, Outcome outcome,
                  const std::string& error, double elapsed, int attributed,
                  const std::shared_ptr<TaskHeartbeat>& heartbeat,
                  std::vector<std::shared_ptr<TaskHeartbeat>>* siblings)
      PASJOIN_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    const int i = attempt.index;
    AttemptState& st = states_[static_cast<size_t>(i)];
    st.live.erase(std::remove(st.live.begin(), st.live.end(), heartbeat),
                  st.live.end());
    if (--st.running == 0) {
      running_.erase(std::find(running_.begin(), running_.end(), i));
    }
    if (attempt.is_retry) {
      recovery_seconds_ += attempt.backoff_seconds + elapsed;
    }
    if (outcome == Outcome::kInterrupted) {
      outcome = job_.token.IsCancelled() ? Outcome::kAbandoned
                : st.committed           ? Outcome::kSuperseded
                                         : Outcome::kFailed;
    }
    if (outcome == Outcome::kAbandoned) {
      ++cancelled_;
      Instant("cancel-abandon", "cancel", obs::kDriverTrack, i);
    } else if (outcome == Outcome::kFailed) {
      ++st.failures;
      ++failed_;
      st.last_error = error;
      Instant("fault-failure", "fault", attributed, i);
      // A sibling still running may yet commit; its own end decides.
      if (!st.committed && st.running == 0) QueueRetry(i);
    } else if (outcome == Outcome::kSucceeded && !st.committed) {
      st.committed = true;
      durations_.push_back(elapsed);
      *siblings = st.live;
      if (++committed_ == count_) cv_.NotifyAll();
      return true;
    }
    return false;
  }

  /// Records instant `name` about index `i`. Category "cancel" instants
  /// are reconciled against tasks_cancelled by trace_summary.py.
  void Instant(const char* name, const char* category, int32_t track, int i) {
    if (job_.trace == nullptr) return;
    job_.trace->Instant(name, category, track, "task", i);
  }

  /// Re-queues failed index `i` behind its backoff, or aborts the phase
  /// once its retry budget is spent.
  void QueueRetry(int i) PASJOIN_REQUIRES(mu_) {
    AttemptState& st = states_[static_cast<size_t>(i)];
    cv_.NotifyAll();
    if (st.failures > options_.max_retries) {
      if (!aborted_) {
        aborted_ = true;
        failure_ = Status::ResourceExhausted(
            "task " + std::to_string(i) + " of phase " + PhaseName(phase_) +
            " failed " + std::to_string(st.failures) +
            " time(s), retry budget (" + std::to_string(options_.max_retries) +
            ") exhausted; last error: " + st.last_error);
      }
      return;
    }
    const double backoff_seconds =
        options_.backoff_base_ms *
        std::pow(options_.backoff_multiplier, st.failures - 1) / 1000.0;
    retries_.push_back(QueuedRetry{
        i, watch_.ElapsedSeconds() + backoff_seconds, backoff_seconds});
    ++retried_;
    Instant("fault-retry", "fault", obs::kDriverTrack, i);
    if (backoff_seconds > 0.0) {
      Instant("fault-backoff", "fault", obs::kDriverTrack, i);
    }
  }

  const JobContext& job_;
  const FaultInjector& injector_;
  const FaultOptions& options_;
  const Phase phase_;
  const int count_;
  const char* const task_name_;
  const bool lose_here_;
  const int lost_;
  const int survivor_;
  const bool speculate_;
  const Stopwatch watch_;

  Mutex mu_{"RecoveryPolicy::mu_", lockrank::kEnginePhaseState};
  CondVar cv_;
  std::vector<AttemptState> states_ PASJOIN_GUARDED_BY(mu_);
  /// Indices with at least one running attempt (speculation scans these).
  std::vector<int> running_ PASJOIN_GUARDED_BY(mu_);
  std::vector<QueuedRetry> retries_ PASJOIN_GUARDED_BY(mu_);
  int committed_ PASJOIN_GUARDED_BY(mu_) = 0;
  bool aborted_ PASJOIN_GUARDED_BY(mu_) = false;
  Status failure_ PASJOIN_GUARDED_BY(mu_);
  std::vector<double> durations_ PASJOIN_GUARDED_BY(mu_);
  double median_ PASJOIN_GUARDED_BY(mu_) = 0.0;
  size_t median_samples_ PASJOIN_GUARDED_BY(mu_) = 0;
  uint64_t failed_ PASJOIN_GUARDED_BY(mu_) = 0;
  uint64_t retried_ PASJOIN_GUARDED_BY(mu_) = 0;
  uint64_t speculated_ PASJOIN_GUARDED_BY(mu_) = 0;
  uint64_t cancelled_ PASJOIN_GUARDED_BY(mu_) = 0;
  double recovery_seconds_ PASJOIN_GUARDED_BY(mu_) = 0.0;
};

/// Work-stealing phase driver (docs/PARALLELISM.md): runs every index in
/// [0, count) of `phase` across the pool's threads. One runner per thread
/// is submitted; each builds its scratch with `make_state()` and claims
/// grain-sized index blocks from a StealQueue (own slice first, stealing
/// once dry), so a straggling index range is finished by whichever thread
/// frees up — logical workers stay a pure placement concept. An index runs
/// as `task(index, state, cancel)` followed by `settle(index, state,
/// commit)`, which publishes the output when `commit` and discards it
/// otherwise; `finish(state)` runs once per runner after its last index.
/// With recovery on (job->injector set), runners claim one index at a time
/// through a RecoveryPolicy; otherwise every index runs once and commits,
/// and a throw propagates.
///
/// Each committed index's time is attributed to `owner_of(index)`'s logical
/// worker in `clock` via a thread-confined PhaseClock::Shard merged once per
/// runner; the phase's wall time is added to `*measured_seconds`. Once the
/// job token fires, runners stop claiming, queued runners are dropped, and
/// the token's status is returned — the phase's outputs must be discarded.
template <typename OwnerOf, typename MakeState, typename Task,
          typename Settle, typename Finish>
Status RunStealPhase(JobContext* job, Phase phase, int count, int grain,
                     PhaseClock* clock, const OwnerOf& owner_of,
                     const MakeState& make_state, const Task& task,
                     const Settle& settle, const Finish& finish,
                     double* measured_seconds) {
  obs::TraceRecorder* const trace = job->trace;
  const char* const task_name = kTaskSpanNames[static_cast<int>(phase)];
  obs::ScopedSpan phase_span(trace, kPhaseSpanNames[static_cast<int>(phase)],
                             "phase");
  phase_span.SetTrack(obs::kDriverTrack);
  phase_span.AddArg("tasks", count);
  Stopwatch phase_wall;
  std::unique_ptr<RecoveryPolicy> recovery;
  if (job->injector != nullptr) {
    const bool lose_here = job->injector->LosesWorkerIn(phase);
    if (lose_here) {
      job->worker_lost = true;
      if (trace != nullptr) {
        trace->Instant("fault-worker-lost", "fault", obs::kDriverTrack,
                       "worker", job->injector->lost_worker());
      }
    }
    recovery = std::make_unique<RecoveryPolicy>(
        *job, phase, count, task_name, lose_here, clock->workers());
    grain = 1;
  }
  const CancellationToken& cancel = job->token;
  const spatial::KernelCancellation job_cancel{&cancel, nullptr};
  const int runners = std::min(job->pool->num_threads(), count);
  StealQueue queue(count, std::max(1, runners), grain);
  for (int rnr = 0; rnr < runners; ++rnr) {
    job->pool->Submit([&, rnr] {
      if (cancel.IsCancelled()) return;  // dequeued after the cancel
      PhaseClock::Shard shard(clock->workers());
      auto state = make_state();
      if (recovery != nullptr) {
        Attempt attempt;
        while (recovery->Next(rnr, &queue, &attempt)) {
          recovery->Run(attempt, owner_of(attempt.index), state, task, settle,
                        &shard);
        }
      } else {
        int begin = 0;
        int end = 0;
        while (!cancel.IsCancelled() && queue.Next(rnr, &begin, &end)) {
          for (int i = begin; i < end && !cancel.IsCancelled(); ++i) {
            const int w = owner_of(i);
            obs::ScopedTrack track_scope(trace, w);
            obs::ScopedSpan span(trace, task_name, "task");
            span.AddArg("task", i);
            Stopwatch watch;
            task(i, state, &job_cancel);
            settle(i, state, /*commit=*/true);
            shard.Add(w, watch.ElapsedSeconds());
          }
        }
      }
      finish(state);
      clock->Merge(shard);
    });
  }
  Status st = job->pool->Wait(cancel);
  if (recovery != nullptr) {
    const Status recovered = recovery->Finish(job);
    if (st.ok()) st = recovered;
  }
  *measured_seconds += phase_wall.ElapsedSeconds();
  return st;
}

/// RunStealPhase for phases whose index `i` computes one value for
/// `(*slots)[i]`: an attempt computes into runner-local state and only the
/// committing attempt moves it into its slot.
template <typename Out, typename OwnerOf, typename Compute>
Status RunSlotPhase(JobContext* job, Phase phase, PhaseClock* clock,
                    const OwnerOf& owner_of, std::vector<Out>* slots,
                    const Compute& compute, double* measured_seconds) {
  return RunStealPhase(
      job, phase, static_cast<int>(slots->size()), /*grain=*/1, clock,
      owner_of, [] { return Out{}; },
      [&](int i, Out& out, const spatial::KernelCancellation* cancel) {
        out = compute(i, cancel);
      },
      [slots](int i, Out& out, bool commit) {
        if (commit) (*slots)[static_cast<size_t>(i)] = std::move(out);
        out = Out{};
      },
      [](Out&) {}, measured_seconds);
}

Result<JoinRun> RunJob(const Dataset& r, const Dataset& s,
                       const AssignFn& assign, const OwnerFn& owner,
                       const EngineOptions& options) {
  // The R-tree indexes the globally larger relation, S on a tie (the
  // paper's Sedona setup, Section 7.1).
  const bool index_r = r.tuples.size() > s.tuples.size();
  obs::TraceRecorder* const trace = options.trace;
  // The job's integer observables accumulate in a counter registry — the
  // trace's own registry when tracing (making the exported trace
  // self-describing), a throwaway one otherwise — and JobMetrics snapshots
  // them out at the end. Folds happen at phase boundaries, never per tuple.
  obs::CounterRegistry local_registry;
  obs::CounterRegistry* const reg =
      trace != nullptr ? &trace->counters() : &local_registry;
  reg->Clear();
  const int workers = options.workers;
  const int num_splits =
      options.num_splits > 0 ? options.num_splits : 4 * workers;
  const int physical = options.physical_threads > 0 ? options.physical_threads
                                                    : ThreadPool::DefaultThreads();
  const bool recovering = options.fault.enabled;
  // Destruction order matters: the pool is declared LAST so it drains its
  // tasks first, then the watchdog thread joins, then the job source (which
  // task tokens link to) goes away.
  CancellationSource job_source(options.cancel);
  Watchdog watchdog(options.watchdog, options.deadline, &job_source, trace);
  FaultInjector injector(options.fault);
  ThreadPool pool(physical);
  JobContext job{&pool, job_source.token(), trace, &watchdog, reg,
                 recovering ? &injector : nullptr};

  JoinRun run;
  JobMetrics& m = run.metrics;
  m.workers = workers;
  m.physical_threads = pool.num_threads();
  Stopwatch wall;
  double measured_construction = 0.0;
  double measured_join = 0.0;
  double measured_dedup = 0.0;
  const auto by_worker = [](int w) { return w; };

  // ---------------------------------------------------------------- map ---
  // Pass 1 of the columnar shuffle, one task per input split: assign every
  // tuple and count its instances per destination partition.
  const int map_tasks = 2 * num_splits;
  const auto split_of = [&](int task) {
    return SplitOf(task, r, s, num_splits, workers);
  };
  const auto split_worker = [&](int task) {
    return (task % num_splits) % workers;
  };
  std::vector<SplitAssignment> maps(static_cast<size_t>(map_tasks));
  PhaseClock map_clock(workers);
  PASJOIN_RETURN_NOT_OK(RunStealPhase(
      &job, Phase::kMap, map_tasks, /*grain=*/1, &map_clock, split_worker,
      [] { return MapScratch{}; },
      [&](int task, MapScratch& scratch,
          const spatial::KernelCancellation* cancel) {
        AssignSplit(split_of(task), assign, options.carry_payloads, &scratch,
                    cancel);
      },
      [&](int task, MapScratch& scratch, bool commit) {
        if (commit) maps[static_cast<size_t>(task)] = std::move(scratch.out);
      },
      [](MapScratch&) {}, &measured_construction));
  // Counters fold at the phase boundary, never per tuple
  // (docs/OBSERVABILITY.md).
  for (size_t task = 0; task < maps.size(); ++task) {
    const SplitAssignment& map = maps[task];
    if (!map.error.empty()) return Status::InvalidArgument(map.error);
    reg->Add(task < static_cast<size_t>(num_splits) ? "replicated_r"
                                                    : "replicated_s",
             map.replicated);
    reg->Add("shuffled_tuples", map.parts.size());
    reg->Add("shuffle_bytes", map.shuffle_bytes);
  }
  Result<ShuffleLayout> laid_out =
      LayOutShuffle(&maps, owner, workers, num_splits);
  if (!laid_out.ok()) return laid_out.status();
  const ShuffleLayout layout = laid_out.MoveValue();
  reg->Add("shuffle_remote_bytes", layout.remote_bytes);

  // ------------------------------------------------------------ regroup ---
  // Pass 2, again one task per split: scatter id/x/y (and payload bytes)
  // into the per-partition columns. Each task writes only its own disjoint
  // ranges, in place, which is why the recovery policy never backs up a
  // regroup task.
  const bool carry = options.carry_payloads;
  ShuffleColumns cols(layout, carry);
  PhaseClock regroup_clock(workers);
  PASJOIN_RETURN_NOT_OK(RunStealPhase(
      &job, Phase::kRegroup, map_tasks, /*grain=*/1, &regroup_clock,
      split_worker,
      [&] {
        return ScatterScratch{std::vector<uint64_t>(layout.num_partitions),
                              std::vector<uint64_t>(layout.num_partitions)};
      },
      [&](int task, ScatterScratch& scratch,
          const spatial::KernelCancellation* cancel) {
        cols.Scatter(split_of(task), maps[static_cast<size_t>(task)],
                     &scratch, cancel);
      },
      [](int, ScatterScratch&, bool) {}, [](ScatterScratch&) {},
      &measured_construction));
  // Without recovery nothing reads the pass-1 outputs again.
  if (!recovering) std::vector<SplitAssignment>().swap(maps);

  // --------------------------------------------------------------- join ---
  // The stolen unit is one (worker, partition) pair, not one worker: LPT
  // placement decides which logical worker OWNS a partition (lineage,
  // accounting, trace track), stealing decides which thread JOINS it. Items
  // follow the column layout — per worker, partitions by id — so results
  // never depend on claim order.
  const bool keep_pairs = options.collect_results || options.deduplicate;
  std::vector<const PartitionSlot*> join_items;
  for (const PartitionSlot& slot : layout.slots) {
    if (slot.r > 0 && slot.s > 0) join_items.push_back(&slot);
  }
  // Targeted failures strike the named partition's own join item. All
  // runners of the previous phases have returned, so registering now
  // happens-before every concurrent query of the join phase.
  const std::vector<int32_t>& fail_partitions = options.fault.fail_partitions;
  for (size_t i = 0; recovering && i < join_items.size(); ++i) {
    if (std::find(fail_partitions.begin(), fail_partitions.end(),
                  join_items[i]->part) != fail_partitions.end()) {
      injector.AddTargetedFailure(Phase::kJoin, static_cast<int>(i));
    }
  }
  // A worker lost in the join phase takes its partitions' columns with it;
  // its items rebuild each partition from lineage, one per attempt.
  const int lost = options.fault.lost_worker;
  const bool rebuild = recovering && injector.LosesWorkerIn(Phase::kJoin);
  if (rebuild) {
    for (const PartitionSlot& slot : layout.slots) {
      if (slot.worker == lost) cols.Drop(slot);
    }
  }
  std::vector<WorkerMergeSlot> merge_slots(static_cast<size_t>(workers));
  PhaseClock join_clock(workers);
  {
    const int item_count = static_cast<int>(join_items.size());
    PASJOIN_RETURN_NOT_OK(RunStealPhase(
        &job, Phase::kJoin, item_count,
        StealQueue::DefaultGrain(item_count, pool.num_threads()), &join_clock,
        [&](int i) { return join_items[static_cast<size_t>(i)]->worker; },
        [&] { return JoinThreadState(workers); },
        [&](int i, JoinThreadState& state,
            const spatial::KernelCancellation* cancel) {
          const PartitionSlot& slot = *join_items[static_cast<size_t>(i)];
          JoinThreadState::WorkerAcc& acc =
              state.acc[static_cast<size_t>(slot.worker)];
          state.undo_pairs = acc.pairs.size();
          state.undo_totals = acc.totals;
          PartitionView view = cols.View(slot);
          if (rebuild && slot.worker == lost) {
            obs::ScopedSpan rebuild_span(trace, "fault-rebuild", "fault");
            rebuild_span.AddArg("worker", slot.worker);
            rebuild_span.AddArg("cell", slot.part);
            RebuildPartition(slot.part, maps, r, s, num_splits, workers,
                             carry, &state.rebuilt);
            view = state.rebuilt.View(carry);
          }
          JoinSinglePartition(slot.part, view, options, index_r, keep_pairs,
                              &state, &acc, trace, cancel);
        },
        [&](int i, JoinThreadState& state, bool commit) {
          const int w = join_items[static_cast<size_t>(i)]->worker;
          JoinThreadState::WorkerAcc& acc = state.acc[static_cast<size_t>(w)];
          if (!commit) {
            acc.pairs.resize(state.undo_pairs);
            acc.totals = state.undo_totals;
            return;
          }
          if (acc.pairs.size() >= kPairFlushThreshold) {
            FlushWorkerAcc(&acc, &merge_slots[static_cast<size_t>(w)]);
          }
        },
        [&](JoinThreadState& state) {
          for (int w = 0; w < workers; ++w) {
            FlushWorkerAcc(&state.acc[static_cast<size_t>(w)],
                           &merge_slots[static_cast<size_t>(w)]);
          }
        },
        &measured_join));
  }
  m.local_kernel = spatial::LocalJoinKernelName(options.local_kernel);
  std::vector<std::vector<ResultPair>> worker_pairs(
      static_cast<size_t>(workers));
  {
    JoinTotals totals;
    for (int w = 0; w < workers; ++w) {
      WorkerMergeSlot& slot = merge_slots[static_cast<size_t>(w)];
      MutexLock lock(&slot.mu);
      worker_pairs[static_cast<size_t>(w)] = std::move(slot.pairs);
      totals += slot.totals;
    }
    m.kernel_sort_seconds = totals.timings.sort_seconds;
    m.kernel_sweep_seconds = totals.timings.sweep_seconds;
    m.kernel_emit_seconds = totals.timings.emit_seconds;
    reg->Add("candidates", totals.counters.candidates);
    reg->Add("results", totals.counters.results - totals.filtered);
    reg->Add("partitions_joined", totals.partitions);
  }
  join_items.clear();
  cols = ShuffleColumns{};
  std::vector<SplitAssignment>().swap(maps);

  // -------------------------------------------------------------- dedup ---
  // Parallel distinct over the produced pairs (the paper's non-duplicate-
  // free variant, Table 6): hash-partition pairs across workers, then each
  // worker removes duplicates in its bucket.
  if (options.deduplicate) {
    std::vector<std::vector<std::vector<ResultPair>>> buckets(
        static_cast<size_t>(workers));
    PhaseClock scatter_clock(workers);
    PASJOIN_RETURN_NOT_OK(RunSlotPhase(
        &job, Phase::kDedupScatter, &scatter_clock, by_worker, &buckets,
        [&](int w, const spatial::KernelCancellation* cancel) {
          return ScatterWorkerPairs(worker_pairs[static_cast<size_t>(w)],
                                    workers, cancel);
        },
        &measured_dedup));
    // Pair bytes crossing workers count as shuffle traffic.
    AccumulateDedupShuffle(buckets, workers, reg);
    std::vector<DedupMergeOutput> merged(static_cast<size_t>(workers));
    PhaseClock merge_clock(workers);
    PASJOIN_RETURN_NOT_OK(RunSlotPhase(
        &job, Phase::kDedupMerge, &merge_clock, by_worker, &merged,
        [&](int w, const spatial::KernelCancellation* cancel) {
          return MergeDedupBucket(buckets, w, workers, options.collect_results,
                                  cancel);
        },
        &measured_dedup));
    m.dedup_seconds = scatter_clock.Makespan() + merge_clock.Makespan();
    uint64_t unique_total = 0;
    for (DedupMergeOutput& out : merged) {
      unique_total += out.count;
      run.pairs.insert(run.pairs.end(), out.unique.begin(), out.unique.end());
    }
    reg->Set("results", unique_total);
  } else if (options.collect_results) {
    for (auto& v : worker_pairs) {
      run.pairs.insert(run.pairs.end(), v.begin(), v.end());
    }
  }

  // A cancel/deadline that fired after the last phase drained still turns
  // the run into an error — never publish results past a cancellation.
  if (job.token.IsCancelled()) return job.token.ToStatus();

  m.construction_seconds = map_clock.Makespan() + regroup_clock.Makespan();
  m.join_seconds = join_clock.Makespan();
  m.worker_busy_join = join_clock.busy();
  m.measured_construction_seconds = measured_construction;
  m.measured_join_seconds = measured_join;
  m.measured_dedup_seconds = measured_dedup;
  if (recovering) reg->Add("watchdog_fires", watchdog.fires());
  m.recovery_seconds = job.recovery_seconds;
  SnapshotCounters(*reg, &m);
  m.wall_seconds = wall.ElapsedSeconds();
  if (!options.deadline.unlimited()) {
    m.deadline_slack_seconds = options.deadline.SecondsRemaining();
  }
  if (trace != nullptr) PublishMetricGauges(m, reg);
  return run;
}

}  // namespace

Status CheckRunnable(const ExecutionOptions& options) {
  if (!std::isfinite(options.eps) || !(options.eps > 0.0)) {
    return Status::InvalidArgument("eps must be positive and finite");
  }
  if (options.workers <= 0) {
    return Status::InvalidArgument("workers must be positive");
  }
  if (options.num_splits < 0) {
    return Status::InvalidArgument("num_splits must be >= 0");
  }
  if (options.physical_threads < 0) {
    return Status::InvalidArgument("physical_threads must be >= 0");
  }
  PASJOIN_RETURN_NOT_OK(options.fault.Validate(options.workers));
  PASJOIN_RETURN_NOT_OK(options.watchdog.Validate());
  if (options.cancel.IsCancelled()) return options.cancel.ToStatus();
  if (options.deadline.HasExpired()) {
    return Status::DeadlineExceeded("job deadline expired before the run");
  }
  return Status::OK();
}

Result<JoinRun> TryRunPartitionedJoin(const Dataset& r, const Dataset& s,
                                      const AssignFn& assign,
                                      const OwnerFn& owner,
                                      const EngineOptions& options) {
  PASJOIN_RETURN_NOT_OK(CheckRunnable(options));
  PASJOIN_RETURN_NOT_OK(ValidateDatasetCoordinates(r, options.bounds));
  if (&r != &s) {
    PASJOIN_RETURN_NOT_OK(ValidateDatasetCoordinates(s, options.bounds));
  }
  // With recovery on, task exceptions become failed attempts; whatever
  // still escapes (recovery off, or the driver itself) becomes kInternal.
  try {
    return RunJob(r, s, assign, owner, options);
  } catch (const std::exception& e) {
    return Status::Internal(std::string("engine task failed: ") + e.what());
  } catch (...) {
    return Status::Internal("engine task failed: unknown exception");
  }
}

Result<JoinRun> FinishDriverRun(Result<JoinRun> run, const char* algorithm,
                                double driver_seconds, double planning_seconds,
                                obs::TraceRecorder* trace) {
  if (!run.ok()) return run;
  JobMetrics& m = run.value().metrics;
  m.algorithm = algorithm;
  m.construction_seconds += driver_seconds;
  m.measured_construction_seconds += driver_seconds;
  // Planning is a subset of the driver time already folded into
  // construction; the break-out feeds trace validation and the bench gate.
  m.measured_planning_seconds = planning_seconds;
  if (trace != nullptr) {
    trace->counters().SetGauge("driver_seconds", driver_seconds);
    PublishMetricGauges(m, &trace->counters());
  }
  return run;
}

}  // namespace pasjoin::exec
