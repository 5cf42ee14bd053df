// Copyright 2026 The pasjoin Authors.
//
// The engine's columnar, count-then-scatter shuffle (the map -> regroup
// data path of Algorithm 5; docs/PARALLELISM.md):
//
//   1. AssignSplit (phase-map, one task per input split): assign every
//      tuple, record its partition ids in a flat array, and count instances
//      and payload bytes per destination partition;
//   2. LayOutShuffle (driver): prefix sums that lay the partitions out by
//      (owner, id) and give every task a disjoint write range inside each
//      partition, in (partition, side, task) order;
//   3. ShuffleColumns::Scatter (phase-regroup, one task per split): write
//      id/x/y into the per-partition struct-of-arrays columns, and payload
//      bytes into an offset-indexed arena when the shuffle carries them.
//
// Each partition then holds its R instances followed by its S instances,
// each in (map task, input) order: the order the join kernels and every
// determinism suite rely on. The SoA sweep sorts straight from the
// columns; other kernels get Tuples materialized from them.
#ifndef PASJOIN_EXEC_SHUFFLE_H_
#define PASJOIN_EXEC_SHUFFLE_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"
#include "exec/engine.h"
#include "spatial/local_join.h"

namespace pasjoin::exec {

/// One input split: tuples [lo, hi) of relation (task < num_splits ? R : S)
/// cut into `num_splits` contiguous splits, co-located with logical worker
/// split % workers (its "HDFS block locality").
struct Split {
  Side side = Side::kR;
  const Tuple* tuples = nullptr;
  size_t n = 0;
  int worker = 0;
};

Split SplitOf(int task, const Dataset& r, const Dataset& s, int num_splits,
              int workers);

/// One destination partition of a map task: how many tuple instances and
/// payload bytes the task sends there and, once LayOutShuffle ran, where in
/// the columns and the payload arena it writes them.
struct PartitionShare {
  PartitionId part = 0;
  uint64_t count = 0;
  uint64_t payload_bytes = 0;
  uint64_t dest = 0;
  uint64_t payload_dest = 0;
};

/// Pass-1 output of one map task. `parts` lists the partition of every
/// tuple instance in input order; the first instance of each tuple is
/// stored complemented (~part < 0), which marks tuple boundaries without a
/// per-tuple index. With recovery on, these outputs are the retained
/// lineage a lost partition is rebuilt from.
struct SplitAssignment {
  std::vector<PartitionId> parts;
  /// Distinct destination partitions, ascending by id.
  std::vector<PartitionShare> shares;
  uint64_t replicated = 0;
  uint64_t shuffle_bytes = 0;
  /// Set when `assign` returned an empty list or a negative partition id.
  std::string error;
};

/// Runner-local state of the map phase: a dense per-partition histogram,
/// grown on demand and all-zero between tasks, and the attempt's output.
struct MapScratch {
  std::vector<uint64_t> count;
  std::vector<uint64_t> bytes;
  std::vector<PartitionId> touched;
  SplitAssignment out;
};

/// Pass 1 for one split, into scratch->out. Polls `cancel` every
/// kKernelPollGrain tuples and stops early once it fires (the caller
/// discards the partial output); the histogram is left all-zero either way.
void AssignSplit(const Split& split, const AssignFn& assign,
                 bool carry_payloads, MapScratch* scratch,
                 const spatial::KernelCancellation* cancel);

/// One partition's place in the columns: `r` R instances from `begin`, then
/// `s` S instances.
struct PartitionSlot {
  PartitionId part = 0;
  int worker = 0;
  uint64_t begin = 0;
  uint64_t r = 0;
  uint64_t s = 0;
};

/// Every partition with tuples, in column order: by owner, then by id, so
/// each logical worker's partitions form one contiguous range.
struct ShuffleLayout {
  std::vector<PartitionSlot> slots;
  /// 1 + the largest partition id.
  size_t num_partitions = 0;
  uint64_t instances = 0;
  uint64_t arena_bytes = 0;
  /// Shuffle bytes whose partition's owner is not their split's worker.
  uint64_t remote_bytes = 0;
};

/// The prefix sums between the two passes: fills every share's dest and
/// payload_dest. Fails with kInvalidArgument when `owner` maps a partition
/// outside [0, workers).
[[nodiscard]] Result<ShuffleLayout> LayOutShuffle(
    std::vector<SplitAssignment>* maps, const OwnerFn& owner, int workers,
    int num_splits);

/// Read view of one partition: `r` R instances, then `s` S instances. With
/// payloads, instance k's bytes are arena[payload_offset[k],
/// payload_offset[k + 1]).
struct PartitionView {
  const double* x = nullptr;
  const double* y = nullptr;
  const int64_t* id = nullptr;
  /// Null when the shuffle carried no payloads.
  const uint64_t* payload_offset = nullptr;
  const char* arena = nullptr;
  size_t r = 0;
  size_t s = 0;
};

/// Runner-local write cursors of the regroup phase, indexed by partition.
struct ScatterScratch {
  std::vector<uint64_t> next;
  std::vector<uint64_t> next_byte;
};

/// Every shuffled tuple instance in struct-of-arrays layout, grouped by
/// partition as the layout says.
class ShuffleColumns {
 public:
  ShuffleColumns() = default;
  /// Allocates (uninitialized) columns for `layout`; the arena and offsets
  /// only when `carry_payloads`.
  ShuffleColumns(const ShuffleLayout& layout, bool carry_payloads);

  /// Pass 2 for one split: writes its instances inside the ranges the
  /// layout gave its shares. Ranges of different tasks are disjoint, so
  /// splits scatter in parallel without synchronization, and a re-executed
  /// task rewrites exactly the same values. Polls `cancel` every
  /// kKernelPollGrain instances (partial output on cancel).
  void Scatter(const Split& split, const SplitAssignment& map,
               ScatterScratch* scratch,
               const spatial::KernelCancellation* cancel);

  PartitionView View(const PartitionSlot& slot) const;

  /// Overwrites a partition's coordinates with NaN: the simulated loss of
  /// the worker holding it. Only a rebuild from lineage can restore it.
  void Drop(const PartitionSlot& slot);

 private:
  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };
  template <typename T>
  using Column = std::unique_ptr<T[], FreeDeleter>;
  template <typename T>
  static Column<T> Allocate(size_t n);

  bool payloads_ = false;
  Column<double> x_;
  Column<double> y_;
  Column<int64_t> id_;
  Column<uint64_t> payload_offset_;
  Column<char> arena_;
};

/// Attempt-private columns of one partition rebuilt from lineage.
struct PartitionBuffer {
  std::vector<double> x;
  std::vector<double> y;
  std::vector<int64_t> id;
  std::vector<uint64_t> payload_offset;
  std::string arena;
  size_t r = 0;

  PartitionView View(bool payloads) const;
};

/// Lineage-based recovery of one partition lost with its worker: re-scatters
/// exactly the retained splits that sent it tuples, restricted to this
/// partition and in task order, so the rebuilt columns equal the lost ones
/// instance for instance.
void RebuildPartition(PartitionId part,
                      const std::vector<SplitAssignment>& maps,
                      const Dataset& r, const Dataset& s, int num_splits,
                      int workers, bool carry_payloads, PartitionBuffer* out);

/// Materializes instances [first, first + n) of a view as Tuples (payloads
/// copied out of the arena), reusing `out`'s elements and string capacity.
void Materialize(const PartitionView& v, size_t first, size_t n,
                 std::vector<Tuple>* out);

}  // namespace pasjoin::exec

#endif  // PASJOIN_EXEC_SHUFFLE_H_
