// Copyright 2026 The pasjoin Authors.
#include "exec/shuffle.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <new>

namespace pasjoin::exec {

Split SplitOf(int task, const Dataset& r, const Dataset& s, int num_splits,
              int workers) {
  const bool is_r = task < num_splits;
  const auto split = static_cast<size_t>(task % num_splits);
  const std::vector<Tuple>& tuples = (is_r ? r : s).tuples;
  const size_t n = tuples.size();
  const auto splits = static_cast<size_t>(num_splits);
  const size_t lo = n * split / splits;
  const size_t hi = n * (split + 1) / splits;
  return Split{is_r ? Side::kR : Side::kS, tuples.data() + lo, hi - lo,
               static_cast<int>(split) % workers};
}

void AssignSplit(const Split& split, const AssignFn& assign,
                 bool carry_payloads, MapScratch* scratch,
                 const spatial::KernelCancellation* cancel) {
  SplitAssignment& out = scratch->out;
  out = SplitAssignment{};
  out.parts.reserve(split.n + split.n / 8);
  for (size_t i = 0; i < split.n && out.error.empty(); ++i) {
    const Tuple& t = split.tuples[i];
    const PartitionList parts = assign(t, split.side);
    if (parts.empty()) {
      out.error = "assign returned no partition for tuple " +
                  std::to_string(t.id);
      break;
    }
    const uint64_t payload = carry_payloads ? t.payload.size() : 0;
    out.replicated += parts.size() - 1;
    out.shuffle_bytes += parts.size() * (kTupleHeaderBytes + payload);
    for (size_t p = 0; p < parts.size(); ++p) {
      const PartitionId part = parts[p];
      if (part < 0) {
        out.error = "assign returned negative partition id " +
                    std::to_string(part) + " for tuple " +
                    std::to_string(t.id);
        break;
      }
      const auto idx = static_cast<size_t>(part);
      if (idx >= scratch->count.size()) {
        const size_t size = std::max(idx + 1, 2 * scratch->count.size());
        scratch->count.resize(size);
        scratch->bytes.resize(size);
      }
      if (scratch->count[idx]++ == 0) scratch->touched.push_back(part);
      if (payload != 0) scratch->bytes[idx] += payload;
      out.parts.push_back(p == 0 ? ~part : part);
    }
    if (cancel != nullptr &&
        (i & (spatial::kKernelPollGrain - 1)) ==
            spatial::kKernelPollGrain - 1) {
      cancel->Pulse(spatial::kKernelPollGrain);
      if (cancel->ShouldStop()) break;  // partial; caller discards
    }
  }
  if (cancel != nullptr) {
    cancel->Pulse(split.n & (spatial::kKernelPollGrain - 1));
  }
  // Fold the histogram into the sorted share list, leaving it all-zero for
  // the runner's next task (also after an error or a cancel).
  std::sort(scratch->touched.begin(), scratch->touched.end());
  out.shares.reserve(scratch->touched.size());
  for (const PartitionId part : scratch->touched) {
    const auto idx = static_cast<size_t>(part);
    out.shares.push_back(
        PartitionShare{part, scratch->count[idx], scratch->bytes[idx]});
    scratch->count[idx] = 0;
    scratch->bytes[idx] = 0;
  }
  scratch->touched.clear();
}

Result<ShuffleLayout> LayOutShuffle(std::vector<SplitAssignment>* maps,
                                    const OwnerFn& owner, int workers,
                                    int num_splits) {
  ShuffleLayout layout;
  for (const SplitAssignment& map : *maps) {
    if (map.shares.empty()) continue;
    layout.num_partitions =
        std::max(layout.num_partitions,
                 static_cast<size_t>(map.shares.back().part) + 1);
  }
  const size_t parts = layout.num_partitions;
  std::vector<uint64_t> r(parts);
  std::vector<uint64_t> s(parts);
  std::vector<uint64_t> bytes(parts);
  for (size_t task = 0; task < maps->size(); ++task) {
    std::vector<uint64_t>& side =
        task < static_cast<size_t>(num_splits) ? r : s;
    for (const PartitionShare& share : (*maps)[task].shares) {
      side[static_cast<size_t>(share.part)] += share.count;
      bytes[static_cast<size_t>(share.part)] += share.payload_bytes;
    }
  }
  std::vector<int> worker_of(parts, -1);
  for (size_t p = 0; p < parts; ++p) {
    if (r[p] + s[p] == 0) continue;
    const auto part = static_cast<PartitionId>(p);
    const int w = owner(part);
    if (w < 0 || w >= workers) {
      return Status::InvalidArgument(
          "owner maps partition " + std::to_string(part) + " to worker " +
          std::to_string(w) + ", outside [0, " + std::to_string(workers) +
          ")");
    }
    worker_of[p] = w;
    layout.slots.push_back(PartitionSlot{part, w, 0, r[p], s[p]});
  }
  std::stable_sort(layout.slots.begin(), layout.slots.end(),
                   [](const PartitionSlot& a, const PartitionSlot& b) {
                     return a.worker < b.worker;
                   });
  // Reuse r/s as each partition's next free column / arena position.
  std::vector<uint64_t>& next = r;
  std::vector<uint64_t>& next_byte = s;
  for (PartitionSlot& slot : layout.slots) {
    const auto p = static_cast<size_t>(slot.part);
    slot.begin = layout.instances;
    next[p] = layout.instances;
    next_byte[p] = layout.arena_bytes;
    layout.instances += slot.r + slot.s;
    layout.arena_bytes += bytes[p];
  }
  for (size_t task = 0; task < maps->size(); ++task) {
    const int src_worker = static_cast<int>(task % static_cast<size_t>(
                                                       num_splits)) %
                           workers;
    for (PartitionShare& share : (*maps)[task].shares) {
      const auto p = static_cast<size_t>(share.part);
      share.dest = next[p];
      share.payload_dest = next_byte[p];
      next[p] += share.count;
      next_byte[p] += share.payload_bytes;
      if (worker_of[p] != src_worker) {
        layout.remote_bytes +=
            share.count * kTupleHeaderBytes + share.payload_bytes;
      }
    }
  }
  return layout;
}

template <typename T>
ShuffleColumns::Column<T> ShuffleColumns::Allocate(size_t n) {
  // Columns of 2 MiB and up are 2 MiB-aligned and advised onto transparent
  // huge pages: the scatter writes every byte of this fresh memory exactly
  // once, and 4 KiB first-touch faults (and their unmapping) otherwise
  // weigh on it.
  constexpr size_t kHugePage = size_t{2} << 20;
  const size_t bytes = std::max<size_t>(n * sizeof(T), 1);
  void* p = nullptr;
  if (bytes < kHugePage) {
    p = std::malloc(bytes);
  } else {
    const size_t rounded = (bytes + kHugePage - 1) & ~(kHugePage - 1);
    p = std::aligned_alloc(kHugePage, rounded);
#if defined(MADV_HUGEPAGE)
    if (p != nullptr) madvise(p, rounded, MADV_HUGEPAGE);
#endif
  }
  if (p == nullptr) throw std::bad_alloc();
  return Column<T>(static_cast<T*>(p));
}

ShuffleColumns::ShuffleColumns(const ShuffleLayout& layout,
                               bool carry_payloads)
    : payloads_(carry_payloads),
      x_(Allocate<double>(layout.instances)),
      y_(Allocate<double>(layout.instances)),
      id_(Allocate<int64_t>(layout.instances)) {
  if (payloads_) {
    payload_offset_ = Allocate<uint64_t>(layout.instances + 1);
    payload_offset_[layout.instances] = layout.arena_bytes;
    arena_ = Allocate<char>(layout.arena_bytes);
  }
}

void ShuffleColumns::Scatter(const Split& split, const SplitAssignment& map,
                             ScatterScratch* scratch,
                             const spatial::KernelCancellation* cancel) {
  for (const PartitionShare& share : map.shares) {
    scratch->next[static_cast<size_t>(share.part)] = share.dest;
    scratch->next_byte[static_cast<size_t>(share.part)] = share.payload_dest;
  }
  const Tuple* t = nullptr;
  size_t tuple = 0;
  for (size_t k = 0; k < map.parts.size(); ++k) {
    PartitionId part = map.parts[k];
    if (part < 0) {
      t = &split.tuples[tuple++];
      part = ~part;
    }
    const auto p = static_cast<size_t>(part);
    const uint64_t at = scratch->next[p]++;
    x_[at] = t->pt.x;
    y_[at] = t->pt.y;
    id_[at] = t->id;
    if (payloads_) {
      const uint64_t from = scratch->next_byte[p];
      scratch->next_byte[p] += t->payload.size();
      payload_offset_[at] = from;
      if (!t->payload.empty()) {
        std::memcpy(arena_.get() + from, t->payload.data(), t->payload.size());
      }
    }
    if (cancel != nullptr &&
        (k & (spatial::kKernelPollGrain - 1)) ==
            spatial::kKernelPollGrain - 1) {
      cancel->Pulse(spatial::kKernelPollGrain);
      if (cancel->ShouldStop()) return;
    }
  }
  if (cancel != nullptr) {
    cancel->Pulse(map.parts.size() & (spatial::kKernelPollGrain - 1));
  }
}

PartitionView ShuffleColumns::View(const PartitionSlot& slot) const {
  const uint64_t b = slot.begin;
  return PartitionView{x_.get() + b,
                       y_.get() + b,
                       id_.get() + b,
                       payloads_ ? payload_offset_.get() + b : nullptr,
                       arena_.get(),
                       slot.r,
                       slot.s};
}

void ShuffleColumns::Drop(const PartitionSlot& slot) {
  std::fill_n(x_.get() + slot.begin, slot.r + slot.s,
              std::numeric_limits<double>::quiet_NaN());
  std::fill_n(y_.get() + slot.begin, slot.r + slot.s,
              std::numeric_limits<double>::quiet_NaN());
}

PartitionView PartitionBuffer::View(bool payloads) const {
  return PartitionView{x.data(), y.data(), id.data(),
                       payloads ? payload_offset.data() : nullptr,
                       arena.data(), r, x.size() - r};
}

void RebuildPartition(PartitionId part,
                      const std::vector<SplitAssignment>& maps,
                      const Dataset& r, const Dataset& s, int num_splits,
                      int workers, bool carry_payloads,
                      PartitionBuffer* out) {
  *out = PartitionBuffer{};
  for (size_t task = 0; task < maps.size(); ++task) {
    const SplitAssignment& map = maps[task];
    const auto share = std::lower_bound(
        map.shares.begin(), map.shares.end(), part,
        [](const PartitionShare& a, PartitionId b) { return a.part < b; });
    if (share == map.shares.end() || share->part != part) continue;
    const Split split =
        SplitOf(static_cast<int>(task), r, s, num_splits, workers);
    const Tuple* t = nullptr;
    size_t tuple = 0;
    for (PartitionId e : map.parts) {
      if (e < 0) {
        t = &split.tuples[tuple++];
        e = ~e;
      }
      if (e != part) continue;
      out->x.push_back(t->pt.x);
      out->y.push_back(t->pt.y);
      out->id.push_back(t->id);
      if (carry_payloads) {
        out->payload_offset.push_back(out->arena.size());
        out->arena += t->payload;
      }
    }
    if (split.side == Side::kR) out->r = out->x.size();
  }
  if (carry_payloads) out->payload_offset.push_back(out->arena.size());
}

void Materialize(const PartitionView& v, size_t first, size_t n,
                 std::vector<Tuple>* out) {
  out->resize(n);
  for (size_t j = 0; j < n; ++j) {
    const size_t k = first + j;
    Tuple& t = (*out)[j];
    t.id = v.id[k];
    t.pt = Point{v.x[k], v.y[k]};
    if (v.payload_offset != nullptr) {
      t.payload.assign(v.arena + v.payload_offset[k],
                       v.payload_offset[k + 1] - v.payload_offset[k]);
    } else {
      t.payload.clear();
    }
  }
}

}  // namespace pasjoin::exec
