// Copyright 2026 The pasjoin Authors.
//
// Coverage of the columnar count-then-scatter shuffle (exec/shuffle.h):
// every driver and every local-join kernel, with payloads on and off
// (payloads of varying length, so the arena offsets are exercised), with
// recovery off and on (including a join-phase worker loss that rebuilds
// partitions from lineage), on 1 and 4 threads. Every run must match the
// nested-loop oracle pair for pair, and every exact counter must agree
// across the configurations of one (driver, kernel, payload) cell.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/pbsm.h"
#include "baselines/sedona_like.h"
#include "common/rng.h"
#include "core/adaptive_join.h"
#include "core/self_join.h"
#include "datagen/generators.h"
#include "exec/engine.h"
#include "exec/shuffle.h"
#include "test_util.h"

namespace pasjoin {
namespace {

using exec::JobMetrics;
using exec::JoinRun;
using spatial::LocalJoinKernel;

/// Payload of tuple `id`: 0..40 bytes whose content is a function of the id.
std::string PayloadOf(int64_t id) {
  const auto len = static_cast<size_t>((id * 7919) % 41);
  std::string payload(len, 'a');
  for (size_t i = 0; i < len; ++i) {
    payload[i] = static_cast<char>('a' + (id + static_cast<int64_t>(i)) % 26);
  }
  return payload;
}

Dataset WithPayloads(Dataset d) {
  for (Tuple& t : d.tuples) t.payload = PayloadOf(t.id);
  return d;
}

Dataset Clustered(size_t n, uint64_t seed, int64_t id0) {
  datagen::GaussianClustersOptions options;
  options.num_clusters = 5;
  options.sigma_min = 0.4;
  options.sigma_max = 1.4;
  options.mbr = Rect{0, 0, 24, 16};
  Dataset d = datagen::GenerateGaussianClusters(n, seed, options);
  for (Tuple& t : d.tuples) t.id += id0;
  return WithPayloads(std::move(d));
}

std::vector<ResultPair> Oracle(const Dataset& r, const Dataset& s,
                               double eps, bool self_join) {
  std::vector<ResultPair> out;
  for (const auto& [pair, count] : pasjoin::testing::BruteForcePairs(r, s, eps)) {
    (void)count;
    if (!self_join || pair.r_id < pair.s_id) out.push_back(pair);
  }
  return out;
}

std::vector<ResultPair> Sorted(std::vector<ResultPair> pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

enum class Driver { kLpib, kDiff, kUniR, kUniS, kSedona, kSelf };

const char* DriverName(Driver d) {
  switch (d) {
    case Driver::kLpib:
      return "LPiB";
    case Driver::kDiff:
      return "DIFF";
    case Driver::kUniR:
      return "UniR";
    case Driver::kUniS:
      return "UniS";
    case Driver::kSedona:
      return "Sedona";
    case Driver::kSelf:
      return "Self";
  }
  return "?";
}

/// One execution configuration of the matrix.
struct Config {
  bool payloads = false;
  /// 0 = recovery off, 1 = on, 2 = on with worker 1 lost in the join.
  int recovery = 0;
  int threads = 1;

  std::string Name() const {
    return std::string(payloads ? "payloads" : "bare") + " recovery=" +
           std::to_string(recovery) + " threads=" + std::to_string(threads);
  }
};

/// The fields every driver's options block shares.
template <typename Options>
void Configure(const Config& c, LocalJoinKernel kernel, Options* o) {
  o->eps = 0.35;
  o->workers = 4;
  o->num_splits = 3;
  o->collect_results = true;
  o->carry_payloads = c.payloads;
  o->physical_threads = c.threads;
  o->local_kernel = kernel;
  o->fault.enabled = c.recovery > 0;
  if (c.recovery == 2) {
    o->fault.lost_worker = 1;
    o->fault.lost_worker_phase = exec::Phase::kJoin;
  }
}

Result<JoinRun> RunDriver(Driver driver, const Dataset& r, const Dataset& s,
                          const Config& c, LocalJoinKernel kernel) {
  switch (driver) {
    case Driver::kLpib:
    case Driver::kDiff: {
      core::AdaptiveJoinOptions o;
      Configure(c, kernel, &o);
      o.policy = driver == Driver::kLpib ? agreements::Policy::kLPiB
                                         : agreements::Policy::kDiff;
      o.sample_rate = 0.5;
      return core::AdaptiveDistanceJoin(r, s, o);
    }
    case Driver::kUniR:
    case Driver::kUniS: {
      baselines::PbsmOptions o;
      Configure(c, kernel, &o);
      return baselines::PbsmDistanceJoin(
          r, s,
          driver == Driver::kUniR ? baselines::PbsmVariant::kUniR
                                  : baselines::PbsmVariant::kUniS,
          o);
    }
    case Driver::kSedona: {
      baselines::SedonaOptions o;
      Configure(c, kernel, &o);
      o.sample_rate = 0.5;
      return baselines::SedonaLikeDistanceJoin(r, s, o);
    }
    case Driver::kSelf: {
      core::SelfJoinOptions o;
      Configure(c, kernel, &o);
      return core::SelfDistanceJoin(r, o);
    }
  }
  return Status::Internal("unknown driver");
}

void ExpectSameCounters(const JobMetrics& a, const JobMetrics& b,
                        const std::string& label) {
  EXPECT_EQ(a.results, b.results) << label;
  EXPECT_EQ(a.candidates, b.candidates) << label;
  EXPECT_EQ(a.replicated_r, b.replicated_r) << label;
  EXPECT_EQ(a.replicated_s, b.replicated_s) << label;
  EXPECT_EQ(a.shuffled_tuples, b.shuffled_tuples) << label;
  EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes) << label;
  EXPECT_EQ(a.shuffle_remote_bytes, b.shuffle_remote_bytes) << label;
  EXPECT_EQ(a.partitions_joined, b.partitions_joined) << label;
}

class ColumnarShuffleMatrix
    : public ::testing::TestWithParam<std::tuple<Driver, LocalJoinKernel>> {};

TEST_P(ColumnarShuffleMatrix, MatchesOracleWithEqualCounters) {
  const auto [driver, kernel] = GetParam();
  const bool self_join = driver == Driver::kSelf;
  const Dataset r = Clustered(700, 11, 0);
  const Dataset s = self_join ? r : Clustered(600, 12, 100000);
  const std::vector<ResultPair> truth = Oracle(r, s, 0.35, self_join);
  ASSERT_FALSE(truth.empty());
  for (const bool payloads : {false, true}) {
    JobMetrics reference;
    bool have_reference = false;
    for (const int recovery : {0, 1, 2}) {
      for (const int threads : {1, 4}) {
        const Config c{payloads, recovery, threads};
        const std::string label = std::string(DriverName(driver)) + " " +
                                  spatial::LocalJoinKernelName(kernel) + " " +
                                  c.Name();
        Result<JoinRun> run = RunDriver(driver, r, s, c, kernel);
        ASSERT_TRUE(run.ok()) << label << ": " << run.status().ToString();
        EXPECT_EQ(Sorted(run.value().pairs), truth) << label;
        const JobMetrics& m = run.value().metrics;
        EXPECT_EQ(m.results, truth.size()) << label;
        if (!payloads) {
          EXPECT_EQ(m.shuffle_bytes, m.shuffled_tuples * kTupleHeaderBytes)
              << label;
        } else {
          EXPECT_GT(m.shuffle_bytes, m.shuffled_tuples * kTupleHeaderBytes)
              << label;
        }
        if (recovery == 2) {
          EXPECT_GT(m.tasks_failed, 0u) << label;
        }
        if (!have_reference) {
          reference = m;
          have_reference = true;
        } else {
          ExpectSameCounters(m, reference, label);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    DriversAndKernels, ColumnarShuffleMatrix,
    ::testing::Combine(::testing::Values(Driver::kLpib, Driver::kDiff,
                                         Driver::kUniR, Driver::kUniS,
                                         Driver::kSedona, Driver::kSelf),
                       ::testing::Values(LocalJoinKernel::kSweepSoA,
                                         LocalJoinKernel::kPlaneSweep,
                                         LocalJoinKernel::kNestedLoop,
                                         LocalJoinKernel::kRTree)),
    [](const ::testing::TestParamInfo<std::tuple<Driver, LocalJoinKernel>>&
           param_info) {
      std::string kernel =
          spatial::LocalJoinKernelName(std::get<1>(param_info.param));
      kernel.erase(std::remove(kernel.begin(), kernel.end(), '-'),
                   kernel.end());
      return std::string(DriverName(std::get<0>(param_info.param))) + "_" +
             kernel;
    });

// ---------------------------------------------------------------------------
// Engine-level checks with a hand-written partitioner, whose accounting the
// test can recompute exactly.
// ---------------------------------------------------------------------------

constexpr int kWorkers = 4;
constexpr int kSplits = 3;

/// 1-D partitions of width 1 over x in [0, 12); the R side is copied into
/// every neighbor partition its eps-ball reaches.
exec::PartitionList BandPartitions(const Tuple& t, Side side, double eps) {
  exec::PartitionList out;
  const int native = std::clamp(static_cast<int>(t.pt.x), 0, 11);
  out.push_back(native);
  if (side == Side::kR) {
    const int lo = std::clamp(static_cast<int>(t.pt.x - eps), 0, 11);
    const int hi = std::clamp(static_cast<int>(t.pt.x + eps), 0, 11);
    for (int p = lo; p <= hi; ++p) {
      if (p != native) out.push_back(p);
    }
  }
  return out;
}

Dataset Band(size_t n, uint64_t seed, int64_t id0) {
  Rng rng(seed);
  std::vector<Point> pts;
  for (size_t i = 0; i < n; ++i) {
    pts.push_back(Point{rng.NextUniform(0, 12), rng.NextUniform(0, 2)});
  }
  return WithPayloads(pasjoin::testing::MakeDataset(pts, id0));
}

TEST(ColumnarShuffleTest, ColumnsCarryEveryPayloadByte) {
  // Both passes of the shuffle, run directly: every partition's view, and
  // its rebuild from the retained pass-1 outputs, materializes exactly the
  // instances the partitioner sent there — R before S, each in input order
  // — and each Tuple carries exactly its own coordinates and payload.
  const Dataset r = Band(500, 3, 0);
  const Dataset s = Band(500, 4, 100000);
  const double eps = 0.3;
  const exec::AssignFn assign = [eps](const Tuple& t, Side side) {
    return BandPartitions(t, side, eps);
  };
  const exec::OwnerFn owner = [](exec::PartitionId p) {
    return (p * 3 + 1) % kWorkers;
  };
  std::vector<exec::SplitAssignment> maps(2 * kSplits);
  exec::MapScratch map_scratch;
  for (int task = 0; task < 2 * kSplits; ++task) {
    exec::AssignSplit(exec::SplitOf(task, r, s, kSplits, kWorkers), assign,
                      /*carry_payloads=*/true, &map_scratch, nullptr);
    maps[static_cast<size_t>(task)] = std::move(map_scratch.out);
  }
  Result<exec::ShuffleLayout> laid_out =
      exec::LayOutShuffle(&maps, owner, kWorkers, kSplits);
  ASSERT_TRUE(laid_out.ok()) << laid_out.status().ToString();
  const exec::ShuffleLayout& layout = laid_out.value();
  exec::ShuffleColumns cols(layout, /*carry_payloads=*/true);
  exec::ScatterScratch scatter{
      std::vector<uint64_t>(layout.num_partitions),
      std::vector<uint64_t>(layout.num_partitions)};
  for (int task = 0; task < 2 * kSplits; ++task) {
    cols.Scatter(exec::SplitOf(task, r, s, kSplits, kWorkers),
                 maps[static_cast<size_t>(task)], &scatter, nullptr);
  }

  // The instances of partition p, in column order.
  std::vector<std::vector<const Tuple*>> want_r(layout.num_partitions);
  std::vector<std::vector<const Tuple*>> want_s(layout.num_partitions);
  for (const Side side : {Side::kR, Side::kS}) {
    for (const Tuple& t : (side == Side::kR ? r : s).tuples) {
      const exec::PartitionList parts = BandPartitions(t, side, eps);
      for (size_t k = 0; k < parts.size(); ++k) {
        (side == Side::kR ? want_r : want_s)[static_cast<size_t>(parts[k])]
            .push_back(&t);
      }
    }
  }
  exec::PartitionBuffer rebuilt;
  std::vector<Tuple> tuples;
  uint64_t checked = 0;
  for (const exec::PartitionSlot& slot : layout.slots) {
    exec::RebuildPartition(slot.part, maps, r, s, kSplits, kWorkers,
                           /*carry_payloads=*/true, &rebuilt);
    const auto p = static_cast<size_t>(slot.part);
    for (const exec::PartitionView& v :
         {cols.View(slot), rebuilt.View(/*payloads=*/true)}) {
      ASSERT_EQ(v.r, want_r[p].size()) << "partition " << p;
      ASSERT_EQ(v.s, want_s[p].size()) << "partition " << p;
      exec::Materialize(v, 0, v.r + v.s, &tuples);
      for (size_t k = 0; k < tuples.size(); ++k) {
        const Tuple& want = *(k < v.r ? want_r[p][k] : want_s[p][k - v.r]);
        EXPECT_EQ(tuples[k].id, want.id) << "partition " << p;
        EXPECT_EQ(tuples[k].pt.x, want.pt.x) << "partition " << p;
        EXPECT_EQ(tuples[k].pt.y, want.pt.y) << "partition " << p;
        EXPECT_EQ(tuples[k].payload, PayloadOf(want.id)) << "partition " << p;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 2 * layout.instances);

  // Through the engine, the shuffle byte counters equal the per-instance
  // sums of the wire format, with recovery off and with a rebuild.
  uint64_t want_bytes = 0;
  uint64_t want_remote = 0;
  for (const Side side : {Side::kR, Side::kS}) {
    const std::vector<Tuple>& tuples_of = (side == Side::kR ? r : s).tuples;
    for (size_t i = 0; i < tuples_of.size(); ++i) {
      // Split k holds tuples [n * k / kSplits, n * (k + 1) / kSplits).
      int split = 0;
      while (tuples_of.size() * static_cast<size_t>(split + 1) / kSplits <=
             i) {
        ++split;
      }
      const uint64_t bytes = kTupleHeaderBytes + tuples_of[i].payload.size();
      const exec::PartitionList parts = BandPartitions(tuples_of[i], side, eps);
      for (size_t k = 0; k < parts.size(); ++k) {
        want_bytes += bytes;
        if (owner(parts[k]) != split % kWorkers) want_remote += bytes;
      }
    }
  }
  for (const bool recovering : {false, true}) {
    exec::EngineOptions options;
    options.eps = eps;
    options.workers = kWorkers;
    options.num_splits = kSplits;
    options.physical_threads = 4;
    options.collect_results = true;
    options.local_kernel = LocalJoinKernel::kNestedLoop;
    options.fault.enabled = recovering;
    if (recovering) {
      options.fault.lost_worker = 2;
      options.fault.lost_worker_phase = exec::Phase::kJoin;
    }
    Result<JoinRun> run =
        exec::TryRunPartitionedJoin(r, s, assign, owner, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(Sorted(run.value().pairs), Oracle(r, s, eps, false));
    EXPECT_EQ(run.value().metrics.shuffle_bytes, want_bytes);
    EXPECT_EQ(run.value().metrics.shuffle_remote_bytes, want_remote);
  }
}

TEST(ColumnarShuffleTest, RejectsUnusablePartitionLists) {
  const Dataset r = Band(50, 5, 0);
  const Dataset s = Band(50, 6, 1000);
  exec::EngineOptions options;
  options.eps = 0.3;
  options.workers = kWorkers;
  options.physical_threads = 2;
  const exec::OwnerFn owner = [](exec::PartitionId p) { return p % kWorkers; };
  const exec::AssignFn negative = [](const Tuple& t, Side) {
    exec::PartitionList out;
    out.push_back(t.id == 7 ? -3 : 0);
    return out;
  };
  EXPECT_EQ(exec::TryRunPartitionedJoin(r, s, negative, owner, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  const exec::AssignFn empty = [](const Tuple&, Side) {
    return exec::PartitionList();
  };
  EXPECT_EQ(
      exec::TryRunPartitionedJoin(r, s, empty, owner, options).status().code(),
      StatusCode::kInvalidArgument);
  const exec::AssignFn one = [](const Tuple&, Side) {
    exec::PartitionList out;
    out.push_back(5);
    return out;
  };
  const exec::OwnerFn bad_owner = [](exec::PartitionId) { return kWorkers; };
  EXPECT_EQ(exec::TryRunPartitionedJoin(r, s, one, bad_owner, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pasjoin
