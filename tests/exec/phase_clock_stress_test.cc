// Copyright 2026 The pasjoin Authors.
//
// Regression for the PhaseClock attribution race: the original engine's
// clock took a lock per Add, and a sketched lock-free variant dropped
// updates when two runner threads attributed time to the same logical
// worker. The fixed design accumulates into thread-confined Shards and
// folds them in with one Merge per runner; this test hammers the
// Shard+Merge protocol from many threads and asserts the totals are EXACT —
// any lost or double-counted update changes the sums. Run under TSan by the
// tsan CI lane (label: stress).
#include "exec/phase_clock.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pasjoin::exec {
namespace {

TEST(PhaseClockStressTest, ConcurrentShardMergesAreExact) {
  constexpr int kWorkers = 8;
  constexpr int kThreads = 16;
  constexpr int kAddsPerThread = 50000;
  PhaseClock clock(kWorkers);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&clock, t] {
      // Each runner accumulates locally, merging in batches — the exact
      // idiom RunStealPhase uses (one Shard per runner, Merge at exit),
      // tightened here to many merges to stress the clock lock.
      PhaseClock::Shard shard(kWorkers);
      for (int i = 0; i < kAddsPerThread; ++i) {
        shard.Add((t + i) % kWorkers, 0.001);
        if (i % 1000 == 999) {
          clock.Merge(shard);
          shard = PhaseClock::Shard(kWorkers);
        }
      }
      clock.Merge(shard);
    });
  }
  for (auto& th : threads) th.join();

  const std::vector<double> busy = clock.busy();
  ASSERT_EQ(busy.size(), static_cast<size_t>(kWorkers));
  double total = 0.0;
  for (double b : busy) total += b;
  // (t + i) % kWorkers spreads each thread's adds uniformly: every worker
  // receives exactly kThreads * kAddsPerThread / kWorkers additions.
  constexpr double kPerWorker =
      0.001 * kThreads * kAddsPerThread / kWorkers;
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_NEAR(busy[static_cast<size_t>(w)], kPerWorker,
                1e-6 * kPerWorker)
        << "worker " << w;
  }
  EXPECT_NEAR(total, 0.001 * kThreads * kAddsPerThread, 1e-6 * total);
  EXPECT_NEAR(clock.Makespan(), kPerWorker, 1e-6 * kPerWorker);
}

}  // namespace
}  // namespace pasjoin::exec
