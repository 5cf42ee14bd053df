// Copyright 2026 The pasjoin Authors.
//
// End-to-end benchmark of the adaptive-replication eps-distance join.
//
// One process runs one named workload on K input instances in turn (a fixed
// panel plus the seed's own). For each it runs a closed loop of jobs (one
// job at a time, each a timed call of core::AdaptiveDistanceJoin on a fixed
// 4-thread pool), then checks every job's exact counters against a
// reference computed once by independent means. It prints the end-to-end
// metrics. With --trace 1 it also replays the pipeline of
// core/adaptive_join.cc step by step through the modules' public calls and
// reports per-layer times and counters instead.
//
// Usage:
//   e2e_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--scale F] [--trace-out PATH]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// e2ebench/README.md describes the workloads and every metric.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agreements/agreement_graph.h"
#include "baselines/pbsm.h"
#include "common/stopwatch.h"
#include "common/tuple.h"
#include "core/adaptive_join.h"
#include "core/lpt_scheduler.h"
#include "core/planning.h"
#include "core/replication.h"
#include "datagen/generators.h"
#include "exec/engine.h"
#include "grid/grid.h"
#include "grid/stats.h"
#include "obs/trace_recorder.h"
#include "spatial/local_join.h"

namespace pasjoin::e2ebench {
namespace {

using datagen::PaperDataset;

/// Physical threads of every job (and of the planner), capped at the host's
/// core count.
constexpr int kThreads = 4;
/// The tail percentile needs this many samples beyond it.
constexpr size_t kTailBeyond = 10;
/// Per-side cap of the window handed to the nested-loop oracle.
constexpr size_t kWindowCap = 3000;

struct Workload {
  const char* name;
  PaperDataset r;
  PaperDataset s;
  size_t n_r;
  size_t n_s;
  double eps;
  agreements::Policy policy;
  size_t payload_bytes;
  bool fault_tolerant;
  /// Input instances per run: the seed's own instance plus a fixed panel
  /// (see InstanceSeed).
  int instances;
};

const Workload kWorkloads[] = {
    {"s1s2-lpib", PaperDataset::kS1, PaperDataset::kS2, 1'000'000, 1'000'000,
     0.12, agreements::Policy::kLPiB, 0, false, 8},
    {"s1s2-dense-join", PaperDataset::kS1, PaperDataset::kS2, 500'000,
     500'000, 0.48, agreements::Policy::kLPiB, 0, false, 8},
    {"r2r1-diff-p64-ft", PaperDataset::kR2, PaperDataset::kR1, 430'000,
     940'000, 0.12, agreements::Policy::kDiff, 64, true, 4},
};

// ------------------------------------------------------------- inputs ---

/// The per-codename seed of datagen::MakePaperDataset.
uint64_t DefaultSeed(PaperDataset d) {
  switch (d) {
    case PaperDataset::kR1:
      return 0x71637221;
    case PaperDataset::kR2:
      return 0x6f736d02;
    case PaperDataset::kS1:
      return 0x73796e01;
    case PaperDataset::kS2:
      return 0x73796e02;
  }
  return 0;
}

/// The generator seed of `d` at instance offset `offset`; offset 0 is
/// MakePaperDataset's.
uint64_t GeneratorSeed(PaperDataset d, uint64_t offset) {
  return DefaultSeed(d) + offset * 0x9e3779b97f4a7c15ULL;
}

/// Generator-seed offset of instance k of a run of K. Instances
/// 0..K-2 are a fixed panel shared by every run, at offsets no small seed
/// reaches; the last instance is the run's own: offset = --seed, so seed 0
/// is the paper instance and every other seed a fresh one. Join cost
/// depends strongly on where the generator puts its clusters (the result
/// count of S1xS2 at eps 0.48 varies 2.4x between instances); the panel
/// keeps that variance from swamping the comparison between runs.
uint64_t InstanceSeed(uint64_t seed, int k, int instances) {
  constexpr uint64_t kPanelBase = uint64_t{1} << 40;
  return k == instances - 1 ? seed : kPanelBase + static_cast<uint64_t>(k);
}

Dataset Generate(PaperDataset d, size_t n, uint64_t generator_seed) {
  Dataset out;
  switch (d) {
    case PaperDataset::kR1:
      out = datagen::GenerateTigerHydroLike(n, generator_seed);
      break;
    case PaperDataset::kR2:
      out = datagen::GenerateOsmParksLike(n, generator_seed);
      break;
    case PaperDataset::kS1:
    case PaperDataset::kS2:
      out = datagen::GenerateGaussianClusters(n, generator_seed);
      break;
  }
  out.name = datagen::PaperDatasetName(d);
  return out;
}

bool SameBytes(const Dataset& a, const Dataset& b) {
  if (a.name != b.name || a.tuples.size() != b.tuples.size()) return false;
  for (size_t i = 0; i < a.tuples.size(); ++i) {
    const Tuple& x = a.tuples[i];
    const Tuple& y = b.tuples[i];
    if (x.id != y.id || x.payload != y.payload ||
        std::memcmp(&x.pt, &y.pt, sizeof(Point)) != 0) {
      return false;
    }
  }
  return true;
}

struct Inputs {
  Dataset r;
  Dataset s;
  double generate_seconds = 0.0;
  double setup_seconds = 0.0;
};

Inputs BuildInputs(const Workload& w, uint64_t offset, double scale) {
  Inputs in;
  Stopwatch setup;
  in.r = Generate(w.r, static_cast<size_t>(static_cast<double>(w.n_r) * scale),
                  GeneratorSeed(w.r, offset));
  in.s = Generate(w.s, static_cast<size_t>(static_cast<double>(w.n_s) * scale),
                  GeneratorSeed(w.s, offset));
  in.generate_seconds = setup.ElapsedSeconds();
  if (w.payload_bytes > 0) {
    in.r.SetPayloadBytes(w.payload_bytes);
    in.s.SetPayloadBytes(w.payload_bytes);
  }
  in.setup_seconds = setup.ElapsedSeconds();
  return in;
}

// ----------------------------------------------------------- counters ---

/// The exact observables every job must reproduce.
struct Counters {
  uint64_t results = 0;
  uint64_t candidates = 0;
  uint64_t replicated_r = 0;
  uint64_t replicated_s = 0;
  uint64_t shuffled_tuples = 0;
  uint64_t shuffle_bytes = 0;
  uint64_t shuffle_remote_bytes = 0;

  static Counters Of(const exec::JobMetrics& m) {
    return {m.results,         m.candidates,    m.replicated_r,
            m.replicated_s,    m.shuffled_tuples, m.shuffle_bytes,
            m.shuffle_remote_bytes};
  }
  bool operator==(const Counters&) const = default;

  std::string ToString() const {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "results=%llu candidates=%llu replicated_r=%llu "
                  "replicated_s=%llu shuffled_tuples=%llu shuffle_bytes=%llu "
                  "shuffle_remote_bytes=%llu",
                  static_cast<unsigned long long>(results),
                  static_cast<unsigned long long>(candidates),
                  static_cast<unsigned long long>(replicated_r),
                  static_cast<unsigned long long>(replicated_s),
                  static_cast<unsigned long long>(shuffled_tuples),
                  static_cast<unsigned long long>(shuffle_bytes),
                  static_cast<unsigned long long>(shuffle_remote_bytes));
    return buf;
  }
};

core::AdaptiveJoinOptions JoinOptions(const Workload& w, int threads) {
  core::AdaptiveJoinOptions o;
  o.eps = w.eps;
  o.policy = w.policy;
  o.workers = 12;
  o.sample_rate = 0.03;
  o.physical_threads = threads;
  o.planning.threads = threads;
  // Fault tolerance on, nothing injected: the jobs take the recovering
  // executor with the same work as a fault-free run.
  o.fault.enabled = w.fault_tolerant;
  return o;
}

// ------------------------------------------------------ driver replay ---

/// The construction steps of core/adaptive_join.cc, replayed through the
/// modules' public calls, each timed.
struct DriverPlan {
  Rect mbr;
  std::optional<grid::Grid> grid;
  std::optional<grid::GridStats> stats;
  std::optional<agreements::AgreementGraph> graph;
  std::optional<core::CellAssignment> assignment;
  double grid_seconds = 0.0;
  double sample_seconds = 0.0;
  double graph_seconds = 0.0;
  double lpt_seconds = 0.0;
};

std::unique_ptr<DriverPlan> MakePlan(const Dataset& r, const Dataset& s,
                                     const core::AdaptiveJoinOptions& o,
                                     obs::TraceRecorder* trace) {
  auto plan = std::make_unique<DriverPlan>();
  {
    obs::ScopedSpan span(trace, "bench-grid", "bench");
    Stopwatch watch;
    plan->mbr = r.Mbr().Union(s.Mbr());
    Result<grid::Grid> grid =
        grid::Grid::Make(plan->mbr, o.eps, o.resolution_factor);
    if (!grid.ok()) {
      std::fprintf(stderr, "grid: %s\n", grid.status().ToString().c_str());
      return nullptr;
    }
    plan->grid.emplace(grid.MoveValue());
    plan->grid_seconds = watch.ElapsedSeconds();
  }
  {
    obs::ScopedSpan span(trace, "bench-sample", "bench");
    Stopwatch watch;
    plan->stats.emplace(&*plan->grid);
    plan->stats->AddSample(Side::kR, r, o.sample_rate, o.sample_seed);
    plan->stats->AddSample(Side::kS, s, o.sample_rate, o.sample_seed + 1);
    plan->sample_seconds = watch.ElapsedSeconds();
  }
  core::Planner planner(o.planning);
  {
    obs::ScopedSpan span(trace, "bench-plan-graph", "bench");
    Stopwatch watch;
    const agreements::AgreementType tie_break = agreements::AgreementFor(
        r.tuples.size() <= s.tuples.size() ? Side::kR : Side::kS);
    plan->graph.emplace(core::PlanAgreementGraph(
        *plan->grid, *plan->stats, o.policy, tie_break, o.duplicate_free,
        o.marking_order, &planner, trace));
    plan->graph_seconds = watch.ElapsedSeconds();
  }
  {
    obs::ScopedSpan span(trace, "bench-plan-lpt", "bench");
    Stopwatch watch;
    const std::vector<double> costs =
        core::PlanCellCosts(*plan->grid, *plan->stats, &planner, trace);
    plan->assignment.emplace(core::PlanLptAssignment(costs, o.workers, trace));
    plan->lpt_seconds = watch.ElapsedSeconds();
  }
  return plan;
}

exec::EngineOptions EngineOptionsFor(const core::AdaptiveJoinOptions& o,
                                     const Rect& mbr,
                                     obs::TraceRecorder* trace) {
  exec::EngineOptions e;
  e.eps = o.eps;
  e.workers = o.workers;
  e.num_splits = o.num_splits;
  e.collect_results = o.collect_results;
  e.deduplicate = !o.duplicate_free;
  e.carry_payloads = o.carry_payloads;
  e.physical_threads = o.physical_threads;
  e.local_kernel = o.local_kernel;
  e.fault = o.fault;
  e.bounds = mbr;
  e.trace = trace;
  return e;
}

// ----------------------------------------------------------- reference ---

/// Candidates and results of one cell, by the sweep kernel's definitions
/// (spatial/sweep_kernel.h): an S point is a candidate of an R point when
/// it lies in the x-window [x - eps, x + eps] and |dy| <= eps, and a result
/// when its squared distance is <= eps^2. Written here independently of the
/// kernel: both sides sorted by x, a sliding window, a plain counting loop.
void CountCell(std::vector<Point>* r, std::vector<Point>* s, double eps,
               uint64_t* candidates, uint64_t* results) {
  auto by_x = [](const Point& a, const Point& b) { return a.x < b.x; };
  std::sort(r->begin(), r->end(), by_x);
  std::sort(s->begin(), s->end(), by_x);
  const double eps2 = eps * eps;
  const size_t ns = s->size();
  const Point* sp = s->data();
  uint64_t cand = 0;
  uint64_t res = 0;
  size_t lo = 0;
  size_t hi = 0;
  for (const Point& p : *r) {
    while (lo < ns && sp[lo].x < p.x - eps) ++lo;
    hi = std::max(hi, lo);
    while (hi < ns && sp[hi].x <= p.x + eps) ++hi;
    for (size_t k = lo; k < hi; ++k) {
      const double dx = sp[k].x - p.x;
      const double dy = sp[k].y - p.y;
      cand += std::fabs(dy) <= eps ? 1 : 0;
      res += dx * dx + dy * dy <= eps2 ? 1 : 0;
    }
  }
  *candidates += cand;
  *results += res;
}

/// Runs body(thread, i) for every i in [0, count) on `threads` threads,
/// each index claimed once from a shared counter.
template <typename Body>
void ParallelFor(int threads, size_t count, const Body& body) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = next++; i < count; i = next++) body(t, i);
    });
  }
  for (std::thread& th : pool) th.join();
}

/// The exact counters of one job, computed without the engine: every tuple
/// is assigned with ReplicationAssigner and routed split by split the way
/// the engine's map phase does (split k of each relation is read by logical
/// worker k % workers), then each cell is joined by CountCell.
Counters ReplayCounters(const Dataset& r, const Dataset& s,
                        const core::AdaptiveJoinOptions& o,
                        const DriverPlan& plan, int threads) {
  const core::ReplicationAssigner assigner(&*plan.grid, &*plan.graph);
  const int workers = o.workers;
  const size_t num_splits =
      static_cast<size_t>(o.num_splits > 0 ? o.num_splits : 4 * workers);
  const size_t cells = static_cast<size_t>(plan.grid->num_cells());
  struct Partial {
    Counters c;
    std::vector<std::vector<Point>> cells[2];
    std::vector<Point> scratch[2];
  };
  std::vector<Partial> parts(static_cast<size_t>(threads));
  for (Partial& p : parts) {
    p.cells[0].resize(cells);
    p.cells[1].resize(cells);
  }
  ParallelFor(threads, 2 * num_splits, [&](int t, size_t task) {
    Partial& p = parts[static_cast<size_t>(t)];
    const Side side = task < num_splits ? Side::kR : Side::kS;
    const size_t split = task % num_splits;
    const std::vector<Tuple>& tuples = (side == Side::kR ? r : s).tuples;
    uint64_t& replicated =
        side == Side::kR ? p.c.replicated_r : p.c.replicated_s;
    const size_t n = tuples.size();
    const int src_worker = static_cast<int>(split) % workers;
    for (size_t i = n * split / num_splits; i < n * (split + 1) / num_splits;
         ++i) {
      const Tuple& tuple = tuples[i];
      const core::CellList list = assigner.Assign(tuple.pt, side);
      replicated += list.size() - 1;
      const uint64_t bytes =
          kTupleHeaderBytes + (o.carry_payloads ? tuple.payload.size() : 0);
      for (size_t k = 0; k < list.size(); ++k) {
        const grid::CellId cell = list[k];
        p.c.shuffled_tuples += 1;
        p.c.shuffle_bytes += bytes;
        if (plan.assignment->OwnerOf(cell) != src_worker) {
          p.c.shuffle_remote_bytes += bytes;
        }
        p.cells[static_cast<int>(side)][static_cast<size_t>(cell)].push_back(
            tuple.pt);
      }
    }
  });
  ParallelFor(threads, cells, [&](int t, size_t cell) {
    Partial& p = parts[static_cast<size_t>(t)];
    for (int side = 0; side < 2; ++side) {
      std::vector<Point>& all = p.scratch[side];
      all.clear();
      for (const Partial& q : parts) {
        all.insert(all.end(), q.cells[side][cell].begin(),
                   q.cells[side][cell].end());
      }
    }
    CountCell(&p.scratch[0], &p.scratch[1], o.eps, &p.c.candidates,
              &p.c.results);
  });
  Counters c;
  for (const Partial& p : parts) {
    c.results += p.c.results;
    c.candidates += p.c.candidates;
    c.replicated_r += p.c.replicated_r;
    c.replicated_s += p.c.replicated_s;
    c.shuffled_tuples += p.c.shuffled_tuples;
    c.shuffle_bytes += p.c.shuffle_bytes;
    c.shuffle_remote_bytes += p.c.shuffle_remote_bytes;
  }
  return c;
}

/// Pair-for-pair check on a seeded small window: the join of the window's
/// tuples (same options, results collected) must equal the nested-loop
/// oracle. The window is centred on a seeded R tuple whose grid cell holds
/// S tuples too. Returns a description of the check, empty on failure.
std::string CheckWindow(const Dataset& r, const Dataset& s,
                        core::AdaptiveJoinOptions o, const grid::Grid& grid,
                        uint64_t seed) {
  std::vector<bool> cell_has_s(static_cast<size_t>(grid.num_cells()), false);
  for (const Tuple& t : s.tuples) {
    cell_has_s[static_cast<size_t>(grid.Locate(t.pt))] = true;
  }
  uint64_t state = SplitMix64(seed ^ 0x77696e646f77ULL);
  auto subset = [&](const Dataset& d, const Rect& box) {
    Dataset out;
    out.name = d.name;
    for (const Tuple& t : d.tuples) {
      if (box.Contains(t.pt)) out.tuples.push_back(t);
    }
    // Seeded thinning to at most kWindowCap tuples, order kept.
    while (out.tuples.size() > kWindowCap) {
      std::vector<Tuple> kept;
      for (Tuple& t : out.tuples) {
        state = SplitMix64(state);
        if ((state & 1) == 0) kept.push_back(std::move(t));
      }
      out.tuples = std::move(kept);
    }
    return out;
  };
  const double half = 4.0 * o.eps;
  for (int attempt = 0; attempt < 1000; ++attempt) {
    state = SplitMix64(state);
    const Point c = r.tuples[state % r.tuples.size()].pt;
    if (!cell_has_s[static_cast<size_t>(grid.Locate(c))]) continue;
    const Rect box{c.x - half, c.y - half, c.x + half, c.y + half};
    const Dataset wr = subset(r, box);
    const Dataset ws = subset(s, box);
    if (wr.tuples.empty() || ws.tuples.empty()) continue;
    std::vector<ResultPair> oracle =
        spatial::NestedLoopJoinPairs(wr.tuples, ws.tuples, o.eps);
    if (oracle.empty()) continue;
    o.collect_results = true;
    Result<exec::JoinRun> run = core::AdaptiveDistanceJoin(wr, ws, o);
    if (!run.ok()) {
      std::fprintf(stderr, "window join: %s\n",
                   run.status().ToString().c_str());
      return "";
    }
    std::vector<ResultPair> got = std::move(run.value().pairs);
    std::sort(got.begin(), got.end());
    std::sort(oracle.begin(), oracle.end());
    if (got != oracle) {
      std::fprintf(stderr, "window join: %zu pairs, oracle %zu\n", got.size(),
                   oracle.size());
      return "";
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "window at (%.4f, %.4f): %zu x %zu tuples, %zu pairs equal "
                  "the nested-loop oracle",
                  c.x, c.y, wr.tuples.size(), ws.tuples.size(), got.size());
    return buf;
  }
  std::fprintf(stderr, "window join: no window with results found\n");
  return "";
}

// ---------------------------------------------------------- statistics ---

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest whole percentile with at least kTailBeyond samples above it
/// (nearest rank), and its value.
std::pair<int, double> Tail(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n <= kTailBeyond) return {0, v.empty() ? 0.0 : v.front()};
  const int p = static_cast<int>(100 * (n - kTailBeyond) / n);
  const size_t rank = (static_cast<size_t>(p) * n + 99) / 100;
  return {p, v[std::max<size_t>(rank, 1) - 1]};
}

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

/// Seconds the hypervisor stole from this machine's vCPUs so far, per vCPU
/// (the "steal" column of /proc/stat over the vCPU count); 0 where
/// unavailable.
double StolenSecondsPerCpu() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  return n == 8 ? static_cast<double>(v[7]) / 100.0 / cpus : 0.0;  // USER_HZ
}

/// Resets the kernel's resident-set high-water mark of this process
/// (Linux: "5" into /proc/self/clear_refs). False where unsupported.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// The resident-set high-water mark in MB (10^6 bytes): VmHWM of
/// /proc/self/status, else getrusage's process-lifetime peak.
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kb = -1;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
    }
    std::fclose(f);
    if (kb >= 0) return static_cast<double>(kb) * 1024.0 / 1e6;
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) * 1024.0 / 1e6;  // kB on Linux
}

// -------------------------------------------------------------- output ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void PrintMetric(const Metric& m) {
  std::printf("metric %s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

// ---------------------------------------------------------------- jobs ---

struct Job {
  /// Wall seconds less the time the hypervisor stole from each vCPU during
  /// the job: on a shared host, neighbours otherwise move a run's figures
  /// by a third (see e2ebench/README.md).
  double seconds = 0.0;
  double wall_seconds = 0.0;
  /// Process user+sys seconds during the job.
  double cpu_seconds = 0.0;
  double peak_rss_mb = 0.0;
  bool ok = false;
  Counters counters;
};

Job RunJob(const Inputs& in, const core::AdaptiveJoinOptions& o,
           core::AdaptiveJoinArtifacts* artifacts = nullptr) {
  Job job;
  // Every job starts from a trimmed heap, so its peak RSS is its own and not
  // what earlier jobs left cached in the allocator.
  malloc_trim(0);
  const bool rss_reset = ResetPeakRss();
  const double cpu0 = CpuSeconds();
  const double stolen0 = StolenSecondsPerCpu();
  Stopwatch watch;
  Result<exec::JoinRun> run =
      core::AdaptiveDistanceJoin(in.r, in.s, o, artifacts);
  job.wall_seconds = watch.ElapsedSeconds();
  job.seconds = job.wall_seconds - (StolenSecondsPerCpu() - stolen0);
  job.cpu_seconds = CpuSeconds() - cpu0;
  job.peak_rss_mb = rss_reset ? PeakRssMb() : 0.0;
  job.ok = run.ok();
  if (job.ok) {
    job.counters = Counters::Of(run.value().metrics);
  } else {
    std::fprintf(stderr, "job failed: %s\n", run.status().ToString().c_str());
  }
  return job;
}

/// Runs jobs back to back until `seconds` have passed and at least
/// `min_jobs` ran, appending them to `*jobs`; the first job fills
/// `*artifacts`.
void RunLoop(const Inputs& in, const core::AdaptiveJoinOptions& o,
             double seconds, size_t min_jobs,
             core::AdaptiveJoinArtifacts* artifacts, std::vector<Job>* jobs) {
  Stopwatch loop;
  for (size_t n = 0; n < min_jobs || loop.ElapsedSeconds() < seconds; ++n) {
    jobs->push_back(RunJob(in, o, n == 0 ? artifacts : nullptr));
  }
}

/// One traced replay of the job: per-layer times and the engine's metrics.
struct TracedJob {
  bool ok = false;
  double wall = 0.0;
  /// Seconds stolen from each vCPU during the job (see Job::seconds).
  double stolen = 0.0;
  double grid = 0.0;
  double sample = 0.0;
  double graph = 0.0;
  double lpt = 0.0;
  double engine = 0.0;
  double map = 0.0;
  double regroup = 0.0;
  uint64_t sampled = 0;
  uint64_t marked = 0;
  uint64_t locked = 0;
  exec::JobMetrics metrics;
  std::unique_ptr<obs::TraceRecorder> trace;
};

double SpanSeconds(const std::vector<obs::TraceEvent>& events,
                   const char* name) {
  int64_t ns = 0;
  for (const obs::TraceEvent& e : events) {
    if (std::strcmp(e.name, name) == 0) ns += e.duration_ns;
  }
  return 1e-9 * static_cast<double>(ns);
}

/// `instance` and `job` tag the job's root span, so the spans of one job
/// can be told apart from the trace alone.
TracedJob RunTracedJob(const Inputs& in, const core::AdaptiveJoinOptions& o,
                       int instance, int job) {
  TracedJob t;
  t.trace = std::make_unique<obs::TraceRecorder>();
  obs::TraceRecorder* trace = t.trace.get();
  malloc_trim(0);  // as before an untraced job
  const double stolen0 = StolenSecondsPerCpu();
  Stopwatch wall;
  std::unique_ptr<DriverPlan> plan;
  Result<exec::JoinRun> run = Status::Internal("not run");
  {
    obs::ScopedSpan job_span(trace, "bench-job", "bench");
    job_span.AddArg("instance", instance);
    job_span.AddArg("job", job);
    plan = MakePlan(in.r, in.s, o, trace);
    if (plan == nullptr) return t;
    const core::ReplicationAssigner assigner(&*plan->grid, &*plan->graph);
    const exec::AssignFn assign = [&assigner](const Tuple& tuple, Side side) {
      return assigner.Assign(tuple.pt, side);
    };
    obs::ScopedSpan span(trace, "bench-engine", "bench");
    Stopwatch engine;
    run = exec::TryRunPartitionedJoin(in.r, in.s, assign,
                                      plan->assignment->AsOwnerFn(),
                                      EngineOptionsFor(o, plan->mbr, trace));
    t.engine = engine.ElapsedSeconds();
  }
  t.wall = wall.ElapsedSeconds();
  t.stolen = StolenSecondsPerCpu() - stolen0;
  if (!run.ok()) {
    std::fprintf(stderr, "traced job failed: %s\n",
                 run.status().ToString().c_str());
    return t;
  }
  t.ok = true;
  t.metrics = run.value().metrics;
  t.grid = plan->grid_seconds;
  t.sample = plan->sample_seconds;
  t.graph = plan->graph_seconds;
  t.lpt = plan->lpt_seconds;
  t.sampled =
      plan->stats->SampleSize(Side::kR) + plan->stats->SampleSize(Side::kS);
  t.marked = plan->graph->CountMarked();
  t.locked = plan->graph->CountLocked();
  const std::vector<obs::TraceEvent> events = trace->Snapshot();
  t.map = SpanSeconds(events, "phase-map");
  t.regroup = SpanSeconds(events, "phase-regroup");
  return t;
}

// ---------------------------------------------------------------- main ---

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::atof(v);
    } else if (flag == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--scale") {
      a->scale = std::atof(v);
    } else if (flag == "--trace-out") {
      a->trace_out = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0.0 && a->scale > 0.0 &&
         a->scale <= 1.0;
}

/// What one input instance contributed to the run.
struct Instance {
  uint64_t seed = 0;
  std::vector<Job> jobs;
  std::vector<TracedJob> traced;
  /// From the instance's first AdaptiveDistanceJoin call.
  core::AdaptiveJoinArtifacts artifacts;
  Counters reference;
  double assign_seconds = 0.0;
  uint64_t assign_replicas = 0;
};

/// Computes the instance's reference counters by independent means (the
/// replay, cross-checked against PBSM UNI(R)'s result count) and runs the
/// pair-for-pair window check. With `time_assign`, also times one
/// ReplicationAssigner::Assign pass over both inputs on one thread. Returns
/// false when a check fails.
bool CheckInstance(const Inputs& in, const core::AdaptiveJoinOptions& o,
                   int threads, bool time_assign, Instance* inst) {
  Stopwatch watch;
  const std::unique_ptr<DriverPlan> plan = MakePlan(in.r, in.s, o, nullptr);
  if (plan == nullptr) return false;
  inst->reference = ReplayCounters(in.r, in.s, o, *plan, threads);
  baselines::PbsmOptions pbsm;
  pbsm.eps = o.eps;
  pbsm.workers = o.workers;
  pbsm.physical_threads = threads;
  pbsm.carry_payloads = false;
  Result<exec::JoinRun> uni_r = baselines::PbsmDistanceJoin(
      in.r, in.s, baselines::PbsmVariant::kUniR, pbsm);
  const uint64_t pbsm_results = uni_r.ok() ? uni_r.value().metrics.results : 0;
  bool ok = true;
  if (!uni_r.ok() || pbsm_results != inst->reference.results) {
    std::fprintf(stderr, "reference: PBSM UNI(R) results %llu, replay %llu\n",
                 static_cast<unsigned long long>(pbsm_results),
                 static_cast<unsigned long long>(inst->reference.results));
    ok = false;
  }
  const std::string window =
      CheckWindow(in.r, in.s, o, *plan->grid, inst->seed);
  if (window.empty()) ok = false;
  std::printf("reference %llu: %s\n",
              static_cast<unsigned long long>(inst->seed),
              inst->reference.ToString().c_str());
  std::printf("check %llu: PBSM UNI(R) results %llu; %s (%.3f s)\n",
              static_cast<unsigned long long>(inst->seed),
              static_cast<unsigned long long>(pbsm_results), window.c_str(),
              watch.ElapsedSeconds());
  if (time_assign) {
    const core::ReplicationAssigner assigner(&*plan->grid, &*plan->graph);
    Stopwatch assign_watch;
    for (const Side side : {Side::kR, Side::kS}) {
      for (const Tuple& t : (side == Side::kR ? in.r : in.s).tuples) {
        inst->assign_replicas += assigner.Assign(t.pt, side).size() - 1;
      }
    }
    inst->assign_seconds = assign_watch.ElapsedSeconds();
  }
  return ok;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--scale F] [--trace-out PATH]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const int threads = std::max(
      1, std::min<int>(kThreads,
                       static_cast<int>(std::thread::hardware_concurrency())));
  const core::AdaptiveJoinOptions options = JoinOptions(*w, threads);
  std::printf("workload %s seed %llu: %s x %s, eps %g, %s, payload %zu B, %s "
              "executor, %d threads (planning %d), %d workers, %d instances\n",
              w->name, static_cast<unsigned long long>(args.seed),
              datagen::PaperDatasetName(w->r), datagen::PaperDatasetName(w->s),
              w->eps, agreements::PolicyName(w->policy), w->payload_bytes,
              w->fault_tolerant ? "fault-tolerant" : "fast", threads,
              options.planning.threads, options.workers, w->instances);
  bool correct = true;

  // The seed plumbing rebuilds MakePaperDataset at the default seeds.
  for (const PaperDataset d : {w->r, w->s}) {
    const size_t n = 20'000;
    if (!SameBytes(Generate(d, n, GeneratorSeed(d, 0)),
                   datagen::MakePaperDataset(d, n))) {
      std::fprintf(stderr, "seed 0 does not rebuild MakePaperDataset(%s)\n",
                   datagen::PaperDatasetName(d));
      correct = false;
    }
  }

  // --- instance after instance: build, measure, check -----------------------
  // Only the process's first job is cold; later instances reuse its memory.
  // The reference of an instance runs after its jobs and counts in no
  // metric (peak RSS is taken per job).
  const double per_instance = args.seconds / w->instances;
  const size_t min_jobs =
      (kTailBeyond + 1 + static_cast<size_t>(w->instances) - 1) /
      static_cast<size_t>(w->instances);
  std::vector<Instance> instances(static_cast<size_t>(w->instances));
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  Job warmup;
  std::unique_ptr<obs::TraceRecorder> last_trace;  // written at exit
  double tuples = 0.0;
  for (int k = 0; k < w->instances; ++k) {
    Instance& inst = instances[static_cast<size_t>(k)];
    inst.seed = InstanceSeed(args.seed, k, w->instances);
    const Inputs in = BuildInputs(*w, inst.seed, args.scale);
    setup_s.push_back(in.setup_seconds);
    generate_s.push_back(in.generate_seconds);
    tuples = static_cast<double>(in.r.tuples.size() + in.s.tuples.size());
    std::printf("instance %d (%s, generator seed offset %llu): %s %zu x %s "
                "%zu\n",
                k, k == w->instances - 1 ? "seed" : "panel",
                static_cast<unsigned long long>(inst.seed),
                in.r.name.c_str(), in.r.tuples.size(), in.s.name.c_str(),
                in.s.tuples.size());
    if (k == 0) warmup = RunJob(in, options);
    if (!args.trace) {
      RunLoop(in, options, per_instance, min_jobs, &inst.artifacts, &inst.jobs);
    } else {
      RunLoop(in, options, 0.5 * per_instance, 2, &inst.artifacts, &inst.jobs);
      Stopwatch loop;
      do {
        inst.traced.push_back(RunTracedJob(
            in, options, k, static_cast<int>(inst.traced.size())));
        last_trace = std::move(inst.traced.back().trace);
      } while (loop.ElapsedSeconds() < 0.5 * per_instance);
    }
    {
      std::vector<double> t;
      std::vector<double> wall;
      std::vector<double> m;
      for (const Job& job : inst.jobs) {
        t.push_back(job.seconds);
        wall.push_back(job.wall_seconds);
        m.push_back(job.peak_rss_mb);
      }
      std::printf("instance %d: %zu jobs, median %.4f s (wall %.4f s), peak "
                  "RSS median %.1f max %.1f MB\n",
                  k, inst.jobs.size(), Median(t), Median(wall), Median(m),
                  *std::max_element(m.begin(), m.end()));
    }
    if (!CheckInstance(in, options, threads, args.trace, &inst)) {
      correct = false;
    }
  }
  std::printf("warmup.first_job_s %.6f s (discarded)\n", warmup.seconds);
  if (!warmup.ok || !(warmup.counters == instances[0].reference)) {
    correct = false;
  }

  // --- every job's output against its instance's reference ------------------
  size_t attempted = 0;
  size_t failed = 0;
  size_t n_jobs = 0;
  double job_sum = 0.0;
  double cpu_sum = 0.0;
  for (const Instance& inst : instances) {
    for (const Job& job : inst.jobs) {
      ++attempted;
      if (!job.ok || !(job.counters == inst.reference)) {
        if (job.ok) {
          std::fprintf(stderr, "job counters differ: %s\n",
                       job.counters.ToString().c_str());
        }
        ++failed;
      }
      ++n_jobs;
      job_sum += job.seconds;
      cpu_sum += job.cpu_seconds;
    }
    // The traced replay must reproduce the untraced AdaptiveDistanceJoin
    // run exactly: counters and construction artifacts.
    for (const TracedJob& t : inst.traced) {
      ++attempted;
      if (!t.ok || !(Counters::Of(t.metrics) == inst.reference) ||
          t.sampled != inst.artifacts.sampled_r + inst.artifacts.sampled_s ||
          t.marked != inst.artifacts.marked_edges ||
          t.locked != inst.artifacts.locked_edges) {
        std::fprintf(stderr, "traced counters differ from the untraced run\n");
        ++failed;
      }
    }
  }
  if (failed > 0) correct = false;
  // A time is the median over an instance's jobs, averaged over the
  // instances: pooled over instances of different cost, a median would
  // jump between the instances' clusters of job times.
  auto instance_p50 = [&](auto field) {
    double sum = 0.0;
    for (const Instance& inst : instances) sum += Median(field(inst));
    return sum / static_cast<double>(instances.size());
  };
  auto job_seconds = [](const Instance& inst) {
    std::vector<double> v;
    for (const Job& job : inst.jobs) v.push_back(job.seconds);
    return v;
  };
  const double job_p50 = instance_p50(job_seconds);
  std::vector<Metric> metrics;

  if (!args.trace) {
    // The tail is taken over job times relative to their instance's median
    // (how much slower the slow jobs are), scaled back by job_s_p50: the
    // raw pooled percentile would mostly rank the instances by their cost.
    std::vector<double> relative;
    for (const Instance& inst : instances) {
      const std::vector<double> own = job_seconds(inst);
      const double own_p50 = Median(own);
      for (const double t : own) relative.push_back(t / own_p50);
    }
    const auto [tail_p, tail_rel] = Tail(relative);
    const double tail_s = tail_rel * job_p50;
    // Peak RSS comes from the first instance, which runs on a fresh heap;
    // later instances inherit the allocator's state from those before them
    // (fragmentation, a raised mmap threshold) and read up to 40% higher.
    std::vector<double> rss_mb;
    for (const Job& job : instances.front().jobs) {
      rss_mb.push_back(job.peak_rss_mb);
    }
    const double peak_rss_mb = Median(rss_mb);
    double remote_bytes = 0.0;
    double replicated = 0.0;
    for (const Instance& inst : instances) {
      remote_bytes += static_cast<double>(inst.reference.shuffle_remote_bytes);
      replicated += static_cast<double>(inst.reference.replicated_r +
                                        inst.reference.replicated_s);
    }
    const double n_inst = static_cast<double>(instances.size());
    std::printf("job_s_tail is p%d of %zu jobs (%.4f x job_s_p50)\n", tail_p,
                n_jobs, tail_rel);
    metrics = {
        {"job_s_p50", job_p50, "s"},
        {"job_s_tail", tail_s, "s"},
        {"tuples_per_s", tuples * static_cast<double>(n_jobs) / job_sum,
         "1/s"},
        {"cpu_s_per_job", cpu_sum / static_cast<double>(n_jobs), "s"},
        {"peak_rss_mb", peak_rss_mb > 0.0 ? peak_rss_mb : PeakRssMb(), "MB"},
        {"shuffle_remote_mb", remote_bytes / n_inst / 1e6, "MB"},
        {"replicated", replicated / n_inst, "count"},
        {"setup_s", Median(setup_s), "s"},
    };
    for (const Metric& m : metrics) PrintMetric(m);
    // Printed, not gated: it is 0 on a correct run, and the result line's
    // failed/attempted carry the same fact.
    PrintMetric({"jobs_failed_frac",
                 static_cast<double>(failed) / static_cast<double>(attempted),
                 "fraction"});
    PrintResult(correct, attempted, failed, metrics);
    return 0;
  }

  // --- traced run: per-layer metrics ---------------------------------------
  auto median_of = [&](auto field) {
    return instance_p50([&](const Instance& inst) {
      std::vector<double> v;
      for (const TracedJob& t : inst.traced) v.push_back(field(t));
      return v;
    });
  };
  // Counts are per instance; report their mean over the instances.
  auto mean_of = [&](auto field) {
    double sum = 0.0;
    for (const Instance& inst : instances) sum += field(inst);
    return sum / static_cast<double>(instances.size());
  };
  const double wall = median_of([](const TracedJob& t) { return t.wall; });
  // Self times (driver steps + engine call) must add up to the traced
  // job's wall time; inside the engine call, what the measured phases do
  // not cover is reported as engine.unattributed_s.
  const double residual = median_of([](const TracedJob& t) {
    return t.wall - (t.grid + t.sample + t.graph + t.lpt + t.engine);
  });
  const double tolerance = std::max(0.005, 0.02 * wall);
  std::printf("traced job wall %.6f s, self-time residual %.6f s "
              "(tolerance %.6f s)\n",
              wall, residual, tolerance);
  if (std::fabs(residual) > tolerance) correct = false;
  std::vector<double> assign_ns;
  for (const Instance& inst : instances) {
    assign_ns.push_back(1e9 * inst.assign_seconds / tuples);
  }
  const double results_total = mean_of([](const Instance& i) {
    return static_cast<double>(i.reference.results);
  });
  const double candidates_total = mean_of([](const Instance& i) {
    return static_cast<double>(i.reference.candidates);
  });
  metrics = {
      {"datagen.build_s", Median(generate_s), "s"},
      {"grid.make_s", median_of([](const TracedJob& t) { return t.grid; }),
       "s"},
      {"grid.sample_s", median_of([](const TracedJob& t) { return t.sample; }),
       "s"},
      {"grid.sampled", mean_of([](const Instance& i) {
         return static_cast<double>(i.artifacts.sampled_r +
                                    i.artifacts.sampled_s);
       }),
       "count"},
      {"plan.graph_s", median_of([](const TracedJob& t) { return t.graph; }),
       "s"},
      {"plan.lpt_s", median_of([](const TracedJob& t) { return t.lpt; }), "s"},
      {"plan.marked_edges", mean_of([](const Instance& i) {
         return static_cast<double>(i.artifacts.marked_edges);
       }),
       "count"},
      {"plan.locked_edges", mean_of([](const Instance& i) {
         return static_cast<double>(i.artifacts.locked_edges);
       }),
       "count"},
      {"assign.ns_per_tuple", Median(assign_ns), "ns"},
      {"assign.replicas", mean_of([](const Instance& i) {
         return static_cast<double>(i.assign_replicas);
       }),
       "count"},
      {"shuffle.map_s", median_of([](const TracedJob& t) { return t.map; }),
       "s"},
      {"shuffle.regroup_s",
       median_of([](const TracedJob& t) { return t.regroup; }), "s"},
      {"shuffle.tuples", mean_of([](const Instance& i) {
         return static_cast<double>(i.reference.shuffled_tuples);
       }),
       "count"},
      {"shuffle.mb", mean_of([](const Instance& i) {
         return static_cast<double>(i.reference.shuffle_bytes) / 1e6;
       }),
       "MB"},
      {"join.s", median_of([](const TracedJob& t) {
         return t.metrics.measured_join_seconds;
       }),
       "s"},
      {"kernel.sort_cpu_s", median_of([](const TracedJob& t) {
         return t.metrics.kernel_sort_seconds;
       }),
       "s"},
      {"kernel.sweep_cpu_s", median_of([](const TracedJob& t) {
         return t.metrics.kernel_sweep_seconds;
       }),
       "s"},
      {"kernel.emit_cpu_s", median_of([](const TracedJob& t) {
         return t.metrics.kernel_emit_seconds;
       }),
       "s"},
      {"join.candidates", candidates_total, "count"},
      {"join.results_per_candidate",
       candidates_total > 0.0 ? results_total / candidates_total : 0.0,
       "ratio"},
      {"join.imbalance",
       median_of([](const TracedJob& t) { return t.metrics.JoinImbalance(); }),
       "ratio"},
      {"engine.unattributed_s", median_of([](const TracedJob& t) {
         const exec::JobMetrics& m = t.metrics;
         return t.engine - m.measured_construction_seconds -
                m.measured_join_seconds - m.measured_dedup_seconds;
       }),
       "s"},
      {"recovery.tasks_failed", median_of([](const TracedJob& t) {
         return static_cast<double>(t.metrics.tasks_failed);
       }),
       "count"},
      {"recovery.tasks_retried", median_of([](const TracedJob& t) {
         return static_cast<double>(t.metrics.tasks_retried);
       }),
       "count"},
      {"recovery.tasks_speculated", median_of([](const TracedJob& t) {
         return static_cast<double>(t.metrics.tasks_speculated);
       }),
       "count"},
      {"recovery.s", median_of([](const TracedJob& t) {
         return t.metrics.recovery_seconds;
       }),
       "s"},
      {"trace.overhead_s",
       median_of([](const TracedJob& t) { return t.wall - t.stolen; }) -
           job_p50,
       "s"},
  };
  for (const Metric& metric : metrics) PrintMetric(metric);
  if (!args.trace_out.empty() && last_trace != nullptr) {
    const Status st = last_trace->WriteJson(args.trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "trace: %s\n", st.ToString().c_str());
      correct = false;
    } else {
      std::printf("trace written to %s\n", args.trace_out.c_str());
    }
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace pasjoin::e2ebench

int main(int argc, char** argv) { return pasjoin::e2ebench::Main(argc, argv); }
