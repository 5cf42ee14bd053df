// Copyright 2026 The pasjoin Authors.
//
// Shared helpers for pasjoin tests.
#ifndef PASJOIN_TESTS_TEST_UTIL_H_
#define PASJOIN_TESTS_TEST_UTIL_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/geometry.h"
#include "common/macros.h"
#include "common/rng.h"
#include "common/tuple.h"
#include "exec/engine.h"

namespace pasjoin::testing {

/// Builds a dataset from bare points with sequential ids starting at `id0`.
inline Dataset MakeDataset(const std::vector<Point>& pts, int64_t id0,
                           const std::string& name = "test") {
  Dataset d;
  d.name = name;
  int64_t id = id0;
  for (const Point& p : pts) d.tuples.push_back(Tuple{id++, p, ""});
  return d;
}

/// All true join pairs (brute force), as a pair -> multiplicity map with
/// every multiplicity 1.
inline std::map<ResultPair, int> BruteForcePairs(const Dataset& r,
                                                 const Dataset& s, double eps) {
  std::map<ResultPair, int> out;
  const double eps2 = eps * eps;
  for (const Tuple& a : r.tuples) {
    for (const Tuple& b : s.tuples) {
      if (SquaredDistance(a.pt, b.pt) <= eps2) out[ResultPair{a.id, b.id}] = 1;
    }
  }
  return out;
}

/// Random points: a mix of uniform positions and positions clustered around
/// interior grid corners (to stress the duplicate-prone machinery).
/// `corners` lists the corner points; `eps` scales the clustering radius.
inline std::vector<Point> RandomPointsNearCorners(
    Rng* rng, const Rect& mbr, const std::vector<Point>& corners, double eps,
    size_t n) {
  std::vector<Point> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (corners.empty() || rng->NextBernoulli(0.45)) {
      out.push_back(Point{rng->NextUniform(mbr.min_x, mbr.max_x),
                          rng->NextUniform(mbr.min_y, mbr.max_y)});
    } else {
      const Point& c = corners[rng->NextBounded(corners.size())];
      Point p{c.x + rng->NextUniform(-1.6 * eps, 1.6 * eps),
              c.y + rng->NextUniform(-1.6 * eps, 1.6 * eps)};
      p.x = std::clamp(p.x, mbr.min_x, mbr.max_x);
      p.y = std::clamp(p.y, mbr.min_y, mbr.max_y);
      out.push_back(p);
    }
  }
  return out;
}

/// Runs exec::TryRunPartitionedJoin and aborts the test binary on any
/// error, printing the status; for tests whose subject is not the error
/// contract itself.
inline exec::JoinRun RunPartitionedJoin(
    const Dataset& r, const Dataset& s, const exec::AssignFn& assign,
    const exec::OwnerFn& owner, const exec::EngineOptions& options) {
  Result<exec::JoinRun> result =
      exec::TryRunPartitionedJoin(r, s, assign, owner, options);
  if (!result.ok()) {
    std::fprintf(stderr, "RunPartitionedJoin: %s\n",
                 result.status().ToString().c_str());
  }
  PASJOIN_CHECK(result.ok());
  return result.MoveValue();
}

}  // namespace pasjoin::testing

#endif  // PASJOIN_TESTS_TEST_UTIL_H_
