// Copyright 2026 The pasjoin Authors.
//
// Adaptive point replication (Section 5.3): given the duplicate-free graph
// of agreements, computes for each point the set of cells it is assigned to
// (its native cell plus up to 3 replicas). This is the C++ counterpart of
// the paper's Algorithms 2 (area dispatch), 3 (MeDuPAr: merged
// duplicate-prone area) and 4 (SupAr: supplementary areas).
#ifndef PASJOIN_CORE_REPLICATION_H_
#define PASJOIN_CORE_REPLICATION_H_

#include <cstdint>
#include <vector>

#include "agreements/agreement_graph.h"
#include "common/small_vector.h"
#include "common/tuple.h"
#include "grid/grid.h"

namespace pasjoin::core {

/// List of cells a point is assigned to. The native cell is always entry 0.
using CellList = SmallVector<grid::CellId, 4>;

/// Maps points to cells under adaptive replication.
///
/// Thread-safe: Assign is const and the referenced grid/graph are immutable
/// after construction, so one assigner can serve all workers (it plays the
/// role of the broadcast grid of Algorithm 5).
class ReplicationAssigner {
 public:
  /// `grid` and `graph` must outlive the assigner and must not change after
  /// its construction; `graph` must already be duplicate-free
  /// (RunDuplicateFreeMarking) unless the caller deliberately wants the
  /// non-duplicate-free variant of Table 6.
  ReplicationAssigner(const grid::Grid* grid,
                      const agreements::AgreementGraph* graph);

  /// Algorithm 2: the cells point `p` of relation `side` is assigned to.
  CellList Assign(const Point& p, Side side) const;

 private:
  /// Algorithm 3: assignment for a point in the merged duplicate-prone area
  /// of quartet `sub`; `i` is the native cell's position within the quartet.
  void MeDuPAr(const agreements::QuartetSubgraph& sub, const Point& o,
               agreements::AgreementType tau, int i, CellList* out) const;

  /// Algorithm 4: assignment for a point possibly lying in a supplementary
  /// area of quartet `sub`; `i` is the native cell's position.
  void SupAr(const agreements::QuartetSubgraph& sub, const Point& o,
             agreements::AgreementType tau, int i, CellList* out) const;

  /// Invokes SupAr for the quartet at interior corner (qx, qy), if any.
  void SupArAt(int qx, int qy, const Point& o, agreements::AgreementType tau,
               grid::CellId native, CellList* out) const;

  const grid::Grid* grid_;
  const agreements::AgreementGraph* graph_;
  double eps2_;
  /// Per quartet, bit i is set when a side neighbor j of position i has a
  /// marked edge e_ji. SupAr can add a cell only through such an edge, so
  /// a clear bit skips it exactly; most quartets have no marked edge.
  std::vector<uint8_t> supar_mask_;
};

}  // namespace pasjoin::core

#endif  // PASJOIN_CORE_REPLICATION_H_
