//===- inference/MinCostFlow.h - Min-cost circulation ------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimum-cost circulation solver — the algorithmic core of profile
/// inference in the style of Levin et al. [9] and profi [10]: raw sample
/// counts are smoothed into a flow-consistent profile by finding the
/// cheapest circulation in a network that rewards matching the measured
/// counts.
///
/// The solver cancels negative cycles of the residual graph until none is
/// left, which is exactly optimality. Cycles are found by queue-driven
/// Bellman-Ford relaxation that checks the parent graph after every pass:
/// a cycle there is always a negative cycle of the residual graph, and it
/// shows up after a few passes instead of the N a plain Bellman-Ford needs
/// to prove one exists. Distance labels survive a cancellation, so the
/// next search starts from nearly settled labels. Every cancellation
/// lowers the integer cost, which is bounded below because every
/// negative-cost arc has finite capacity, so the loop ends without a cap.
/// Everything is sequential and visits nodes and arcs in insertion order:
/// the same network always yields the same circulation.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_INFERENCE_MINCOSTFLOW_H
#define CSSPGO_INFERENCE_MINCOSTFLOW_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace csspgo {

class MinCostFlowSolver {
public:
  /// Adds a node; returns its id.
  int addNode();

  /// Adds a directed edge with capacity \p Cap (>= 0) and per-unit cost
  /// \p Cost. Returns an edge id usable with flowOn().
  int addEdge(int From, int To, int64_t Cap, int64_t Cost);

  /// Turns the current flow (zero on a fresh solver) into a min-cost
  /// circulation by canceling negative cycles until none is left.
  void solve();

  /// Flow pushed through edge \p EdgeId after solve().
  int64_t flowOn(int EdgeId) const {
    return Arcs[2 * static_cast<size_t>(EdgeId) + 1].Cap;
  }

  int numNodes() const { return NumNodes; }

private:
  /// Edge E owns arcs 2E (forward) and 2E+1 (reverse); an arc's partner
  /// is Id ^ 1. A reverse arc's residual capacity is the edge's flow.
  struct Arc {
    int To = 0;
    int64_t Cap = 0; ///< Residual capacity.
    int64_t Cost = 0;
  };

  /// Node an arc leaves from.
  int tail(size_t ArcId) const { return Arcs[ArcId ^ 1].To; }

  int NumNodes = 0;
  std::vector<Arc> Arcs;
  /// Per node, the ids of the arcs leaving it, in insertion order.
  std::vector<std::vector<int>> OutArcs;
};

} // namespace csspgo

#endif // CSSPGO_INFERENCE_MINCOSTFLOW_H
