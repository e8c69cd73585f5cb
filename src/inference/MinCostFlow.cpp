//===- inference/MinCostFlow.cpp - Min-cost circulation ---------------------===//

#include "inference/MinCostFlow.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

namespace csspgo {

int MinCostFlowSolver::addNode() {
  OutArcs.emplace_back();
  return NumNodes++;
}

int MinCostFlowSolver::addEdge(int From, int To, int64_t Cap, int64_t Cost) {
  assert(From >= 0 && From < NumNodes && To >= 0 && To < NumNodes);
  assert(Cap >= 0 && "capacities are non-negative");
  OutArcs[static_cast<size_t>(From)].push_back(static_cast<int>(Arcs.size()));
  Arcs.push_back({To, Cap, Cost});
  OutArcs[static_cast<size_t>(To)].push_back(static_cast<int>(Arcs.size()));
  Arcs.push_back({From, 0, -Cost});
  return static_cast<int>(Arcs.size() / 2) - 1;
}

void MinCostFlowSolver::solve() {
  const size_t N = static_cast<size_t>(NumNodes);

  // All-zero labels make every node a root, so every negative cycle is
  // reachable. Labels only ever decrease; a canceled cycle leaves them in
  // place for the next search.
  std::vector<int64_t> Dist(N, 0);
  std::vector<int> Parent(N, -1); // Arc that last lowered Dist, or -1.
  std::vector<char> Queued(N, 1), Touched(N, 0);
  std::vector<uint64_t> WalkMark(N, 0);
  uint64_t Walks = 0;
  std::vector<int> Pass(N), Next, Changed;
  std::iota(Pass.begin(), Pass.end(), 0);

  // Pushes the bottleneck around the parent cycle through \p U. A parent
  // cycle is always negative. Its nodes lose their parents, because the
  // cycle's arcs may be saturated now. Nothing needs queueing again: a
  // parent arc U->V has Dist[V] >= Dist[U] + Cost, so its new reverse arc
  // cannot relax.
  auto CancelCycle = [&](int U) {
    int64_t Bottleneck = std::numeric_limits<int64_t>::max();
    int64_t CycleCost = 0;
    int V = U;
    do {
      const Arc &E = Arcs[static_cast<size_t>(Parent[V])];
      Bottleneck = std::min(Bottleneck, E.Cap);
      CycleCost += E.Cost;
      V = tail(static_cast<size_t>(Parent[V]));
    } while (V != U);
    assert(Bottleneck > 0 && "parent arcs have residual capacity");
    assert(CycleCost < 0 && "parent cycles are negative");
    (void)CycleCost;
    do {
      size_t A = static_cast<size_t>(Parent[V]);
      Parent[V] = -1;
      Arcs[A].Cap -= Bottleneck;
      Arcs[A ^ 1].Cap += Bottleneck;
      V = tail(A);
    } while (V != U);
  };

  while (!Pass.empty()) {
    for (int U : Pass) {
      Queued[U] = 0;
      for (int A : OutArcs[static_cast<size_t>(U)]) {
        const Arc &E = Arcs[static_cast<size_t>(A)];
        if (E.Cap == 0 || Dist[U] + E.Cost >= Dist[E.To])
          continue;
        Dist[E.To] = Dist[U] + E.Cost;
        Parent[E.To] = A;
        if (!Queued[E.To]) {
          Queued[E.To] = 1;
          Next.push_back(E.To);
        }
        if (!Touched[E.To]) {
          Touched[E.To] = 1;
          Changed.push_back(E.To);
        }
      }
    }

    // A parent cycle closes through a node whose parent changed in this
    // pass. Walk up from each such node; a walk that meets its own mark
    // has found a cycle, one that meets an earlier walk's mark stops.
    const uint64_t FirstWalk = Walks + 1;
    for (int V : Changed) {
      Touched[V] = 0;
      const uint64_t Walk = ++Walks;
      int X = V;
      while (X >= 0 && WalkMark[X] < FirstWalk) {
        WalkMark[X] = Walk;
        X = Parent[X] < 0 ? -1 : tail(static_cast<size_t>(Parent[X]));
      }
      if (X >= 0 && WalkMark[X] == Walk)
        CancelCycle(X);
    }
    Changed.clear();
    Pass.swap(Next);
    Next.clear();
  }
}

} // namespace csspgo
