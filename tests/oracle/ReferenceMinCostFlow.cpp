//===- tests/oracle/ReferenceMinCostFlow.cpp - Cycle-canceling MCF --------===//
//
// The min-cost circulation solver and inference network that profile
// inference shipped before the parent-graph solver: every cancellation
// runs all N Bellman-Ford passes, then walks N parent steps back into the
// cycle. Kept as written (the 4096-round bound included) so the
// production solver in inference/MinCostFlow.cpp has an independent
// second implementation to reach the same optimal objective as.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracle.h"

#include "inference/MinCostFlow.h"
#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <string>

namespace csspgo {

int ReferenceMinCostFlow::addNode() {
  Adj.emplace_back();
  return NumNodes++;
}

int ReferenceMinCostFlow::addEdge(int From, int To, int64_t Cap, int64_t Cost) {
  assert(From >= 0 && From < NumNodes && To >= 0 && To < NumNodes);
  Arc Fwd;
  Fwd.To = To;
  Fwd.Cap = Cap;
  Fwd.Cost = Cost;
  Fwd.Rev = static_cast<int>(Adj[To].size());
  Arc Bwd;
  Bwd.To = From;
  Bwd.Cap = 0;
  Bwd.Cost = -Cost;
  Bwd.Rev = static_cast<int>(Adj[From].size());
  Adj[From].push_back(Fwd);
  Adj[To].push_back(Bwd);
  EdgeIndex.emplace_back(From, static_cast<int>(Adj[From].size()) - 1);
  OrigCap.push_back(Cap);
  return static_cast<int>(EdgeIndex.size()) - 1;
}

std::vector<std::pair<int, int>> ReferenceMinCostFlow::findNegativeCycle() const {
  constexpr int64_t Inf = std::numeric_limits<int64_t>::max() / 4;
  std::vector<int64_t> Dist(NumNodes, 0); // All-zero start finds any cycle.
  std::vector<std::pair<int, int>> Parent(NumNodes, {-1, -1});

  int Updated = -1;
  for (int Iter = 0; Iter != NumNodes; ++Iter) {
    Updated = -1;
    for (int U = 0; U != NumNodes; ++U) {
      for (int A = 0; A != static_cast<int>(Adj[U].size()); ++A) {
        const Arc &E = Adj[U][A];
        if (E.Cap <= 0)
          continue;
        if (Dist[U] + E.Cost < Dist[E.To] &&
            Dist[U] < Inf) {
          Dist[E.To] = Dist[U] + E.Cost;
          Parent[E.To] = {U, A};
          Updated = E.To;
        }
      }
    }
    if (Updated < 0)
      return {};
  }

  // A relaxation happened in the Nth round: a negative cycle exists. Walk
  // back N steps to land inside the cycle, then trace it.
  int X = Updated;
  for (int I = 0; I != NumNodes; ++I)
    X = Parent[X].first;
  std::vector<std::pair<int, int>> Cycle;
  int Cur = X;
  do {
    auto [PU, PA] = Parent[Cur];
    if (PU < 0)
      return {}; // Defensive: broken parent chain.
    Cycle.emplace_back(PU, PA);
    Cur = PU;
  } while (Cur != X && static_cast<int>(Cycle.size()) <= NumNodes + 1);
  if (Cur != X)
    return {}; // Trace failed to close; treat as no cycle found.
  std::reverse(Cycle.begin(), Cycle.end());
  return Cycle;
}

void ReferenceMinCostFlow::solve() {
  // Bound iterations defensively; each cancellation strictly reduces cost.
  for (int Round = 0; Round != 4096; ++Round) {
    auto Cycle = findNegativeCycle();
    if (Cycle.empty())
      return;
    int64_t Bottleneck = std::numeric_limits<int64_t>::max();
    for (auto [U, A] : Cycle)
      Bottleneck = std::min(Bottleneck, Adj[U][A].Cap);
    if (Bottleneck <= 0)
      return;
    for (auto [U, A] : Cycle) {
      Arc &E = Adj[U][A];
      E.Cap -= Bottleneck;
      Adj[E.To][E.Rev].Cap += Bottleneck;
    }
  }
}

int64_t ReferenceMinCostFlow::flowOn(int EdgeId) const {
  auto [U, A] = EdgeIndex[static_cast<size_t>(EdgeId)];
  return OrigCap[static_cast<size_t>(EdgeId)] - Adj[U][A].Cap;
}

namespace {
constexpr int64_t InfCap = int64_t(1) << 40;
/// The inference network's arc costs, as in inference/ProfileInference.cpp.
constexpr int64_t MatchReward = 2;
constexpr int64_t ExceedPenalty = 2;
constexpr int64_t UnknownPenalty = 1;
} // namespace

void inferFunctionProfileReference(Function &F) {
  bool Any = false;
  for (auto &BB : F.Blocks)
    Any |= BB->HasCount && BB->Count > 0;
  if (!Any || F.Blocks.empty())
    return;

  ReferenceMinCostFlow Solver;
  // Two nodes per block: in (2i) and out (2i+1).
  std::map<BasicBlock *, int> Index;
  for (auto &BB : F.Blocks) {
    int In = Solver.addNode();
    Solver.addNode();
    Index[BB.get()] = In;
  }

  // Block arcs: reward matching the measured count, penalize exceeding it.
  std::vector<int> MatchEdge(F.Blocks.size(), -1);
  std::vector<int> ExtraEdge(F.Blocks.size(), -1);
  for (size_t I = 0; I != F.Blocks.size(); ++I) {
    BasicBlock *B = F.Blocks[I].get();
    int In = Index[B], Out = In + 1;
    uint64_t W = B->HasCount ? B->Count : 0;
    if (W > 0) {
      MatchEdge[I] =
          Solver.addEdge(In, Out, static_cast<int64_t>(W), -MatchReward);
      ExtraEdge[I] = Solver.addEdge(In, Out, InfCap, ExceedPenalty);
    } else {
      ExtraEdge[I] = Solver.addEdge(In, Out, InfCap, UnknownPenalty);
    }
  }

  // CFG arcs.
  std::map<std::pair<BasicBlock *, unsigned>, int> CFGEdge;
  for (auto &BB : F.Blocks) {
    auto Succs = BB->successors();
    for (unsigned S = 0; S != Succs.size(); ++S) {
      int Id = Solver.addEdge(Index[BB.get()] + 1, Index[Succs[S]], InfCap, 0);
      CFGEdge[{BB.get(), S}] = Id;
    }
  }

  // Circulation closure: exits feed back into the entry.
  int EntryIn = Index[F.getEntry()];
  for (auto &BB : F.Blocks)
    if (BB->numSuccessors() == 0)
      Solver.addEdge(Index[BB.get()] + 1, EntryIn, InfCap, 0);

  Solver.solve();

  // Read the inferred profile back.
  for (size_t I = 0; I != F.Blocks.size(); ++I) {
    BasicBlock *B = F.Blocks[I].get();
    int64_t Flow = 0;
    if (MatchEdge[I] >= 0)
      Flow += Solver.flowOn(MatchEdge[I]);
    if (ExtraEdge[I] >= 0)
      Flow += Solver.flowOn(ExtraEdge[I]);
    B->setCount(static_cast<uint64_t>(Flow < 0 ? 0 : Flow));
    B->SuccWeights.clear();
    unsigned NumSucc = B->numSuccessors();
    for (unsigned S = 0; S != NumSucc; ++S) {
      int64_t EFlow = Solver.flowOn(CFGEdge.at({B, S}));
      B->SuccWeights.push_back(static_cast<uint64_t>(EFlow < 0 ? 0 : EFlow));
    }
  }
}

int64_t inferenceObjective(const Function &F,
                           const std::vector<uint64_t> &Measured) {
  assert(Measured.size() == F.Blocks.size());
  int64_t Cost = 0;
  for (size_t I = 0; I != F.Blocks.size(); ++I) {
    auto Flow = static_cast<int64_t>(F.Blocks[I]->Count);
    auto W = static_cast<int64_t>(Measured[I]);
    if (W == 0) {
      Cost += Flow * UnknownPenalty;
      continue;
    }
    // An optimum fills the rewarded arc before the exceeding one.
    int64_t Matched = std::min(Flow, W);
    Cost += -Matched * MatchReward + (Flow - Matched) * ExceedPenalty;
  }
  return Cost;
}

std::string diffRandomCirculation(Rng &R) {
  struct Edge {
    int From, To;
    int64_t Cap, Cost;
  };
  const int NumNodes =
      1 + static_cast<int>(R.nextBelow(R.nextBool(0.8) ? 10 : 40));
  std::vector<Edge> Edges(R.nextBelow(4 * static_cast<uint64_t>(NumNodes) + 1));
  for (Edge &E : Edges) {
    // No self-loops: the reference solver's reverse-arc bookkeeping
    // cannot express them. Parallel edges arise freely; some nodes stay
    // isolated.
    E.From = static_cast<int>(R.nextBelow(static_cast<uint64_t>(NumNodes)));
    E.To = static_cast<int>(R.nextBelow(static_cast<uint64_t>(NumNodes)));
    if (E.From == E.To)
      E.To = (E.To + 1) % NumNodes;
    E.Cap = R.nextBool(0.15) ? 0 : R.nextInRange(1, 60);
    E.Cost = R.nextInRange(-12, 12);
  }
  if (NumNodes == 1)
    Edges.clear();

  MinCostFlowSolver Fast;
  ReferenceMinCostFlow Ref;
  for (int V = 0; V != NumNodes; ++V) {
    Fast.addNode();
    Ref.addNode();
  }
  for (const Edge &E : Edges) {
    Fast.addEdge(E.From, E.To, E.Cap, E.Cost);
    Ref.addEdge(E.From, E.To, E.Cap, E.Cost);
  }
  Fast.solve();
  Ref.solve();

  std::string Shape = " (" + std::to_string(NumNodes) + " nodes, " +
                      std::to_string(Edges.size()) + " edges)";
  int64_t FastCost = 0, RefCost = 0;
  std::vector<int64_t> Excess(static_cast<size_t>(NumNodes), 0);
  for (size_t I = 0; I != Edges.size(); ++I) {
    const Edge &E = Edges[I];
    int64_t Flow = Fast.flowOn(static_cast<int>(I));
    if (Flow < 0 || Flow > E.Cap)
      return "edge " + std::to_string(I) + " carries " +
             std::to_string(Flow) + " outside [0, " + std::to_string(E.Cap) +
             "]" + Shape;
    Excess[static_cast<size_t>(E.From)] -= Flow;
    Excess[static_cast<size_t>(E.To)] += Flow;
    FastCost += Flow * E.Cost;
    RefCost += Ref.flowOn(static_cast<int>(I)) * E.Cost;
  }
  for (int V = 0; V != NumNodes; ++V)
    if (Excess[static_cast<size_t>(V)] != 0)
      return "flow is not conserved at node " + std::to_string(V) + Shape;
  if (FastCost != RefCost)
    return "objective " + std::to_string(FastCost) +
           " differs from the reference's " + std::to_string(RefCost) + Shape;
  return std::string();
}

bool isProfileConsistent(const Function &F, uint64_t Tolerance) {
  const std::vector<unsigned> Pos = F.blockPositions();
  std::vector<uint64_t> InFlow(F.Blocks.size(), 0);
  auto Differs = [Tolerance](uint64_t A, uint64_t B) {
    return (A > B ? A - B : B - A) > Tolerance;
  };
  for (auto &BB : F.Blocks) {
    auto Succs = BB->successors();
    uint64_t Out = 0;
    for (unsigned S = 0; S != Succs.size(); ++S) {
      uint64_t W = S < BB->SuccWeights.size() ? BB->SuccWeights[S] : 0;
      InFlow[Pos[Succs[S]->getNumber()]] += W;
      Out += W;
    }
    if (!Succs.empty() && Differs(Out, BB->Count))
      return false;
  }
  for (size_t I = 1; I != F.Blocks.size(); ++I)
    if (Differs(InFlow[I], F.Blocks[I]->Count))
      return false;
  return true;
}

} // namespace csspgo
