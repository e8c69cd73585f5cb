//===- inference/ProfileInference.cpp - Profile inference -------------------===//

#include "inference/ProfileInference.h"

#include "inference/MinCostFlow.h"

#include <algorithm>

namespace csspgo {

namespace {

/// Capacity of the unbounded arcs. Measured counts are clamped to
/// InfCap / N, so all of them together fit through any one arc and no
/// residual capacity can overflow.
constexpr int64_t InfCap = int64_t(1) << 62;

/// Per-unit reward for flow matching a measured count.
constexpr int64_t MatchReward = 2;
/// Per-unit penalty for flow exceeding a measured count.
constexpr int64_t ExceedPenalty = 2;
/// Per-unit penalty for routing flow through unmeasured blocks.
constexpr int64_t UnknownPenalty = 1;

} // namespace

void inferFunctionProfile(Function &F) {
  bool Any = false;
  for (auto &BB : F.Blocks)
    Any |= BB->HasCount && BB->Count > 0;
  if (!Any || F.Blocks.empty())
    return;

  const size_t N = F.Blocks.size();
  const std::vector<unsigned> Pos = F.blockPositions();
  // A saturated count (UINT64_MAX from the saturating merges) stays the
  // hottest count of the function instead of wrapping to a negative
  // capacity.
  const uint64_t MaxCount = static_cast<uint64_t>(InfCap) / N;

  MinCostFlowSolver Solver;
  // Two nodes per block: in (2i) and out (2i+1).
  for (size_t I = 0; I != N; ++I) {
    Solver.addNode();
    Solver.addNode();
  }
  auto InNode = [](size_t I) { return static_cast<int>(2 * I); };
  auto OutNode = [](size_t I) { return static_cast<int>(2 * I + 1); };

  // Block arcs: reward matching the measured count, penalize exceeding it.
  std::vector<int> MatchEdge(N, -1), ExtraEdge(N);
  for (size_t I = 0; I != N; ++I) {
    const BasicBlock &B = *F.Blocks[I];
    uint64_t W = B.HasCount ? std::min(B.Count, MaxCount) : 0;
    if (W > 0) {
      MatchEdge[I] = Solver.addEdge(InNode(I), OutNode(I),
                                    static_cast<int64_t>(W), -MatchReward);
      ExtraEdge[I] =
          Solver.addEdge(InNode(I), OutNode(I), InfCap, ExceedPenalty);
    } else {
      ExtraEdge[I] =
          Solver.addEdge(InNode(I), OutNode(I), InfCap, UnknownPenalty);
    }
  }

  // CFG arcs; block I's successor S is edge SuccEdge[SuccBegin[I] + S].
  std::vector<int> SuccEdge;
  std::vector<size_t> SuccBegin(N);
  for (size_t I = 0; I != N; ++I) {
    SuccBegin[I] = SuccEdge.size();
    for (BasicBlock *Succ : F.Blocks[I]->successors())
      SuccEdge.push_back(
          Solver.addEdge(OutNode(I), InNode(Pos[Succ->getNumber()]), InfCap,
                         0));
  }

  // Circulation closure: exits feed back into the entry.
  for (size_t I = 0; I != N; ++I)
    if (F.Blocks[I]->numSuccessors() == 0)
      Solver.addEdge(OutNode(I), InNode(0), InfCap, 0);

  Solver.solve();

  // Read the inferred profile back.
  for (size_t I = 0; I != N; ++I) {
    BasicBlock &B = *F.Blocks[I];
    int64_t Flow = Solver.flowOn(ExtraEdge[I]);
    if (MatchEdge[I] >= 0)
      Flow += Solver.flowOn(MatchEdge[I]);
    B.setCount(static_cast<uint64_t>(Flow));
    unsigned NumSucc = B.numSuccessors();
    B.SuccWeights.resize(NumSucc);
    for (unsigned S = 0; S != NumSucc; ++S)
      B.SuccWeights[S] = static_cast<uint64_t>(
          Solver.flowOn(SuccEdge[SuccBegin[I] + S]));
  }
}

void inferModuleProfile(Module &M) {
  for (auto &F : M.Functions)
    inferFunctionProfile(*F);
}

} // namespace csspgo
