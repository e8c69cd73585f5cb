//===- opt/ExtTSPLayout.cpp - Ext-TSP block layout -----------------------------===//
//
// Profile-guided basic-block reordering using the Ext-TSP objective
// (Newell & Pupyrev, "Improved Basic Block Reordering", ref [15] of the
// paper). The objective and the chain-merging solver live in
// opt/ExtTSPCore.h, shared with the post-link optimizer, which runs the
// same scorer over reconstructed binary CFGs.
//
// Every profiled function, whatever its size, goes through the solver,
// which keeps the entry block first. With no profile, the pass keeps the
// natural order. This pass is where post-inline profile accuracy pays off:
// wrong edge weights (the Fig. 3a scaling artifact) place the wrong
// successor in the fallthrough position, which the simulator charges via
// taken-branch and i-cache costs.
//
//===----------------------------------------------------------------------===//

#include "codegen/Lowering.h"
#include "ir/CFG.h"
#include "opt/PassManager.h"

#include <cassert>

namespace csspgo {

namespace {

/// Byte size of a block when lowered (probes are free).
uint64_t blockSize(const BasicBlock &BB) {
  uint64_t Size = 0;
  for (const Instruction &I : BB.Insts)
    Size += machineSizeOf(I.Op);
  return Size;
}

} // namespace

exttsp::Instance extTSPInstanceOf(const Function &F) {
  exttsp::Instance In;
  const std::vector<unsigned> Pos = F.blockPositions();
  for (unsigned I = 0; I != F.Blocks.size(); ++I) {
    BasicBlock *B = F.Blocks[I].get();
    In.Sizes.push_back(blockSize(*B));
    auto Succs = B->successors();
    for (unsigned S = 0; S != Succs.size(); ++S) {
      exttsp::Edge E;
      E.Src = I;
      E.Dst = Pos[Succs[S]->getNumber()];
      E.Weight = B->HasCount ? static_cast<double>(B->succWeight(S)) : 0.0;
      In.Edges.push_back(E);
    }
  }
  return In;
}

unsigned runExtTSPLayout(Function &F, const OptOptions &Opts) {
  (void)Opts;
  if (F.Blocks.size() < 3)
    return 0;
  // Without profile annotation, keep the natural (source) order.
  if (!F.getEntry()->HasCount)
    return 0;

  std::vector<unsigned> Order = exttsp::solve(extTSPInstanceOf(F));
  assert(Order.size() == F.Blocks.size() && "layout must be a permutation");
  if (Order.front() != 0)
    return 0; // Entry must stay first; bail out defensively.

  bool Identity = true;
  for (unsigned I = 0; I != Order.size(); ++I)
    Identity &= Order[I] == I;
  if (Identity)
    return 0;

  std::vector<std::unique_ptr<BasicBlock>> NewOrder;
  NewOrder.reserve(F.Blocks.size());
  for (unsigned I : Order)
    NewOrder.push_back(std::move(F.Blocks[I]));
  F.Blocks = std::move(NewOrder);
  return 1;
}

} // namespace csspgo
