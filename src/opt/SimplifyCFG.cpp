//===- opt/SimplifyCFG.cpp - CFG cleanup ------------------------------------===//
//
// Folds trivial control flow:
//  - CondBr with equal targets or a constant condition becomes Br;
//  - a block whose single predecessor ends in an unconditional Br into it
//    is spliced into that predecessor (straight-line merge — sound for
//    probes since no counts are conflated);
//  - empty forwarding blocks (only a Br, plus probes that can be hoisted
//    into the successor when it has a single predecessor) are bypassed;
//  - unreachable blocks are removed.
// Profile maintenance: counts transfer with the dominant path; edge
// weights are preserved or re-derived from block counts.
//
//===----------------------------------------------------------------------===//

#include "ir/CFG.h"
#include "opt/PassManager.h"

namespace csspgo {

static unsigned foldBranches(Function &F) {
  unsigned Changed = 0;
  for (auto &BB : F.Blocks) {
    if (!BB->hasTerminator())
      continue;
    Instruction &T = BB->terminator();
    if (T.Op != Opcode::CondBr)
      continue;
    bool Fold = false;
    BasicBlock *Target = nullptr;
    if (T.Succ0 == T.Succ1) {
      Fold = true;
      Target = T.Succ0;
    } else if (T.A.isImm()) {
      Fold = true;
      Target = T.A.getImm() ? T.Succ0 : T.Succ1;
    }
    if (!Fold)
      continue;
    T.Op = Opcode::Br;
    T.Succ0 = Target;
    T.Succ1 = nullptr;
    T.A = Operand();
    if (!BB->SuccWeights.empty())
      BB->SuccWeights = {BB->Count};
    ++Changed;
  }
  return Changed;
}

/// Splices single-successor -> single-predecessor block pairs, first pair
/// in layout order first. A splice changes no other block's predecessor
/// count, so no block before B can start to qualify and the scan resumes
/// at B.
static unsigned mergeStraightLine(Function &F) {
  unsigned Changed = 0;
  PredecessorMap Preds(F);
  for (size_t I = 0; I < F.Blocks.size();) {
    BasicBlock *B = F.Blocks[I].get();
    BasicBlock *S = nullptr;
    if (B->hasTerminator() && B->terminator().Op == Opcode::Br)
      S = B->terminator().Succ0;
    if (!S || S == B || S == F.getEntry() || Preds[S].size() != 1) {
      ++I;
      continue;
    }
    // Splice S into B.
    Preds.detachSuccessors(B);
    Preds.eraseBlock(S);
    B->Insts.pop_back(); // Drop the Br.
    for (Instruction &Inst : S->Insts)
      B->Insts.push_back(std::move(Inst));
    S->Insts.clear();
    // Profile: the merged block executes as often as B did.
    B->SuccWeights = std::move(S->SuccWeights);
    Preds.attachSuccessors(B);
    if (F.blockIndex(S) < I)
      --I;
    F.eraseBlock(S);
    ++Changed;
  }
  return Changed;
}

/// Redirects predecessors of blocks that only forward (probe-free "br"
/// blocks) directly to the destination.
static unsigned bypassForwarders(Function &F) {
  unsigned Changed = 0;
  // One snapshot taken before any edit: later blocks see stale lists.
  PredecessorMap Preds(F);
  for (auto &BBPtr : F.Blocks) {
    BasicBlock *B = BBPtr.get();
    if (B == F.getEntry() || !B->hasTerminator())
      continue;
    if (B->Insts.size() != 1 || B->Insts[0].Op != Opcode::Br)
      continue;
    BasicBlock *Dest = B->Insts[0].Succ0;
    if (Dest == B)
      continue;
    for (BasicBlock *P : Preds[B]) {
      P->replaceSuccessor(B, Dest);
      ++Changed;
    }
  }
  return Changed;
}

unsigned runSimplifyCFG(Function &F, const OptOptions &Opts) {
  (void)Opts;
  unsigned Changed = 0;
  Changed += foldBranches(F);
  Changed += bypassForwarders(F);
  Changed += removeUnreachableBlocks(F) ? 1 : 0;
  Changed += mergeStraightLine(F);
  Changed += removeUnreachableBlocks(F) ? 1 : 0;
  return Changed;
}

} // namespace csspgo
