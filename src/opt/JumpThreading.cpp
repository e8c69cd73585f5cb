//===- opt/JumpThreading.cpp - Jump threading / tail duplication ------------===//
//
// Duplicates small multi-predecessor blocks into their predecessors
// (tail duplication), the canonical "code duplication" transformation of
// §III-A: after it, one source line (and one pseudo-probe id) exists at
// several binary addresses.
//
//   P: ...; br T                 P: ...; <T's body>; <T's terminator>
//   Q: ...; br T          =>     Q: ...; br T      (T kept for Q)
//   T: small; terminator
//
// Correlation consequences:
//  - AutoFDO's debug-info symbolization sees the same line at multiple
//    addresses and applies the MAX heuristic — wrong for duplication,
//    where the copies' frequencies must be summed (the paper's central
//    example of why one-to-many mappings lose information);
//  - CSSPGO clones the probes; profgen *sums* counts of same-id probe
//    copies, recovering the exact original frequency (one-to-one mapping).
//
// Profile maintenance: P keeps its count and inherits T's edge weights
// scaled by P's share; T's count drops by P's count.
//
//===----------------------------------------------------------------------===//

#include "ir/CFG.h"
#include "opt/PassManager.h"

#include <algorithm>

namespace csspgo {

static bool isDuplicatableBlock(const BasicBlock &T, unsigned MaxSize) {
  if (!T.hasTerminator())
    return false;
  // Calls are not duplicated (code growth, and call-site probes would need
  // id cloning across functions).
  unsigned Real = 0;
  for (const Instruction &I : T.Insts) {
    if (I.isProbe())
      continue;
    if (I.isCall())
      return false;
    ++Real;
  }
  return Real <= MaxSize;
}

unsigned runJumpThreading(Function &F, const OptOptions &Opts) {
  unsigned Changed = 0;
  bool Progress = true;
  unsigned Guard = 0;
  PredecessorMap Preds(F);
  while (Progress && Guard++ < 32) {
    Progress = false;
    for (auto &BBPtr : F.Blocks) {
      BasicBlock *T = BBPtr.get();
      if (T == F.getEntry())
        continue;
      if (Preds[T].size() < 2)
        continue;
      if (!isDuplicatableBlock(*T, Opts.TailDupMaxSize))
        continue;
      // Do not duplicate loop headers into their latches (would peel the
      // loop endlessly under repeated application).
      bool IsSelfTarget = false;
      for (BasicBlock *S : T->successors())
        IsSelfTarget |= S == T;
      if (IsSelfTarget)
        continue;

      // Pick one predecessor that ends in an unconditional branch to T.
      BasicBlock *P = nullptr;
      for (BasicBlock *Cand : Preds[T]) {
        if (Cand == T)
          continue;
        if (Cand->hasTerminator() &&
            Cand->terminator().Op == Opcode::Br &&
            Cand->terminator().Succ0 == T) {
          P = Cand;
          break;
        }
      }
      if (!P)
        continue;

      // Splice a copy of T into P, replacing P's Br. P's terminator (and
      // thus its successor arity) changes; stale weights must go.
      Preds.detachSuccessors(P);
      P->Insts.pop_back();
      for (const Instruction &I : T->Insts)
        P->Insts.push_back(I);
      Preds.attachSuccessors(P);
      P->SuccWeights.clear();

      // Profile maintenance: P takes its proportional share of T's
      // outgoing edge weights; T keeps the remainder.
      if (P->HasCount && T->HasCount && T->Count > 0) {
        uint64_t OldCount = T->Count;
        double PShare = std::min(1.0, static_cast<double>(P->Count) /
                                          static_cast<double>(OldCount));
        P->SuccWeights.clear();
        unsigned NumSucc = P->numSuccessors();
        for (unsigned S = 0; S != NumSucc; ++S)
          P->SuccWeights.push_back(
              static_cast<uint64_t>(T->succWeight(S) * PShare));
        T->setCount(OldCount > P->Count ? OldCount - P->Count : 0);
        for (unsigned S = 0; S < T->SuccWeights.size(); ++S)
          T->SuccWeights[S] =
              static_cast<uint64_t>(T->SuccWeights[S] * (1.0 - PShare));
      }

      Progress = true;
      ++Changed;
      break; // CFG changed; rescan from the first block.
    }
    removeUnreachableBlocks(F, &Preds);
  }
  return Changed;
}

} // namespace csspgo
