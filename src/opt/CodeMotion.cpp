//===- opt/CodeMotion.cpp - Loop-invariant code motion -----------------------===//
//
// Hoists loop-invariant pure instructions from loop headers into a
// preheader. This moves instructions from a hot region into a colder one —
// the "code motion" profile hazard of §III-A: after hoisting, the moved
// instruction's debug line sits at a low-frequency address, so AutoFDO's
// per-line counts under-report the original block. Pseudo-probes are
// unaffected: probes are not moved (they are block anchors, not attached
// to the moved instruction), so probe-based counts stay exact. Under
// ProbeBarrier::Strong the paper's "more accurate" configuration treats
// probes as scheduling barriers and the hoist is suppressed when the block
// holds a probe.
//
//===----------------------------------------------------------------------===//

#include "ir/CFG.h"
#include "opt/PassManager.h"

#include <set>

namespace csspgo {

unsigned runCodeMotion(Function &F, const OptOptions &Opts) {
  unsigned Changed = 0;
  auto Loops = findLoops(F);
  PredecessorMap Preds(F);

  for (Loop &L : Loops) {
    BasicBlock *H = L.Header;
    if (H == F.getEntry())
      continue;

    // Registers written anywhere in the loop.
    std::set<RegId> LoopWrites;
    for (BasicBlock *B : L.Blocks)
      for (const Instruction &I : B->Insts)
        if (I.Dst != InvalidReg && !I.isProbe())
          LoopWrites.insert(I.Dst);

    // Strong barrier: probes pin the schedule of their block.
    if (Opts.Barrier == ProbeBarrier::Strong && H->getBlockProbe())
      continue;

    // Find hoistable instructions in the header: pure, operands not
    // written in the loop, destination written only once in the loop, and
    // not read earlier in the header.
    std::vector<size_t> Hoistable;
    std::set<RegId> ReadSoFar;
    std::vector<RegId> Reads;
    for (size_t Idx = 0; Idx != H->Insts.size(); ++Idx) {
      const Instruction &I = H->Insts[Idx];
      if (I.isTerminator())
        break;
      Reads.clear();
      I.getUsedRegs(Reads);
      if (I.isProbe())
        continue;
      bool Ok = isPureOp(I.Op) && I.Dst != InvalidReg &&
                !ReadSoFar.count(I.Dst);
      if (Ok)
        for (RegId R : Reads)
          Ok &= !LoopWrites.count(R);
      // Destination written exactly once in the loop (this instruction).
      if (Ok) {
        unsigned Writes = 0;
        for (BasicBlock *B : L.Blocks)
          for (const Instruction &J : B->Insts)
            Writes += !J.isProbe() && J.Dst == I.Dst;
        Ok = Writes == 1;
      }
      // Not read anywhere in the loop before the header position — we only
      // hoist from the header and already tracked header reads; body blocks
      // execute after the header, so their reads are safe.
      if (Ok)
        Hoistable.push_back(Idx);
      for (RegId R : Reads)
        ReadSoFar.insert(R);
    }
    if (Hoistable.empty())
      continue;

    // Build or find the preheader: the unique non-latch predecessor edge
    // source. If there are several, synthesize a preheader block.
    std::vector<BasicBlock *> Outside;
    for (BasicBlock *P : Preds[H])
      if (!L.contains(P))
        Outside.push_back(P);
    if (Outside.empty())
      continue; // Unreachable loop.
    BasicBlock *Pre = F.createBlock("preheader");
    Preds.addBlock(Pre);
    for (BasicBlock *P : Outside) {
      Preds.detachSuccessors(P);
      P->replaceSuccessor(H, Pre);
      Preds.attachSuccessors(P);
    }
    // Move the hoistable instructions (in order) into the preheader.
    for (size_t K = 0; K != Hoistable.size(); ++K)
      Pre->Insts.push_back(H->Insts[Hoistable[K]]);
    for (size_t K = Hoistable.size(); K-- > 0;)
      H->Insts.erase(H->Insts.begin() +
                     static_cast<ptrdiff_t>(Hoistable[K]));
    Instruction Br;
    Br.Op = Opcode::Br;
    Br.Succ0 = H;
    Br.DL = Pre->Insts.front().DL;
    Br.OriginGuid = Pre->Insts.front().OriginGuid;
    Br.InlineStack = Pre->Insts.front().InlineStack;
    Pre->Insts.push_back(std::move(Br));
    Preds.attachSuccessors(Pre);
    // The preheader sits on the way into H, so it belongs to every other
    // loop that holds H: an enclosing loop must see the hoisted writes.
    // Pre is the newest block, so appending keeps Blocks in number order.
    for (Loop &Other : Loops)
      if (&Other != &L && Other.contains(H))
        Other.Blocks.push_back(Pre);

    // Profile maintenance: the preheader runs once per loop entry = sum of
    // entering edge counts; approximate with header count minus latch
    // counts when available.
    if (H->HasCount) {
      uint64_t LatchIn = 0;
      for (BasicBlock *Latch : L.Latches)
        if (Latch->HasCount) {
          // Weight of the latch->header edge.
          auto Succs = Latch->successors();
          for (unsigned S = 0; S != Succs.size(); ++S)
            if (Succs[S] == H)
              LatchIn += Latch->succWeight(S);
        }
      Pre->setCount(H->Count > LatchIn ? H->Count - LatchIn : 1);
      Pre->SuccWeights = {Pre->Count};
    }

    Changed += Hoistable.size();
  }
  return Changed;
}

} // namespace csspgo
