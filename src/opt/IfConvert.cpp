//===- opt/IfConvert.cpp - If-conversion ------------------------------------===//
//
// Converts small diamonds/triangles into straight-line selects:
//
//   B: condbr c, T, F        B: tT.. = <T's ops>   (fresh temps)
//   T: x = ...; br J    =>      tF.. = <F's ops>
//   F: x = ...; br J             x = select c, tT, tF
//   J: ...                       br J
//
// Anchor interaction (§III-A): the arms' pseudo-probes disappear with the
// arms. Under ProbeBarrier::Weak — the paper's production tuning — the
// conversion is *unblocked* ("we fine-tune a few critical optimizations,
// including if-convert ... to be unblocked by pseudo-probe") and the arm
// probes are simply dropped; the block counts they carried are no longer
// individually observable, a small deliberate accuracy loss in exchange
// for zero overhead. Under ProbeBarrier::Strong the presence of a probe in
// an arm blocks the conversion. Traditional instrumentation counters
// always block it.
//
// Profile maintenance: B keeps its count; the arms vanish.
//
//===----------------------------------------------------------------------===//

#include "ir/CFG.h"
#include "opt/PassManager.h"

#include <map>
#include <set>

namespace csspgo {

namespace {

/// True if every non-probe instruction in \p Arm is a pure op and the arm
/// ends with an unconditional branch to \p Join.
bool isConvertibleArm(const BasicBlock &Arm, const BasicBlock *Join,
                      unsigned MaxSize) {
  if (!Arm.hasTerminator())
    return false;
  const Instruction &T = Arm.terminator();
  if (T.Op != Opcode::Br || T.Succ0 != Join)
    return false;
  unsigned Real = 0;
  for (const Instruction &I : Arm.Insts) {
    if (I.isProbe())
      continue;
    if (I.isTerminator())
      break;
    if (!isPureOp(I.Op) || I.Dst == InvalidReg)
      return false;
    ++Real;
  }
  return Real <= MaxSize;
}

bool armHasAnchor(const BasicBlock &Arm) {
  for (const Instruction &I : Arm.Insts)
    if (I.isIntrinsic())
      return true;
  return false;
}

bool armHasCounter(const BasicBlock &Arm) {
  for (const Instruction &I : Arm.Insts)
    if (I.isCounter())
      return true;
  return false;
}

/// Checks the no-interference condition: no instruction in either arm reads
/// a register written by any (earlier or later) arm instruction. This keeps
/// the hoisted computation order-independent.
bool armsInterfere(const BasicBlock *T, const BasicBlock *F) {
  std::set<RegId> Writes;
  auto CollectWrites = [&Writes](const BasicBlock *Arm) {
    if (!Arm)
      return;
    for (const Instruction &I : Arm->Insts)
      if (!I.isTerminator() && !I.isProbe() && I.Dst != InvalidReg)
        Writes.insert(I.Dst);
  };
  CollectWrites(T);
  CollectWrites(F);
  std::vector<RegId> Reads;
  auto CheckReads = [&](const BasicBlock *Arm) {
    if (!Arm)
      return false;
    for (const Instruction &I : Arm->Insts) {
      if (I.isTerminator() || I.isProbe())
        continue;
      Reads.clear();
      I.getUsedRegs(Reads);
      for (RegId R : Reads)
        if (Writes.count(R))
          return true;
    }
    return false;
  };
  return CheckReads(T) || CheckReads(F);
}

} // namespace

static bool tryConvertAt(Function &F, BasicBlock *B, const OptOptions &Opts,
                         PredecessorMap &Preds) {
  if (!B->hasTerminator())
    return false;
  Instruction Term = B->terminator();
  if (Term.Op != Opcode::CondBr || Term.Succ0 == Term.Succ1)
    return false;
  BasicBlock *T = Term.Succ0;
  BasicBlock *FB = Term.Succ1;
  if (T == B || FB == B)
    return false;
  // Both arms must be single-predecessor and converge on the same join.
  if (Preds[T].size() != 1 || Preds[FB].size() != 1)
    return false;
  if (!T->hasTerminator() || T->terminator().Op != Opcode::Br)
    return false;
  BasicBlock *Join = T->terminator().Succ0;
  if (Join == T || Join == FB)
    return false;
  if (!isConvertibleArm(*T, Join, Opts.IfConvertMaxArmSize) ||
      !isConvertibleArm(*FB, Join, Opts.IfConvertMaxArmSize))
    return false;
  // Barrier policy.
  if (armHasCounter(*T) || armHasCounter(*FB))
    return false; // Instrumentation always blocks.
  if (Opts.Barrier == ProbeBarrier::Strong &&
      (armHasAnchor(*T) || armHasAnchor(*FB)))
    return false;
  if (armsInterfere(T, FB))
    return false;
  // Timing gate: veto conversions whose measured cost balance is
  // unfavorable. Keeping the branch burns the measured mispredict cycles
  // plus the eliminated control flow; converting additionally executes,
  // on every pass, the arm the branch would have skipped (its measured
  // per-execution latency, minus the join jump that no longer exists)
  // plus the select. The comparison needs measurements for the branch
  // block *and both arms* — when the arms carry no timing, the profiling
  // binary converted this diamond itself (dropping the arm probes), so
  // the branch block's stats describe the converted form and say nothing
  // about the branchy one; vetoing on them would be circular, so the
  // frequency-only decision stands.
  const BlockTimingStats *BS = blockTiming(Opts.Timing, *B);
  const BlockTimingStats *TS = blockTiming(Opts.Timing, *T);
  const BlockTimingStats *FS = blockTiming(Opts.Timing, *FB);
  if (BS && TS && FS && BS->Executed && TS->Executed && FS->Executed) {
    uint64_t Jump = Opts.IfConvertAssumedBranchCycles;
    auto SkippedLat = [Jump](const BlockTimingStats *S) {
      uint64_t Lat = S->Cycles / S->Executed;
      return Lat > Jump ? Lat - Jump : 0;
    };
    uint64_t Runs = TS->Executed + FS->Executed;
    // + Runs: one select per execution.
    uint64_t Added = TS->Executed * SkippedLat(FS) +
                     FS->Executed * SkippedLat(TS) + Runs;
    uint64_t Saved = BS->Mispredicts * Opts.IfConvertAssumedMispredictCycles +
                     Runs * Jump;
    if (Added > Saved)
      return false;
  }
  // The select reads the condition after both arms execute; arms must not
  // clobber it.
  if (Term.A.isReg()) {
    for (BasicBlock *Arm : {T, FB})
      for (const Instruction &I : Arm->Insts)
        if (!I.isTerminator() && !I.isProbe() && I.Dst == Term.A.getReg())
          return false;
  }

  // Hoist both arms into B with fresh temporaries, then select.
  Operand Cond = Term.A;
  Preds.detachSuccessors(B);
  B->Insts.pop_back(); // Drop the CondBr.

  std::map<RegId, Operand> TVal, FVal;
  auto Hoist = [&F, B](BasicBlock *Arm, std::map<RegId, Operand> &Vals) {
    for (Instruction &I : Arm->Insts) {
      if (I.isTerminator() || I.isProbe())
        continue;
      RegId Orig = I.Dst;
      RegId Tmp = F.allocReg();
      Instruction Copy = I;
      Copy.Dst = Tmp;
      B->Insts.push_back(std::move(Copy));
      Vals[Orig] = Operand::reg(Tmp);
    }
  };
  Hoist(T, TVal);
  Hoist(FB, FVal);

  // One select per register written by either arm.
  std::set<RegId> AllDsts;
  for (auto &[R, V] : TVal)
    AllDsts.insert(R);
  for (auto &[R, V] : FVal)
    AllDsts.insert(R);
  for (RegId R : AllDsts) {
    Instruction Sel;
    Sel.Op = Opcode::Select;
    Sel.Dst = R;
    Sel.A = Cond;
    Sel.B = TVal.count(R) ? TVal[R] : Operand::reg(R);
    Sel.C = FVal.count(R) ? FVal[R] : Operand::reg(R);
    Sel.DL = Term.DL;
    Sel.OriginGuid = Term.OriginGuid;
    Sel.InlineStack = Term.InlineStack;
    B->Insts.push_back(std::move(Sel));
  }

  // Branch to the join.
  Instruction Br;
  Br.Op = Opcode::Br;
  Br.Succ0 = Join;
  Br.DL = Term.DL;
  Br.OriginGuid = Term.OriginGuid;
  Br.InlineStack = Term.InlineStack;
  B->Insts.push_back(std::move(Br));
  Preds.attachSuccessors(B);
  B->SuccWeights.clear();
  if (B->HasCount)
    B->SuccWeights = {B->Count};

  // The arms become unreachable; collect them now.
  removeUnreachableBlocks(F, &Preds);
  return true;
}

unsigned runIfConvert(Function &F, const OptOptions &Opts) {
  unsigned Changed = 0;
  bool Progress = true;
  PredecessorMap Preds(F);
  while (Progress) {
    Progress = false;
    for (auto &BBPtr : F.Blocks) {
      if (tryConvertAt(F, BBPtr.get(), Opts, Preds)) {
        ++Changed;
        Progress = true;
        break; // Block list mutated; rescan from the first block.
      }
    }
  }
  return Changed;
}

} // namespace csspgo
