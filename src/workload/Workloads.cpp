//===- workload/Workloads.cpp - Named workload presets ----------------------===//

#include "workload/Workloads.h"

#include "support/Hashing.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace csspgo {

WorkloadConfig workloadPreset(const std::string &Name, double RequestScale) {
  WorkloadConfig C;
  C.Name = Name;
  if (Name == "AdRanker") {
    // Compute-heavy ranking: deep arithmetic, moderate call fan-out.
    C.Seed = 101;
    C.NumServices = 8;
    C.NumMids = 72;
    C.NumUtils = 28;
    C.NumColdHandlers = 16;
    C.ArithDensity = 7;
    C.FeatureLoop = 8;
    C.Requests = 3000;
    C.UnbiasedBranchProb = 0.25;
    C.MidsPerService = 10;
  } else if (Name == "AdRetriever") {
    // Branch-heavy retrieval with many similar code paths.
    C.Seed = 202;
    C.NumServices = 8;
    C.NumMids = 88;
    C.NumUtils = 32;
    C.NumColdHandlers = 20;
    C.ArithDensity = 5;
    C.DupTailProb = 0.65;
    C.MidsPerService = 12;
    C.UnbiasedBranchProb = 0.45;
    C.FeatureLoop = 6;
    C.Requests = 3000;
  } else if (Name == "AdFinder") {
    // Call-dense matching with long util dispatch chains.
    C.Seed = 303;
    C.NumServices = 7;
    C.NumMids = 80;
    C.NumUtils = 40;
    C.NumColdHandlers = 16;
    C.ArithDensity = 5;
    C.TailCallProb = 0.5;
    C.UtilCallsPerMid = 3;
    C.MidsPerService = 13;
    C.FeatureLoop = 6;
    C.Requests = 3000;
  } else if (Name == "HHVM") {
    // The biggest binary: wide dispatch, heavy i-cache pressure.
    C.Seed = 404;
    C.NumServices = 12;
    C.NumMids = 140;
    C.NumUtils = 56;
    C.NumColdHandlers = 32;
    C.ArithDensity = 8;
    C.FeatureLoop = 8;
    C.Requests = 2500;
    C.ServiceSkew = 1.0;
    C.MidsPerService = 13;
  } else if (Name == "HaaS") {
    // JS remote execution: small hot core, strong skew, long loops.
    C.Seed = 505;
    C.NumServices = 9;
    C.NumMids = 56;
    C.NumUtils = 20;
    C.NumColdHandlers = 14;
    C.ArithDensity = 6;
    C.ServiceSkew = 1.9;
    C.MidsPerService = 8;
    C.FeatureLoop = 12;
    C.Requests = 3000;
  } else if (Name == "RpcFanout") {
    // Microservice aggregator: always-indirect backend dispatch with
    // per-leg dominant targets and rare timeout/retry cold arms.
    C.Seed = 707;
    C.Archetype = WorkloadArchetype::RpcFanout;
    C.NumServices = 6; // Frontends.
    C.NumMids = 48;    // Backend RPC stubs.
    C.NumUtils = 24;
    C.NumColdHandlers = 12;
    C.FanoutBackends = 8;
    C.ArithDensity = 4;
    C.ServiceSkew = 1.4;
    C.FeatureLoop = 6;
    C.Requests = 2200;
  } else if (Name == "InterpLoop") {
    // Bytecode interpreter: one hot fetch/dispatch loop, skewed opcode
    // mix, handlers with per-opcode util modes.
    C.Seed = 808;
    C.Archetype = WorkloadArchetype::InterpLoop;
    C.NumServices = 1;
    C.NumUtils = 16;
    C.NumColdHandlers = 8;
    C.NumOpcodes = 28;
    C.BytecodeLength = 64;
    C.OpcodeSkew = 1.5;
    C.ArithDensity = 3;
    C.Requests = 1800;
  } else if (Name == "ColdBoot") {
    // Mobile cold start: boot phases dominate total cycles, the steady
    // state is short — function ordering, not branch bias, is the win.
    C.Seed = 909;
    C.Archetype = WorkloadArchetype::ColdBoot;
    C.NumServices = 1;
    C.NumMids = 40;
    C.NumUtils = 20;
    C.NumColdHandlers = 10;
    C.BootPhases = 56;
    C.ArithDensity = 5;
    C.FeatureLoop = 2;
    C.Requests = 400;
  } else if (Name == "ClangProxy") {
    // Client workload: many functions, short run, flat mix — sampling
    // covers a smaller share of the executed code (§IV-D).
    C.Seed = 606;
    C.NumServices = 14;
    C.NumMids = 150;
    C.NumUtils = 48;
    C.NumColdHandlers = 36;
    C.ArithDensity = 5;
    C.ServiceSkew = 0.3;
    C.MidsPerService = 12;
    C.FeatureLoop = 3;
    C.Requests = 700;
  } else {
    assert(false && "unknown workload preset");
  }
  // Clamped in double before the cast: a product past the unsigned range
  // (or a NaN scale) must not reach the undefined conversion.
  const double Scaled = std::min(C.Requests * RequestScale,
                                 double(std::numeric_limits<unsigned>::max()));
  C.Requests = Scaled >= 1 ? static_cast<unsigned>(Scaled) : 1;
  return C;
}

std::vector<std::string> serverWorkloadNames() {
  return {"AdRanker", "AdRetriever", "AdFinder", "HHVM", "HaaS"};
}

std::vector<std::string> archetypeWorkloadNames() {
  return {"RpcFanout", "InterpLoop", "ColdBoot"};
}

void applySourceDrift(Module &M, uint32_t ShiftLines) {
  for (auto &F : M.Functions) {
    // Find the midpoint line of the function and shift everything at or
    // below it, as if a comment block was inserted there.
    uint32_t MaxLine = 0;
    for (auto &BB : F->Blocks)
      for (auto &I : BB->Insts)
        MaxLine = std::max(MaxLine, I.DL.Line);
    uint32_t Mid = MaxLine / 2;
    for (auto &BB : F->Blocks)
      for (auto &I : BB->Insts)
        if (I.DL.Line >= Mid)
          I.DL.Line += ShiftLines;
  }
}

namespace {

/// Moves the last \p K blocks of \p F (just created) to right after layout
/// position \p AnchorIdx, so the edit lands mid-function and shifts the
/// probe ids of everything after it.
void moveNewBlocksAfter(Function &F, size_t AnchorIdx, size_t K) {
  std::rotate(F.Blocks.begin() + static_cast<ptrdiff_t>(AnchorIdx) + 1,
              F.Blocks.end() - static_cast<ptrdiff_t>(K), F.Blocks.end());
}

void shiftLinesFrom(Function &F, uint32_t FromLine, int32_t Delta) {
  for (auto &BB : F.Blocks)
    for (auto &I : BB->Insts)
      if (I.DL.Line >= FromLine)
        I.DL.Line = static_cast<uint32_t>(static_cast<int64_t>(I.DL.Line) +
                                          Delta);
}

/// Valid split points of \p BB: both halves non-empty, the terminator
/// stays in the tail, and a tail call is never left dangling before the
/// new branch.
std::vector<size_t> splitPoints(const BasicBlock &BB) {
  std::vector<size_t> Out;
  if (!BB.hasTerminator())
    return Out;
  // P in [1, size): head keeps [0, P), tail keeps [P, end) including the
  // terminator, and a tail call is never left dangling before the branch.
  for (size_t P = 1; P < BB.Insts.size(); ++P) {
    const Instruction &Before = BB.Insts[P - 1];
    if (Before.isCall() && Before.IsTailCall)
      continue;
    Out.push_back(P);
  }
  return Out;
}

unsigned seededPick(const Function &F, uint32_t Seed, size_t N) {
  return static_cast<unsigned>(
      hashCombine(hashBytes(F.getName()), Seed) % N);
}

/// Splits \p BB at \p Pos into head + tail, returning the new tail block
/// (appended to the function — caller repositions it).
BasicBlock *splitBlock(Function &F, BasicBlock *BB, size_t Pos,
                       const std::string &Label) {
  BasicBlock *Tail = F.createBlock(Label);
  Tail->Insts.assign(BB->Insts.begin() + static_cast<ptrdiff_t>(Pos),
                     BB->Insts.end());
  BB->Insts.erase(BB->Insts.begin() + static_cast<ptrdiff_t>(Pos),
                  BB->Insts.end());
  return Tail;
}

unsigned driftGuardInsert(Module &M, uint32_t Seed) {
  unsigned Edited = 0;
  for (auto &FP : M.Functions) {
    Function &F = *FP;
    // Candidate blocks with at least one valid split point.
    std::vector<std::pair<BasicBlock *, std::vector<size_t>>> Cands;
    for (auto &BB : F.Blocks) {
      auto Points = splitPoints(*BB);
      if (!Points.empty() && BB->Insts.size() >= 2)
        Cands.push_back({BB.get(), std::move(Points)});
    }
    if (Cands.empty())
      continue;
    auto &[BB, Points] = Cands[seededPick(F, Seed, Cands.size())];
    size_t Pos = Points[Points.size() / 2];
    size_t AnchorIdx = F.blockIndex(BB);

    // The guard occupies three new source lines at the split point.
    uint32_t GuardLine = BB->Insts[Pos].DL.Line;
    shiftLinesFrom(F, GuardLine, 3);

    BasicBlock *Tail = splitBlock(F, BB, Pos, "drift.tail");
    BasicBlock *Cold = F.createBlock("drift.cold");

    RegId Guard = F.allocReg();
    Instruction Cmp;
    Cmp.Op = Opcode::CmpEQ;
    Cmp.Dst = Guard;
    Cmp.A = Operand::imm(0);
    Cmp.B = Operand::imm(0);
    Cmp.DL.Line = GuardLine;
    Cmp.OriginGuid = F.getGuid();
    BB->Insts.push_back(std::move(Cmp));
    Instruction Br;
    Br.Op = Opcode::CondBr;
    Br.A = Operand::reg(Guard);
    Br.Succ0 = Tail; // 0 == 0: always taken.
    Br.Succ1 = Cold;
    Br.DL.Line = GuardLine + 1;
    Br.OriginGuid = F.getGuid();
    BB->Insts.push_back(std::move(Br));

    Instruction ColdBr;
    ColdBr.Op = Opcode::Br;
    ColdBr.Succ0 = Tail;
    ColdBr.DL.Line = GuardLine + 2;
    ColdBr.OriginGuid = F.getGuid();
    Cold->Insts.push_back(std::move(ColdBr));

    moveNewBlocksAfter(F, AnchorIdx, 2);
    ++Edited;
  }
  return Edited;
}

unsigned predecessorCount(const Function &F, const BasicBlock *BB) {
  unsigned N = 0;
  for (const auto &Other : F.Blocks)
    for (BasicBlock *S : Other->successors())
      if (S == BB)
        ++N;
  return N;
}

bool regUsedOutside(const Function &F, RegId R, const Instruction *Skip) {
  std::vector<RegId> Used;
  for (const auto &BB : F.Blocks)
    for (const Instruction &I : BB->Insts) {
      if (&I == Skip)
        continue;
      Used.clear();
      I.getUsedRegs(Used);
      if (std::find(Used.begin(), Used.end(), R) != Used.end())
        return true;
    }
  return false;
}

unsigned driftGuardDelete(Module &M) {
  unsigned Edited = 0;
  for (auto &FP : M.Functions) {
    Function &F = *FP;
    bool FoldedAny = false;
    for (auto &BBPtr : F.Blocks) {
      BasicBlock *BB = BBPtr.get();
      if (!BB->hasTerminator())
        continue;
      Instruction &Term = BB->terminator();
      if (Term.Op != Opcode::CondBr || !Term.A.isReg())
        continue;
      // Constant-condition guard: the condition is a same-block compare
      // of two immediates.
      RegId Cond = Term.A.getReg();
      ptrdiff_t DefIdx = -1;
      for (ptrdiff_t I = static_cast<ptrdiff_t>(BB->Insts.size()) - 2;
           I >= 0; --I)
        if (BB->Insts[static_cast<size_t>(I)].writesReg(Cond)) {
          DefIdx = I;
          break;
        }
      if (DefIdx < 0)
        continue;
      Instruction &Def = BB->Insts[static_cast<size_t>(DefIdx)];
      if (!Def.A.isImm() || !Def.B.isImm())
        continue;
      int64_t A = Def.A.getImm(), B = Def.B.getImm();
      bool Val;
      switch (Def.Op) {
      case Opcode::CmpEQ: Val = A == B; break;
      case Opcode::CmpNE: Val = A != B; break;
      case Opcode::CmpLT: Val = A < B; break;
      case Opcode::CmpLE: Val = A <= B; break;
      case Opcode::CmpGT: Val = A > B; break;
      case Opcode::CmpGE: Val = A >= B; break;
      default: continue;
      }
      uint32_t GuardLine = Def.DL.Line;
      BasicBlock *Taken = Val ? Term.Succ0 : Term.Succ1;
      Term.Op = Opcode::Br;
      Term.A = Operand();
      Term.Succ0 = Taken;
      Term.Succ1 = nullptr;
      if (!regUsedOutside(F, Cond, &Def))
        BB->Insts.erase(BB->Insts.begin() + DefIdx);
      // The guard's source lines disappear with it.
      shiftLinesFrom(F, GuardLine + 1, -3);
      FoldedAny = true;
    }
    if (!FoldedAny)
      continue;
    ++Edited;
    // Erase arms that just became unreachable.
    bool Removed = true;
    while (Removed) {
      Removed = false;
      for (auto &BBPtr : F.Blocks) {
        BasicBlock *BB = BBPtr.get();
        if (BB == F.getEntry() || predecessorCount(F, BB))
          continue;
        F.eraseBlock(BB);
        Removed = true;
        break;
      }
    }
    // Collapse trivial single-predecessor Br chains the fold left behind.
    bool Merged = true;
    while (Merged) {
      Merged = false;
      for (auto &BBPtr : F.Blocks) {
        BasicBlock *BB = BBPtr.get();
        if (!BB->hasTerminator() || BB->terminator().Op != Opcode::Br)
          continue;
        BasicBlock *Succ = BB->terminator().Succ0;
        if (!Succ || Succ == BB || Succ == F.getEntry() ||
            predecessorCount(F, Succ) != 1)
          continue;
        BB->Insts.pop_back(); // The Br.
        BB->Insts.insert(BB->Insts.end(), Succ->Insts.begin(),
                         Succ->Insts.end());
        Succ->Insts.clear();
        F.eraseBlock(Succ);
        Merged = true;
        break;
      }
    }
  }
  return Edited;
}

unsigned driftBlockSplit(Module &M, uint32_t Seed) {
  unsigned Edited = 0;
  for (auto &FP : M.Functions) {
    Function &F = *FP;
    std::vector<std::pair<BasicBlock *, std::vector<size_t>>> Cands;
    for (auto &BB : F.Blocks) {
      auto Points = splitPoints(*BB);
      if (!Points.empty() && BB->Insts.size() >= 3)
        Cands.push_back({BB.get(), std::move(Points)});
    }
    if (Cands.empty())
      continue;
    auto &[BB, Points] = Cands[seededPick(F, Seed * 2654435761u, Cands.size())];
    size_t Pos = Points[Points.size() / 2];
    size_t AnchorIdx = F.blockIndex(BB);
    BasicBlock *Tail = splitBlock(F, BB, Pos, "drift.split");
    Instruction Br;
    Br.Op = Opcode::Br;
    Br.Succ0 = Tail;
    Br.DL = Tail->Insts.front().DL; // No source-line changes.
    Br.OriginGuid = F.getGuid();
    BB->Insts.push_back(std::move(Br));
    moveNewBlocksAfter(F, AnchorIdx, 1);
    ++Edited;
  }
  return Edited;
}

unsigned driftCalleeRename(Module &M) {
  // Victim: the most-called non-entry function (ties: first by name).
  std::map<std::string, unsigned> CallCounts;
  for (auto &F : M.Functions)
    for (auto &BB : F->Blocks)
      for (const Instruction &I : BB->Insts)
        if (I.Op == Opcode::Call)
          ++CallCounts[I.Callee];
  Function *Victim = nullptr;
  unsigned Best = 0;
  for (auto &F : M.Functions) {
    if (F->IsEntryPoint)
      continue;
    auto It = CallCounts.find(F->getName());
    unsigned N = It == CallCounts.end() ? 0 : It->second;
    if (N > Best) {
      Best = N;
      Victim = F.get();
    }
  }
  if (!Victim || !Best)
    return 0;

  const std::string OldName = Victim->getName();
  const std::string NewName = OldName + "_v2";
  const std::string HelperName = OldName + "_helper";
  if (M.getFunction(NewName) || M.getFunction(HelperName))
    return 0; // Already drifted.

  // Tiny new helper: returns its argument (pure, no memory traffic).
  Function *Helper = M.createFunction(HelperName, 1);
  {
    BasicBlock *Entry = Helper->createBlock("entry");
    Instruction Ret;
    Ret.Op = Opcode::Ret;
    Ret.A = Operand::reg(0);
    Ret.DL.Line = 1;
    Ret.OriginGuid = Helper->getGuid();
    Entry->Insts.push_back(std::move(Ret));
  }

  // Clone the victim under the new symbol (fresh GUID).
  Function *NewF = M.createFunction(NewName, Victim->getNumParams());
  NewF->ensureRegs(Victim->getNumRegs());
  NewF->NoInline = Victim->NoInline;
  NewF->AlwaysInline = Victim->AlwaysInline;
  std::map<const BasicBlock *, BasicBlock *> BlockMap;
  for (auto &BB : Victim->Blocks)
    BlockMap[BB.get()] = NewF->createBlock(BB->getLabel());
  for (auto &BB : Victim->Blocks) {
    BasicBlock *NB = BlockMap[BB.get()];
    NB->Insts = BB->Insts;
    for (Instruction &I : NB->Insts) {
      if (I.Succ0)
        I.Succ0 = BlockMap[I.Succ0];
      if (I.Succ1)
        I.Succ1 = BlockMap[I.Succ1];
      if (I.OriginGuid == Victim->getGuid())
        I.OriginGuid = NewF->getGuid();
    }
  }

  // The refactor also added a call to the new helper at the top.
  {
    BasicBlock *Entry = NewF->getEntry();
    size_t Pos = 0;
    while (Pos < Entry->Insts.size() && Entry->Insts[Pos].isIntrinsic())
      ++Pos;
    Instruction Call;
    Call.Op = Opcode::Call;
    Call.Dst = NewF->allocReg();
    Call.Callee = HelperName;
    Call.Args = {Operand::imm(7)};
    Call.DL.Line =
        Pos < Entry->Insts.size() ? Entry->Insts[Pos].DL.Line : 1;
    Call.OriginGuid = NewF->getGuid();
    Entry->Insts.insert(Entry->Insts.begin() + static_cast<ptrdiff_t>(Pos),
                        std::move(Call));
  }

  // Retarget every call site and function-table entry, then drop the old
  // body.
  unsigned Retargeted = 0;
  for (auto &F : M.Functions)
    for (auto &BB : F->Blocks)
      for (Instruction &I : BB->Insts)
        if (I.Op == Opcode::Call && I.Callee == OldName) {
          I.Callee = NewName;
          ++Retargeted;
        }
  for (std::string &Entry : M.FunctionTable)
    if (Entry == OldName) {
      Entry = NewName;
      ++Retargeted;
    }
  M.eraseFunction(Victim);
  return Retargeted;
}

} // namespace

unsigned applyCFGDrift(Module &M, CFGDriftKind K, uint32_t Seed) {
  switch (K) {
  case CFGDriftKind::GuardInsert:
    return driftGuardInsert(M, Seed);
  case CFGDriftKind::GuardDelete:
    return driftGuardDelete(M);
  case CFGDriftKind::BlockSplit:
    return driftBlockSplit(M, Seed);
  case CFGDriftKind::CalleeRename:
    return driftCalleeRename(M);
  }
  return 0;
}

} // namespace csspgo
