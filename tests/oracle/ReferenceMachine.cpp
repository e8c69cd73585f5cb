//===- tests/oracle/ReferenceMachine.cpp - Reference interpreter ----------===//
//
// The original straightforward interpreter: one heap vector of registers
// per frame, per-operand tag dispatch, std::map BTB, allocating sampler
// snapshots. It does not use sim/MachineCore.h — cost charging, the
// BTB, the sampler and stack capture are its own — so it is the
// independent oracle the equivalence suites hold the production machine
// model (the fast interpreter and the trace replayer) against, and
// readable documentation of the semantics.
//
//===----------------------------------------------------------------------===//

#include "oracle/Oracle.h"

#include "ir/GuestArith.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace csspgo {

namespace {

/// Pre-reservation for RunResult::Samples: expected sample count if the
/// run hits the instruction cap (cycles >= instructions, so this slightly
/// overshoots), clamped so a huge MaxInstructions cannot balloon memory.
size_t sampleReserveEstimate(const ExecConfig &Config) {
  if (!Config.Sampler.Enabled || Config.Sampler.PeriodCycles == 0)
    return 0;
  uint64_t Estimate = Config.MaxInstructions / Config.Sampler.PeriodCycles;
  return static_cast<size_t>(std::min<uint64_t>(Estimate, 1u << 16));
}

//===----------------------------------------------------------------------===//
// Reference interpreter
//===----------------------------------------------------------------------===//

struct Frame {
  uint32_t FuncIdx = 0;
  std::vector<int64_t> Regs;
  /// Global instruction index to resume at in the caller (SIZE_MAX for the
  /// outermost frame).
  size_t RetIdx = SIZE_MAX;
  /// Destination register in the caller for the return value.
  RegId RetDst = InvalidReg;
};

class ReferenceMachine {
public:
  ReferenceMachine(const Binary &Bin, std::vector<int64_t> &Memory,
                   const ExecConfig &Config)
      : Bin(Bin), Memory(Memory), Config(Config), Cache(Config.Costs),
        Predictor(Config.Costs), Ring(Config.Sampler.LBRDepth),
        Jitter(Config.Sampler.Seed),
        Tracer(Config.Trace, Config.Costs.TraceByteCost) {}

  RunResult run(const std::string &Entry);

private:
  int64_t eval(const Operand &O, const Frame &F) const {
    if (O.isImm())
      return O.getImm();
    if (O.isReg())
      return F.Regs[O.getReg()];
    return 0;
  }

  uint64_t memIndex(int64_t Addr) const {
    uint64_t Size = Memory.size();
    assert(Size && "memory must be non-empty");
    int64_t M = Addr % static_cast<int64_t>(Size);
    if (M < 0)
      M += static_cast<int64_t>(Size);
    return static_cast<uint64_t>(M);
  }

  void recordBranch(uint64_t Src, uint64_t Dst) {
    Ring.record(Src, Dst);
    ++Result.TakenBranches;
    Result.Cycles += Config.Costs.TakenBranchCost;
  }

  std::vector<uint64_t> captureStack(size_t PCIdx) const {
    std::vector<uint64_t> Stack;
    Stack.reserve(Frames.size());
    Stack.push_back(Bin.Code[PCIdx].Addr);
    for (size_t I = Frames.size(); I-- > 0;) {
      if (Frames[I].RetIdx != SIZE_MAX)
        Stack.push_back(Bin.Code[Frames[I].RetIdx].Addr);
    }
    return Stack;
  }

  void maybeSample(size_t PCIdx) {
    if (!Config.Sampler.Enabled)
      return;
    // Deliver a pending (skidded) sample once its delay has elapsed.
    if (SkidCountdown > 0) {
      if (--SkidCountdown == 0) {
        Pending.Stack = captureStack(PCIdx);
        Result.Samples.push_back(std::move(Pending));
        Pending = PerfSample();
      }
    }
    if (Result.Cycles < NextSampleAt)
      return;
    NextSampleAt = Result.Cycles + Config.Sampler.PeriodCycles;
    // The PMU interrupt itself costs cycles (modeled perturbation; 0 by
    // default). Charged after the next-sample point is armed so the
    // sampling period is unperturbed.
    Result.Cycles += Config.Costs.SampleInterruptCost;
    if (Config.Sampler.Precise) {
      PerfSample S;
      S.LBR = Ring.snapshot();
      S.Stack = captureStack(PCIdx);
      Result.Samples.push_back(std::move(S));
      return;
    }
    // Imprecise: LBR now, stack after a short skid. If a sample is already
    // pending, drop the new one (PMU interrupts do not nest).
    if (SkidCountdown > 0)
      return;
    Pending.LBR = Ring.snapshot();
    if (Config.Sampler.MaxSkidInstructions == 0) {
      // Zero skid: deliver at this instruction (Rng::nextBelow(0) is
      // invalid — there is no skid to draw).
      Pending.Stack = captureStack(PCIdx);
      Result.Samples.push_back(std::move(Pending));
      Pending = PerfSample();
      return;
    }
    SkidCountdown =
        1 + Jitter.nextBelow(Config.Sampler.MaxSkidInstructions);
  }

  /// Folds the recorded trace into the result; every exit path returns
  /// through here.
  RunResult finish() {
    if (Config.Trace.Enabled)
      Result.Trace = Tracer.finish(Result.Cycles);
    return std::move(Result);
  }

  const Binary &Bin;
  std::vector<int64_t> &Memory;
  const ExecConfig &Config;
  ICache Cache;
  BranchPredictor Predictor;
  LBRRing Ring;
  Rng Jitter;
  TraceRecorder Tracer;

  std::vector<Frame> Frames;
  std::map<uint64_t, uint64_t> IndirectBTB;
  RunResult Result;
  uint64_t NextSampleAt = 0;
  PerfSample Pending;
  uint32_t SkidCountdown = 0;
};

RunResult ReferenceMachine::run(const std::string &Entry) {
  uint32_t EntryIdx = Bin.funcIndexByName(Entry);
  if (EntryIdx == ~0u) {
    Result.Error = "entry function '" + Entry + "' not found";
    return finish();
  }
  Result.Counters.assign(Bin.NumCounters + 1, 0);
  if (Config.CollectInstCounts)
    Result.InstCounts.assign(Bin.Code.size(), 0);
  Result.Samples.reserve(sampleReserveEstimate(Config));
  NextSampleAt = Config.Sampler.PeriodCycles;

  Frame Top;
  Top.FuncIdx = EntryIdx;
  Top.Regs.assign(Bin.Funcs[EntryIdx].NumRegs, 0);
  Frames.push_back(std::move(Top));

  size_t PC = Bin.Funcs[EntryIdx].EntryIdx;

  while (true) {
    if (Result.Instructions >= Config.MaxInstructions) {
      Result.Error = "instruction limit exceeded";
      return finish();
    }
    assert(PC < Bin.Code.size() && "PC out of range");
    const MInst &I = Bin.Code[PC];
    Frame &F = Frames.back();

    ++Result.Instructions;
    if (Config.CollectInstCounts)
      ++Result.InstCounts[PC];
    Result.Cycles += Config.Costs.baseCost(I.Op);
    if (Cache.access(I.Addr)) {
      ++Result.ICacheMisses;
      Result.Cycles += Config.Costs.ICacheMissPenalty;
    }
    maybeSample(PC);

    size_t NextPC = PC + 1;
    switch (I.Op) {
    case Opcode::Add:
      F.Regs[I.Dst] = guestAdd(eval(I.A, F), eval(I.B, F));
      break;
    case Opcode::Sub:
      F.Regs[I.Dst] = guestSub(eval(I.A, F), eval(I.B, F));
      break;
    case Opcode::Mul:
      F.Regs[I.Dst] = guestMul(eval(I.A, F), eval(I.B, F));
      break;
    case Opcode::Div:
      F.Regs[I.Dst] = guestDiv(eval(I.A, F), eval(I.B, F));
      break;
    case Opcode::Mod:
      F.Regs[I.Dst] = guestMod(eval(I.A, F), eval(I.B, F));
      break;
    case Opcode::And:
      F.Regs[I.Dst] = eval(I.A, F) & eval(I.B, F);
      break;
    case Opcode::Or:
      F.Regs[I.Dst] = eval(I.A, F) | eval(I.B, F);
      break;
    case Opcode::Xor:
      F.Regs[I.Dst] = eval(I.A, F) ^ eval(I.B, F);
      break;
    case Opcode::Shl:
      F.Regs[I.Dst] = guestShl(eval(I.A, F), eval(I.B, F));
      break;
    case Opcode::Shr:
      F.Regs[I.Dst] = guestShr(eval(I.A, F), eval(I.B, F));
      break;
    case Opcode::CmpEQ:
      F.Regs[I.Dst] = eval(I.A, F) == eval(I.B, F);
      break;
    case Opcode::CmpNE:
      F.Regs[I.Dst] = eval(I.A, F) != eval(I.B, F);
      break;
    case Opcode::CmpLT:
      F.Regs[I.Dst] = eval(I.A, F) < eval(I.B, F);
      break;
    case Opcode::CmpLE:
      F.Regs[I.Dst] = eval(I.A, F) <= eval(I.B, F);
      break;
    case Opcode::CmpGT:
      F.Regs[I.Dst] = eval(I.A, F) > eval(I.B, F);
      break;
    case Opcode::CmpGE:
      F.Regs[I.Dst] = eval(I.A, F) >= eval(I.B, F);
      break;
    case Opcode::Mov:
      F.Regs[I.Dst] = eval(I.A, F);
      break;
    case Opcode::Select:
      F.Regs[I.Dst] = eval(I.A, F) ? eval(I.B, F) : eval(I.C, F);
      break;
    case Opcode::Load:
      F.Regs[I.Dst] = Memory[memIndex(eval(I.A, F))];
      break;
    case Opcode::Store:
      Memory[memIndex(eval(I.A, F))] = eval(I.B, F);
      break;
    case Opcode::InstrProfIncr:
      ++Result.Counters[I.CounterIdx];
      break;
    case Opcode::Br:
      NextPC = static_cast<size_t>(I.Target);
      ++Result.UncondJumps;
      recordBranch(I.Addr, Bin.Code[NextPC].Addr);
      break;
    case Opcode::CondBr: {
      bool Cond = eval(I.A, F) != 0;
      bool Taken = Cond != I.InvertCond;
      ++Result.CondBranches;
      if (Predictor.mispredicted(I.Addr, Taken)) {
        ++Result.Mispredicts;
        Result.Cycles += Config.Costs.MispredictPenalty;
      }
      if (Taken) {
        ++Result.CondTaken;
        NextPC = static_cast<size_t>(I.Target);
        recordBranch(I.Addr, Bin.Code[NextPC].Addr);
      }
      if (Config.Trace.Enabled)
        Tracer.condBranch(Taken, Result.Cycles);
      break;
    }
    case Opcode::CallIndirect:
    case Opcode::Call: {
      uint32_t CalleeIdx = I.CalleeIdx;
      if (I.Op == Opcode::CallIndirect) {
        // Resolve through the dispatch table; out-of-range slots wrap
        // (total semantics, mirrors the generator's contract).
        assert(!Bin.FuncTable.empty() && "indirect call without table");
        uint64_t Slot = static_cast<uint64_t>(eval(I.A, F)) %
                        Bin.FuncTable.size();
        CalleeIdx = Bin.FuncTable[Slot];
        ++Result.IndirectCalls;
        // Indirect-branch target prediction: a last-target BTB entry per
        // call site. This is the channel indirect-call promotion pays
        // through — promoted sites become direct calls and stop missing.
        uint64_t &Last = IndirectBTB[I.Addr];
        if (Last != Bin.Funcs[CalleeIdx].EntryIdx + 1) {
          ++Result.IndirectMispredicts;
          ++Result.Mispredicts;
          Result.Cycles += Config.Costs.MispredictPenalty;
          Last = Bin.Funcs[CalleeIdx].EntryIdx + 1;
        }
        if (Config.CollectValueProfile && I.CallSiteId)
          ++Result.ValueProfile[{I.OriginGuid, I.CallSiteId}]
                               [static_cast<int64_t>(Slot)];
        if (Config.Trace.Enabled)
          Tracer.indirectTarget(CalleeIdx, Result.Cycles);
      }
      const MachineFunction &Callee = Bin.Funcs[CalleeIdx];
      ++Result.Calls;
      if (I.IsTailCall) {
        // Tail-call elimination: reuse the frame; the caller disappears
        // from the sampled stack.
        Frame NewF;
        NewF.FuncIdx = CalleeIdx;
        NewF.Regs.assign(Callee.NumRegs, 0);
        for (size_t A = 0; A != I.Args.size() && A < Callee.NumParams; ++A)
          NewF.Regs[A] = eval(I.Args[A], F);
        NewF.RetIdx = F.RetIdx;
        NewF.RetDst = F.RetDst;
        Frames.back() = std::move(NewF);
        NextPC = Callee.EntryIdx;
        // A tail call is an unconditional jump in the binary.
        recordBranch(I.Addr, Bin.Code[NextPC].Addr);
        break;
      }
      if (Frames.size() >= Config.MaxCallDepth) {
        Result.Error = "call depth limit exceeded in " + Callee.Name;
        return finish();
      }
      Frame NewF;
      NewF.FuncIdx = CalleeIdx;
      NewF.Regs.assign(Callee.NumRegs, 0);
      for (size_t A = 0; A != I.Args.size() && A < Callee.NumParams; ++A)
        NewF.Regs[A] = eval(I.Args[A], F);
      NewF.RetIdx = PC + 1;
      NewF.RetDst = I.Dst;
      Frames.push_back(std::move(NewF));
      NextPC = Callee.EntryIdx;
      recordBranch(I.Addr, Bin.Code[NextPC].Addr);
      break;
    }
    case Opcode::Ret: {
      int64_t Value = eval(I.A, F);
      size_t RetIdx = F.RetIdx;
      RegId RetDst = F.RetDst;
      Frames.pop_back();
      if (Frames.empty() || RetIdx == SIZE_MAX) {
        Result.ExitValue = Value;
        Result.Completed = true;
        return finish();
      }
      if (RetDst != InvalidReg)
        Frames.back().Regs[RetDst] = Value;
      NextPC = RetIdx;
      recordBranch(I.Addr, Bin.Code[NextPC].Addr);
      break;
    }
    case Opcode::PseudoProbe:
      assert(false && "pseudo probes never lower to machine code");
      break;
    }
    PC = NextPC;
  }
}

} // namespace

RunResult executeReference(const Binary &Bin, const std::string &Entry,
                           std::vector<int64_t> &Memory,
                           const ExecConfig &Config) {
  ReferenceMachine M(Bin, Memory, Config);
  return M.run(Entry);
}

} // namespace csspgo
