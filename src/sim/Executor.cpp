//===- sim/Executor.cpp - Machine code executor ----------------------------===//
//
// The interpreter: register and frame semantics on top of the shared
// machine model (sim/MachineCore.h), which owns predecode, cost charging,
// the i-cache, predictors, LBR and sampler. Bin.Code is predecoded once
// per execute() into a dense internal form that resolves every operand's
// imm/reg tag up front (branchless Regs[Idx] + Imm reads), all
// frames share one contiguous register-file stack (calls and returns stop
// allocating), and dispatch is threaded (computed goto).
//
// Bit-identity against the independent reference interpreter
// (tests/oracle/) is pinned by tests/PropertyTest.cpp
// (ExecutorEquivalence) and measured by bench/micro_executor.cpp.
//
//===----------------------------------------------------------------------===//

#include "sim/Executor.h"

#include "ir/GuestArith.h"
#include "sim/MachineCore.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace csspgo {

namespace {

/// Predecoded operand. An operand read is the branchless expression
///   Regs[Idx] + ImmBits
/// against a register window whose slot 0 is a dedicated always-zero pad
/// (registers are biased by one: register r lives at slot r + 1):
/// - register operand: Idx = reg + 1, ImmBits = 0
/// - immediate:        Idx = 0,       ImmBits = imm   (0 + imm)
/// - none:             Idx = 0,       ImmBits = 0     (reads as 0)
struct DecOp {
  uint32_t Idx = 0;
  int64_t ImmBits = 0;
};

/// One predecoded instruction: the MachineCore::Inst members (filled by
/// MachineCore::predecode) interleaved with the interpreter's operand and
/// frame fields.
struct DecInst {
  // Field order is deliberate: the first 64 bytes are everything an ALU
  // op (and the dispatch/cost/i-cache bookkeeping) touches, so the
  // common case reads one cache line; branch extras come next and
  // call-only fields last.
  Opcode Op = Opcode::Mov;
  bool IsTailCall = false;
  bool InvertCond = false;
  /// Destination slot, biased like DecOp::Idx (register r -> r + 1;
  /// InvalidReg wraps to 0, the sentinel for "no destination").
  RegId Dst = 0;
  DecOp A, B;
  uint32_t BaseCost = 0;
  uint32_t ICSet = 0;
  uint64_t ICLine = 0;
  size_t Target = 0;

  DecOp C; ///< Third operand (Select only).
  uint32_t BPIdx = 0;
  uint64_t Addr = 0;
  uint64_t TargetAddr = 0;

  uint32_t CalleeIdx = ~0u;
  uint32_t CalleeNumRegs = 0;

  /// Argument operands live in a shared flat array [ArgsBegin,
  /// ArgsBegin + NumArgs). For direct calls NumArgs is pre-clamped to the
  /// callee's parameter count; indirect calls clamp at dispatch time.
  uint32_t ArgsBegin = 0;
  uint32_t NumArgs = 0;

  size_t RetIdx = SIZE_MAX;
  uint64_t RetAddr = 0;

  uint32_t CounterIdx = 0;

  /// CallIndirect: dense BTB slot, and dense value-profile site slot
  /// (~0u when value profiling is off or the site has no id).
  uint32_t BTBSlot = ~0u;
  uint32_t VPSlot = ~0u;
};

/// Frame metadata for the contiguous register-file stack: frame I's
/// window is RegStack[RegBase, RegBase + NumRegs + 1); slot RegBase + 0
/// is the always-zero pad backing immediate/none operand reads, register
/// r lives at RegBase + r + 1.
struct FrameMeta {
  uint32_t FuncIdx = 0;
  size_t RegBase = 0;
  size_t RetIdx = SIZE_MAX;
  uint64_t RetAddr = 0;
  /// Biased like DecInst::Dst (0 = no destination).
  RegId RetDst = 0;
};

class FastMachine {
public:
  FastMachine(const Binary &Bin, std::vector<int64_t> &Memory,
              const ExecConfig &Config)
      : Bin(Bin), Memory(Memory), Config(Config),
        Core(Bin, Config.Costs, Config.Sampler, Config.MaxInstructions),
        Tracer(Config.Trace, Config.Costs.TraceByteCost) {}

  RunResult run(const std::string &Entry);

private:
  static DecOp decOp(const Operand &O) {
    DecOp D;
    if (O.isReg())
      D.Idx = O.getReg() + 1;
    else if (O.isImm())
      D.ImmBits = O.getImm();
    return D;
  }

  Status decode();

  uint64_t memIndex(int64_t Addr) const {
    // In-range addresses (the common case) skip the division; the modulo
    // is the identity for 0 <= Addr < MemSize.
    if (static_cast<uint64_t>(Addr) < MemSize)
      return static_cast<uint64_t>(Addr);
    int64_t M = Addr % static_cast<int64_t>(MemSize);
    if (M < 0)
      M += static_cast<int64_t>(MemSize);
    return static_cast<uint64_t>(M);
  }

  /// Folds the dense per-site value-profile counts into the map shape the
  /// reference interpreter builds incrementally.
  void foldValueProfile() {
    if (VPCounts.empty())
      return;
    size_t TableSize = Bin.FuncTable.size();
    for (size_t S = 0; S != VPSites.size(); ++S) {
      const uint64_t *Row = VPCounts.data() + S * TableSize;
      std::map<int64_t, uint64_t> *Dst = nullptr;
      for (size_t Slot = 0; Slot != TableSize; ++Slot) {
        if (!Row[Slot])
          continue;
        if (!Dst)
          Dst = &Result.ValueProfile[VPSites[S]];
        (*Dst)[static_cast<int64_t>(Slot)] += Row[Slot];
      }
    }
  }

  RunResult finish() {
    Core.finishInto(Result);
    foldValueProfile();
    if (Config.Trace.Enabled)
      Result.Trace = Tracer.finish(Result.Cycles);
    return std::move(Result);
  }

  const Binary &Bin;
  std::vector<int64_t> &Memory;
  const ExecConfig &Config;
  MachineCore Core;
  TraceRecorder Tracer;

  std::vector<DecInst> Dec;
  std::vector<DecOp> ArgOps;
  std::vector<std::pair<uint64_t, uint32_t>> VPSites;

  std::vector<FrameMeta> Frames;
  std::vector<int64_t> RegStack;
  std::vector<int64_t> ArgBuf;
  std::vector<uint64_t> VPCounts;

  RunResult Result;
  uint64_t MemSize = 0;
};

Status FastMachine::decode() {
  Status S = Core.predecode(Dec, [&](size_t, const MInst &M, DecInst &D) {
    D.Dst = M.Dst + 1; // Biased; InvalidReg wraps to the 0 sentinel.
    D.A = decOp(M.A);
    D.B = decOp(M.B);
    D.C = decOp(M.C);
    D.InvertCond = M.InvertCond;
    D.CounterIdx = M.CounterIdx;

    if (M.Op == Opcode::Call) {
      const MachineFunction &Callee = Bin.Funcs[M.CalleeIdx];
      D.CalleeNumRegs = Callee.NumRegs;
      D.NumArgs = static_cast<uint32_t>(
          std::min<size_t>(M.Args.size(), Callee.NumParams));
    } else if (M.Op == Opcode::CallIndirect) {
      if (Config.CollectValueProfile && M.CallSiteId) {
        D.VPSlot = static_cast<uint32_t>(VPSites.size());
        VPSites.push_back({M.OriginGuid, M.CallSiteId});
      }
      // The callee (and its parameter count) is resolved per dispatch;
      // keep every argument operand and clamp at the call.
      D.NumArgs = static_cast<uint32_t>(M.Args.size());
    } else {
      return;
    }
    D.ArgsBegin = static_cast<uint32_t>(ArgOps.size());
    for (uint32_t A = 0; A != D.NumArgs; ++A)
      ArgOps.push_back(decOp(M.Args[A]));
  });
  if (!VPSites.empty())
    VPCounts.assign(VPSites.size() * Bin.FuncTable.size(), 0);
  return S;
}

RunResult FastMachine::run(const std::string &Entry) {
  uint32_t EntryIdx = Bin.funcIndexByName(Entry);
  if (EntryIdx == ~0u) {
    Result.Error = "entry function '" + Entry + "' not found";
    return finish();
  }
  Result.Counters.assign(Bin.NumCounters + 1, 0);
  if (Status S = decode(); !S.ok()) {
    Result.Error = S.message();
    return finish();
  }
  const bool CollectInstCounts = Config.CollectInstCounts;
  if (CollectInstCounts)
    Result.InstCounts.assign(Bin.Code.size(), 0);
  const bool SamplerOn = Config.Sampler.Enabled;
  const bool Tracing = Config.Trace.Enabled;
  MemSize = Memory.size();
  assert(MemSize && "memory must be non-empty");

  // Size the register stack for the common case up front: a mid-depth
  // call chain of the widest frames. resize() handles deeper growth.
  size_t MaxWindow = 1;
  for (const MachineFunction &F : Bin.Funcs)
    MaxWindow = std::max<size_t>(MaxWindow, F.NumRegs + 1);
  RegStack.reserve(std::min<size_t>(MaxWindow * 64, 1u << 20));
  Frames.reserve(std::min<size_t>(Config.MaxCallDepth, 1u << 16));

  Frames.push_back({EntryIdx, 0, SIZE_MAX, 0, 0});
  RegStack.resize(Bin.Funcs[EntryIdx].NumRegs + 1, 0);

  size_t PC = Bin.Funcs[EntryIdx].EntryIdx;
  const DecInst *Code = Dec.data();
  const uint64_t MaxInstructions = Config.MaxInstructions;

  // Retired-instruction and cycle counters live in registers for the
  // duration of the loop; every exit path syncs them into Result.
  uint64_t Instructions = 0;
  uint64_t Cycles = 0;
  auto syncCounters = [&] {
    Result.Instructions = Instructions;
    Result.Cycles = Cycles;
  };

  // Cached pointer to the current frame's register window; reloaded only
  // after frame surgery (call/ret/tail call may reallocate RegStack).
  int64_t *R = RegStack.data();
  auto reloadR = [&] { R = RegStack.data() + Frames.back().RegBase; };

  // Register-resident mirrors of the sampler gate state; the core's
  // maybeSample is the only writer, so they are refreshed after each call.
  uint64_t NextAt = Core.nextSampleAt();
  uint32_t Skid = Core.skidCountdown();
  [[maybe_unused]] const size_t DecSize = Dec.size();

  size_t NextPC = PC;
  auto val = [&](const DecOp &O) { return R[O.Idx] + O.ImmBits; };

  // Threaded dispatch (computed goto; the tree builds only with GCC or
  // Clang): every handler ends with its own indirect jump, so the host
  // branch predictor learns per-opcode successor patterns instead of
  // funneling all dispatch through one switch branch. Table order must
  // match the Opcode enumerators exactly (CallIndirect shares the Call
  // handler, which branches on I.Op).
  static const void *const JumpTable[] = {
      &&Op_Add,    &&Op_Sub,
      &&Op_Mul,    &&Op_Div,
      &&Op_Mod,    &&Op_And,
      &&Op_Or,     &&Op_Xor,
      &&Op_Shl,    &&Op_Shr,
      &&Op_CmpEQ,  &&Op_CmpNE,
      &&Op_CmpLT,  &&Op_CmpLE,
      &&Op_CmpGT,  &&Op_CmpGE,
      &&Op_Mov,    &&Op_Select,
      &&Op_Load,   &&Op_Store,
      &&Op_Call,   &&Op_Call /* CallIndirect */,
      &&Op_Ret,    &&Op_Br,
      &&Op_CondBr, &&Op_PseudoProbe,
      &&Op_InstrProfIncr};
  const DecInst *IP = Code + PC;
  // Same-line i-cache fetches (straight-line code inside one 64B line —
  // the common case) are filtered by the streak with one register
  // compare (see MachineCore::fetch).
  MachineCore::ICStreak Streak;

  // Per-instruction prologue (retire accounting, fetch, sampler gate)
  // followed by the jump to the next handler.
#define CSSPGO_DISPATCH()                                                      \
  do {                                                                         \
    PC = NextPC;                                                               \
    if (Instructions >= MaxInstructions)                                       \
      goto LimitHit;                                                           \
    assert(PC < DecSize && "PC out of range");                                 \
    IP = Code + PC;                                                            \
    ++Instructions;                                                            \
    if (CollectInstCounts)                                                     \
      ++Result.InstCounts[PC];                                                 \
    Core.fetch(*IP, Cycles, Streak);                                           \
    if (SamplerOn && (Skid != 0 || Cycles >= NextAt)) {                        \
      Core.maybeSample(PC, Cycles, Frames);                                    \
      NextAt = Core.nextSampleAt();                                            \
      Skid = Core.skidCountdown();                                             \
    }                                                                          \
    NextPC = PC + 1;                                                           \
    goto *JumpTable[static_cast<size_t>(IP->Op)];                              \
  } while (0)

  CSSPGO_DISPATCH();

Op_Add: {
  const DecInst &I = *IP;
  R[I.Dst] = guestAdd(val(I.A), val(I.B));
  CSSPGO_DISPATCH();
}
Op_Sub: {
  const DecInst &I = *IP;
  R[I.Dst] = guestSub(val(I.A), val(I.B));
  CSSPGO_DISPATCH();
}
Op_Mul: {
  const DecInst &I = *IP;
  R[I.Dst] = guestMul(val(I.A), val(I.B));
  CSSPGO_DISPATCH();
}
Op_Div: {
  const DecInst &I = *IP;
  R[I.Dst] = guestDiv(val(I.A), val(I.B));
  CSSPGO_DISPATCH();
}
Op_Mod: {
  const DecInst &I = *IP;
  R[I.Dst] = guestMod(val(I.A), val(I.B));
  CSSPGO_DISPATCH();
}
Op_And: {
  const DecInst &I = *IP;
  R[I.Dst] = val(I.A) & val(I.B);
  CSSPGO_DISPATCH();
}
Op_Or: {
  const DecInst &I = *IP;
  R[I.Dst] = val(I.A) | val(I.B);
  CSSPGO_DISPATCH();
}
Op_Xor: {
  const DecInst &I = *IP;
  R[I.Dst] = val(I.A) ^ val(I.B);
  CSSPGO_DISPATCH();
}
Op_Shl: {
  const DecInst &I = *IP;
  R[I.Dst] = guestShl(val(I.A), val(I.B));
  CSSPGO_DISPATCH();
}
Op_Shr: {
  const DecInst &I = *IP;
  R[I.Dst] = guestShr(val(I.A), val(I.B));
  CSSPGO_DISPATCH();
}
Op_CmpEQ: {
  const DecInst &I = *IP;
  R[I.Dst] = val(I.A) == val(I.B);
  CSSPGO_DISPATCH();
}
Op_CmpNE: {
  const DecInst &I = *IP;
  R[I.Dst] = val(I.A) != val(I.B);
  CSSPGO_DISPATCH();
}
Op_CmpLT: {
  const DecInst &I = *IP;
  R[I.Dst] = val(I.A) < val(I.B);
  CSSPGO_DISPATCH();
}
Op_CmpLE: {
  const DecInst &I = *IP;
  R[I.Dst] = val(I.A) <= val(I.B);
  CSSPGO_DISPATCH();
}
Op_CmpGT: {
  const DecInst &I = *IP;
  R[I.Dst] = val(I.A) > val(I.B);
  CSSPGO_DISPATCH();
}
Op_CmpGE: {
  const DecInst &I = *IP;
  R[I.Dst] = val(I.A) >= val(I.B);
  CSSPGO_DISPATCH();
}
Op_Mov: {
  const DecInst &I = *IP;
  R[I.Dst] = val(I.A);
  CSSPGO_DISPATCH();
}
Op_Select: {
  const DecInst &I = *IP;
  R[I.Dst] = val(I.A) ? val(I.B) : val(I.C);
  CSSPGO_DISPATCH();
}
Op_Load: {
  const DecInst &I = *IP;
  R[I.Dst] = Memory[memIndex(val(I.A))];
  CSSPGO_DISPATCH();
}
Op_Store: {
  const DecInst &I = *IP;
  Memory[memIndex(val(I.A))] = val(I.B);
  CSSPGO_DISPATCH();
}
Op_InstrProfIncr: {
  const DecInst &I = *IP;
  ++Result.Counters[I.CounterIdx];
  CSSPGO_DISPATCH();
}
Op_Br: {
  const DecInst &I = *IP;
  NextPC = I.Target;
  Core.jump(I, Cycles);
  CSSPGO_DISPATCH();
}
Op_CondBr: {
  const DecInst &I = *IP;
  bool Taken = (val(I.A) != 0) != I.InvertCond;
  Core.condBranch(I, Taken, Cycles);
  if (Taken)
    NextPC = I.Target;
  if (Tracing)
    Tracer.condBranch(Taken, Cycles);
  CSSPGO_DISPATCH();
}
Op_Call: {
  const DecInst &I = *IP;
  uint32_t CalleeIdx;
  uint32_t CalleeNumRegs;
  size_t CalleeEntry;
  uint64_t CalleeEntryAddr;
  uint32_t NumArgs = I.NumArgs;
  if (I.Op == Opcode::CallIndirect) {
    // Resolve through the dispatch table; out-of-range slots wrap
    // (total semantics, mirrors the generator's contract).
    uint64_t Slot = static_cast<uint64_t>(val(I.A)) % Bin.FuncTable.size();
    CalleeIdx = Bin.FuncTable[Slot];
    Core.indirectCall(I, CalleeIdx, Cycles);
    if (I.VPSlot != ~0u)
      ++VPCounts[I.VPSlot * Bin.FuncTable.size() + Slot];
    if (Tracing)
      Tracer.indirectTarget(CalleeIdx, Cycles);
    const MachineFunction &Callee = Bin.Funcs[CalleeIdx];
    CalleeNumRegs = Callee.NumRegs;
    CalleeEntry = Callee.EntryIdx;
    CalleeEntryAddr = Code[Callee.EntryIdx].Addr;
    NumArgs = std::min(NumArgs, Callee.NumParams);
  } else {
    CalleeIdx = I.CalleeIdx;
    CalleeNumRegs = I.CalleeNumRegs;
    CalleeEntry = I.Target;
    CalleeEntryAddr = I.TargetAddr;
  }
  ++Core.Counters.Calls;

  // Evaluate the arguments against the caller window before any frame
  // surgery (the register stack may reallocate or, for tail calls, the
  // window itself is about to be replaced).
  ArgBuf.clear();
  const DecOp *Args = ArgOps.data() + I.ArgsBegin;
  for (uint32_t A = 0; A != NumArgs; ++A)
    ArgBuf.push_back(val(Args[A]));

  size_t Window = CalleeNumRegs + 1;
  if (I.IsTailCall) {
    // Tail-call elimination: reuse the frame slot; the caller
    // disappears from the sampled stack. Shrink-then-grow
    // zero-initializes the fresh window (including the pad slot).
    FrameMeta &F = Frames.back();
    RegStack.resize(F.RegBase);
    RegStack.resize(F.RegBase + Window);
    for (uint32_t A = 0; A != NumArgs; ++A)
      RegStack[F.RegBase + 1 + A] = ArgBuf[A];
    F.FuncIdx = CalleeIdx;
    reloadR();
    NextPC = CalleeEntry;
    // A tail call is an unconditional jump in the binary.
    Core.takenBranch(I.Addr, CalleeEntryAddr, Cycles);
    CSSPGO_DISPATCH();
  }
  if (Frames.size() >= Config.MaxCallDepth) {
    Result.Error = "call depth limit exceeded in " + Bin.Funcs[CalleeIdx].Name;
    syncCounters();
    return finish();
  }
  size_t Base = RegStack.size();
  RegStack.resize(Base + Window);
  for (uint32_t A = 0; A != NumArgs; ++A)
    RegStack[Base + 1 + A] = ArgBuf[A];
  Frames.push_back({CalleeIdx, Base, I.RetIdx, I.RetAddr, I.Dst});
  reloadR();
  NextPC = CalleeEntry;
  Core.takenBranch(I.Addr, CalleeEntryAddr, Cycles);
  CSSPGO_DISPATCH();
}
Op_Ret: {
  const DecInst &I = *IP;
  int64_t Value = val(I.A);
  FrameMeta F = Frames.back();
  Frames.pop_back();
  RegStack.resize(F.RegBase);
  if (Frames.empty() || F.RetIdx == SIZE_MAX) {
    Result.ExitValue = Value;
    Result.Completed = true;
    syncCounters();
    return finish();
  }
  if (F.RetDst != 0)
    RegStack[Frames.back().RegBase + F.RetDst] = Value;
  reloadR();
  NextPC = F.RetIdx;
  Core.takenBranch(I.Addr, F.RetAddr, Cycles);
  CSSPGO_DISPATCH();
}
Op_PseudoProbe: {
  assert(false && "pseudo probes never lower to machine code");
  CSSPGO_DISPATCH();
}
LimitHit:
  Result.Error = "instruction limit exceeded";
  syncCounters();
  return finish();
#undef CSSPGO_DISPATCH
}

} // namespace

RunResult execute(const Binary &Bin, const std::string &Entry,
                  std::vector<int64_t> &Memory, const ExecConfig &Config) {
  FastMachine M(Bin, Memory, Config);
  return M.run(Entry);
}

} // namespace csspgo
