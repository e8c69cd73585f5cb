//===- sim/MachineCore.h - Shared machine timing and PMU model --*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-instruction machine model every simulated run goes through,
/// written once: the live interpreter (sim/Executor.cpp) drives it with
/// register values, the trace replayer (trace/TraceDecoder.cpp) drives it
/// with packet-decoded control flow. Both therefore charge the same cycles
/// and synthesize the same PerfSample stream by construction. The core
/// owns
///  - predecode of the static per-instruction data (base cost, i-cache
///    line and set, predictor index, branch/return target addresses, the
///    dense indirect-BTB slot), validating every branch target and callee
///    index once;
///  - cost charging through the streaked ICache, the BranchPredictor and
///    the per-site indirect BTB;
///  - the LBR ring and the sampler (period, skid, zero-skid delivery,
///    interrupt cost) with allocation-free stack capture.
///
/// Machines keep the cycle clock themselves and pass it by reference, so
/// the interpreter's clock stays register-resident and the replayer can
/// gate the sampler on a different clock than the one its TSC checks use.
///
/// The reference interpreter in tests/oracle/ deliberately does not use
/// this header: it is the independent oracle the equivalence suites
/// compare the core against.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_SIM_MACHINECORE_H
#define CSSPGO_SIM_MACHINECORE_H

#include "codegen/MachineModule.h"
#include "sim/CostModel.h"
#include "sim/Sampler.h"
#include "support/Random.h"
#include "support/Status.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace csspgo {

class MachineCore {
public:
  /// The static per-instruction data predecode() fills. A machine with its
  /// own record layout (the interpreter packs its hot fields into one
  /// cache line) declares the same members and predecodes into that.
  struct Inst {
    Opcode Op = Opcode::Mov;
    bool IsTailCall = false;
    uint32_t BaseCost = 0;
    uint32_t ICSet = 0;
    uint64_t ICLine = 0;
    uint32_t BPIdx = 0;
    /// Indirect calls: dense BTB slot.
    uint32_t BTBSlot = ~0u;
    uint64_t Addr = 0;
    /// Br/CondBr taken target; direct calls: callee entry index.
    size_t Target = 0;
    /// Address of the instruction at Target.
    uint64_t TargetAddr = 0;
    /// Direct calls.
    uint32_t CalleeIdx = ~0u;
    /// Calls: resume point in the caller and its address (0 past the end
    /// of code).
    size_t RetIdx = SIZE_MAX;
    uint64_t RetAddr = 0;
  };

  /// Same-line i-cache streak: the last line fetched and the number of
  /// further fetches from it not yet folded into the cache's LRU clock.
  /// Machines keep it in locals so the hot loop stays register-resident.
  struct ICStreak {
    uint64_t Line = ~0ull;
    uint64_t Pending = 0;
  };

  MachineCore(const Binary &Bin, const CostModel &Costs,
              const SamplerConfig &Sampler, uint64_t MaxInstructions)
      : Bin(Bin), Costs(Costs), Sampler(Sampler), Cache(Costs),
        Predictor(Costs), Ring(Sampler.LBRDepth), Jitter(Sampler.Seed),
        NextSampleAt(Sampler.PeriodCycles) {
    // Expected sample count if the run hits the instruction cap (cycles
    // >= instructions, so this slightly overshoots), clamped so a huge
    // cap cannot balloon memory.
    if (Sampler.Enabled && Sampler.PeriodCycles)
      Samples.reserve(static_cast<size_t>(std::min<uint64_t>(
          MaxInstructions / Sampler.PeriodCycles, 1u << 16)));
  }

  /// Predecodes Bin.Code into \p Out (one record per instruction, so
  /// branch targets keep their global indices) and sizes the indirect BTB.
  /// \p Fill(Idx, MInst, Record) adds the machine's own fields in the same
  /// pass, after the instruction validated. Fails on a malformed binary: a
  /// branch target, direct callee or dispatch-table entry out of range.
  template <class InstT, class FillFn>
  Status predecode(std::vector<InstT> &Out, FillFn &&Fill) {
    const size_t N = Bin.Code.size();
    for (uint32_t Callee : Bin.FuncTable)
      if (!validCallee(Callee))
        return malformed("function table names function " +
                         std::to_string(Callee));
    Out.resize(N);
    uint32_t NumBTBSlots = 0;
    for (size_t Idx = 0; Idx != N; ++Idx) {
      const MInst &M = Bin.Code[Idx];
      InstT &D = Out[Idx];
      D.Op = M.Op;
      D.IsTailCall = M.IsTailCall;
      D.BaseCost = Costs.baseCost(M.Op);
      D.Addr = M.Addr;
      D.ICLine = Cache.lineOf(M.Addr);
      D.ICSet = static_cast<uint32_t>(Cache.setOf(D.ICLine));
      D.BPIdx = static_cast<uint32_t>(Predictor.indexOf(M.Addr));
      switch (M.Op) {
      case Opcode::Br:
      case Opcode::CondBr:
        if (M.Target < 0 || static_cast<uint64_t>(M.Target) >= N)
          return malformed("instruction " + std::to_string(Idx) +
                           " branches to " + std::to_string(M.Target));
        D.Target = static_cast<size_t>(M.Target);
        D.TargetAddr = Bin.Code[D.Target].Addr;
        break;
      case Opcode::Call:
      case Opcode::CallIndirect:
        if (M.Op == Opcode::Call) {
          if (!validCallee(M.CalleeIdx))
            return malformed("instruction " + std::to_string(Idx) +
                             " calls function " +
                             std::to_string(M.CalleeIdx));
          D.CalleeIdx = M.CalleeIdx;
          D.Target = Bin.Funcs[M.CalleeIdx].EntryIdx;
          D.TargetAddr = Bin.Code[D.Target].Addr;
        } else {
          if (Bin.FuncTable.empty())
            return malformed("indirect call without a function table");
          D.BTBSlot = NumBTBSlots++;
        }
        D.RetIdx = Idx + 1;
        D.RetAddr = Idx + 1 < N ? Bin.Code[Idx + 1].Addr : 0;
        break;
      default:
        break;
      }
      Fill(Idx, M, D);
    }
    BTB.assign(NumBTBSlots, 0);
    return Status();
  }
  template <class InstT> Status predecode(std::vector<InstT> &Out) {
    return predecode(Out, [](size_t, const MInst &, InstT &) {});
  }

  /// True if function \p Idx exists and enters inside the code (a body
  /// dropped by identical-code folding keeps its record but not its code).
  bool validCallee(uint64_t Idx) const {
    return Idx < Bin.Funcs.size() &&
           Bin.Funcs[Idx].EntryIdx < Bin.Code.size();
  }

  /// Charges one retired instruction's base cost and i-cache fetch.
  /// Fetches from the streak's line only bump the streak; their LRU clock
  /// ticks are folded in at the next line change (ICache::accessStreaked).
  template <class InstT>
  void fetch(const InstT &I, uint64_t &Cycles, ICStreak &S) {
    Cycles += I.BaseCost;
    if (I.ICLine == S.Line) {
      ++S.Pending;
      return;
    }
    S.Line = I.ICLine;
    if (Cache.accessStreaked(S.Line, I.ICSet, S.Pending)) {
      ++Counters.ICacheMisses;
      Cycles += Costs.ICacheMissPenalty;
    }
  }

  /// A taken control transfer: LBR record plus the fetch redirect.
  void takenBranch(uint64_t Src, uint64_t Dst, uint64_t &Cycles) {
    Ring.record(Src, Dst);
    ++Counters.TakenBranches;
    Cycles += Costs.TakenBranchCost;
  }

  /// An unconditional jump (Br) to its predecoded target.
  template <class InstT> void jump(const InstT &I, uint64_t &Cycles) {
    ++Counters.UncondJumps;
    takenBranch(I.Addr, I.TargetAddr, Cycles);
  }

  /// A conditional branch resolved to \p Taken. Returns true if the
  /// predictor missed it.
  template <class InstT>
  bool condBranch(const InstT &I, bool Taken, uint64_t &Cycles) {
    ++Counters.CondBranches;
    bool Missed = Predictor.mispredictedAt(I.BPIdx, Taken);
    if (Missed) {
      ++Counters.Mispredicts;
      Cycles += Costs.MispredictPenalty;
    }
    if (Taken) {
      ++Counters.CondTaken;
      takenBranch(I.Addr, I.TargetAddr, Cycles);
    }
    return Missed;
  }

  /// An indirect call dispatched to \p CalleeIdx: last-target BTB
  /// prediction per call site. This is the channel indirect-call
  /// promotion pays through — promoted sites become direct calls and stop
  /// missing.
  template <class InstT>
  void indirectCall(const InstT &I, uint32_t CalleeIdx, uint64_t &Cycles) {
    ++Counters.IndirectCalls;
    uint64_t Entry = Bin.Funcs[CalleeIdx].EntryIdx + 1;
    uint64_t &Last = BTB[I.BTBSlot];
    if (Last != Entry) {
      ++Counters.IndirectMispredicts;
      ++Counters.Mispredicts;
      Cycles += Costs.MispredictPenalty;
      Last = Entry;
    }
  }

  /// The sampler gate state, for machines that mirror it in registers.
  uint64_t nextSampleAt() const { return NextSampleAt; }
  uint32_t skidCountdown() const { return SkidCountdown; }

  /// Runs the PMU at instruction \p PC against \p Clock: delivers a
  /// pending skidded sample whose delay has elapsed, and when \p Clock
  /// reaches the next sample point, arms the next one, charges the
  /// interrupt cost to \p Clock and takes (or, with skid, starts) a
  /// sample. \p Frames is the machine's call stack, outermost first; each
  /// frame has RetIdx (SIZE_MAX for the outermost) and RetAddr.
  template <class FrameVec>
  void maybeSample(size_t PC, uint64_t &Clock, const FrameVec &Frames) {
    if (!Sampler.Enabled || (SkidCountdown == 0 && Clock < NextSampleAt))
      return;
    if (SkidCountdown > 0 && --SkidCountdown == 0)
      deliverPending(PC, Frames);
    if (Clock < NextSampleAt)
      return;
    NextSampleAt = Clock + Sampler.PeriodCycles;
    // The PMU interrupt itself costs cycles (modeled perturbation; 0 by
    // default). Charged after the next-sample point is armed so the
    // sampling period is unperturbed.
    Clock += Costs.SampleInterruptCost;
    if (Sampler.Precise) {
      Samples.emplace_back();
      PerfSample &S = Samples.back();
      Ring.snapshotInto(S.LBR);
      captureStack(PC, Frames, S.Stack);
      return;
    }
    // Imprecise: LBR now, stack after a short skid. If a sample is already
    // pending, drop the new one (PMU interrupts do not nest).
    if (SkidCountdown > 0)
      return;
    Ring.snapshotInto(Pending.LBR);
    if (Sampler.MaxSkidInstructions == 0) {
      // Zero skid: deliver at this instruction (Rng::nextBelow(0) is
      // invalid — there is no skid to draw).
      deliverPending(PC, Frames);
      return;
    }
    SkidCountdown = 1 + Jitter.nextBelow(Sampler.MaxSkidInstructions);
  }

  /// Copies the event counters into \p R and moves the samples there.
  template <class ResultT> void finishInto(ResultT &R) {
    static_cast<MachineCounters &>(R) = Counters;
    R.Samples = std::move(Samples);
  }

  /// Event counts charged so far. Machines count Calls themselves (a
  /// call that hits the depth limit counts but never branches).
  MachineCounters Counters;

private:
  static Status malformed(const std::string &What) {
    return Status::error("malformed binary: " + What);
  }

  /// Leaf-first stack: the sampled PC, then the return addresses of the
  /// frames below. Writes into \p Out, reusing its storage.
  template <class FrameVec>
  void captureStack(size_t PC, const FrameVec &Frames,
                    std::vector<uint64_t> &Out) const {
    Out.clear();
    Out.push_back(Bin.Code[PC].Addr);
    for (size_t I = Frames.size(); I-- > 0;)
      if (Frames[I].RetIdx != SIZE_MAX)
        Out.push_back(Frames[I].RetAddr);
  }

  template <class FrameVec>
  void deliverPending(size_t PC, const FrameVec &Frames) {
    captureStack(PC, Frames, Pending.Stack);
    Samples.push_back(std::move(Pending));
    Pending.LBR.clear();
    Pending.Stack.clear();
  }

  const Binary &Bin;
  const CostModel Costs;
  const SamplerConfig Sampler;
  ICache Cache;
  BranchPredictor Predictor;
  std::vector<uint64_t> BTB;
  LBRRing Ring;
  Rng Jitter;
  std::vector<PerfSample> Samples;
  PerfSample Pending;
  uint64_t NextSampleAt;
  uint32_t SkidCountdown = 0;
};

} // namespace csspgo

#endif // CSSPGO_SIM_MACHINECORE_H
