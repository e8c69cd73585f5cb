//===- sim/CostModel.h - Microarchitectural cost model ----------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cycle cost model of the machine simulator. PGO's payoff channels are
/// modeled explicitly so that better profiles translate into fewer cycles
/// through the same causal chain as on real hardware:
/// - taken branches cost a fetch redirect (rewards Ext-TSP layout that
///   maximizes fallthrough);
/// - a direct-mapped i-cache penalizes sparse/hot-cold-mixed code
///   (rewards selective inlining, function splitting, smaller code);
/// - a 2-bit branch predictor penalizes unbiased branches (rewards
///   if-conversion of unpredictable branches);
/// - calls/returns carry frame overhead (rewards inlining hot calls);
/// - instrumentation counter increments cost real cycles (the 73% Instr
///   PGO profiling overhead of Table I).
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_SIM_COSTMODEL_H
#define CSSPGO_SIM_COSTMODEL_H

#include "ir/Instruction.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace csspgo {

struct CostModel {
  uint32_t TakenBranchCost = 2;
  uint32_t MispredictPenalty = 14;
  uint32_t CallCost = 7; ///< Argument setup + prologue/epilogue overhead.
  uint32_t RetCost = 3;
  uint32_t ICacheMissPenalty = 24;
  uint32_t ICacheLines = 384; ///< Total lines (24 KiB at 64 B lines).
  uint32_t ICacheWays = 4;    ///< Set associativity.
  uint32_t ICacheLineBytes = 64;
  uint32_t CounterCost = 5;
  /// Modeled cost of delivering one PMU sample interrupt (charged when a
  /// sample fires). 0 keeps sampling free, matching the classic "sampling
  /// is (nearly) zero overhead" baseline; experiments that want the real
  /// overhead column set it.
  uint32_t SampleInterruptCost = 0;
  /// Modeled cost per trace byte written in the core-instruction-trace
  /// collection mode (charged as packets are emitted). Only paid when
  /// ExecConfig::Trace.Enabled.
  uint32_t TraceByteCost = 2;     ///< InstrProfIncr: inc m64 + store traffic.
  uint32_t BranchPredictorEntries = 4096;

  /// Base execution cost of \p Op in cycles.
  uint32_t baseCost(Opcode Op) const;
};

/// The microarchitectural event counts a run reports next to its cycle
/// clock and retired-instruction count (RunResult and TraceReplayResult
/// both carry them).
struct MachineCounters {
  uint64_t TakenBranches = 0;
  uint64_t CondBranches = 0;
  uint64_t CondTaken = 0;
  uint64_t UncondJumps = 0;
  uint64_t Mispredicts = 0;
  uint64_t ICacheMisses = 0;
  uint64_t Calls = 0;
  uint64_t IndirectCalls = 0;
  uint64_t IndirectMispredicts = 0;
};

/// A set-associative LRU instruction cache model.
class ICache {
public:
  explicit ICache(const CostModel &CM)
      : Ways(CM.ICacheWays ? CM.ICacheWays : 1),
        Sets(CM.ICacheLines / (CM.ICacheWays ? CM.ICacheWays : 1)),
        LineBytes(CM.ICacheLineBytes),
        Tags(static_cast<size_t>(Sets) * Ways, ~0ull),
        Age(static_cast<size_t>(Sets) * Ways, 0) {}

  /// Accesses \p Addr; returns true on miss. (An access with no absorbed
  /// streak: the lazily flushed age of the previous line equals the age
  /// an eager update would have written.)
  bool access(uint64_t Addr) {
    uint64_t Line = lineOf(Addr);
    uint64_t Pending = 0;
    return accessStreaked(Line, setOf(Line), Pending);
  }

  /// Line number of \p Addr (for precomputing access indices at decode
  /// time; code addresses are static).
  uint64_t lineOf(uint64_t Addr) const { return Addr / LineBytes; }
  /// First way slot of the set holding \p Line.
  size_t setOf(uint64_t Line) const {
    return static_cast<size_t>(Line % Sets) * Ways;
  }

  /// access() with the division folded out (\p Line and \p Set come from
  /// lineOf()/setOf(), precomputed once per static instruction), for
  /// callers that filter same-line accesses themselves (one register
  /// compare in the interpreter loop instead of a call): \p Pending is the
  /// number of consecutive accesses to the previously-accessed line the
  /// caller absorbed since the last call. Folding their clock ticks in
  /// here, before the flush and the new lookup, reproduces the eager
  /// clock sequence exactly — only the streak's final clock value ever
  /// reaches the Age array.
  bool accessStreaked(uint64_t Line, size_t Set, uint64_t &Pending) {
    Clock += Pending;
    Pending = 0;
    if (LastLine != ~0ull)
      Age[LastWay] = Clock;
    ++Clock;
    size_t Victim = Set;
    for (size_t W = Set; W != Set + Ways; ++W) {
      if (Tags[W] == Line) {
        Age[W] = Clock;
        LastLine = Line;
        LastWay = W;
        return false;
      }
      if (Age[W] < Age[Victim])
        Victim = W;
    }
    Tags[Victim] = Line;
    Age[Victim] = Clock;
    LastLine = Line;
    LastWay = Victim;
    return true;
  }

  void reset() {
    std::fill(Tags.begin(), Tags.end(), ~0ull);
    std::fill(Age.begin(), Age.end(), 0);
    LastLine = ~0ull;
    LastWay = 0;
  }

private:
  uint32_t Ways;
  uint64_t Sets;
  uint64_t LineBytes;
  std::vector<uint64_t> Tags;
  std::vector<uint64_t> Age;
  uint64_t Clock = 0;
  /// Same-line shortcut state (~0 = invalid; code addresses never reach
  /// line ~0).
  uint64_t LastLine = ~0ull;
  size_t LastWay = 0;
};

/// A table of 2-bit saturating counters for conditional branches.
class BranchPredictor {
public:
  explicit BranchPredictor(const CostModel &CM)
      : Table(CM.BranchPredictorEntries, 1) {}

  /// Predicts and updates for the branch at \p Addr; returns true if the
  /// prediction was wrong.
  bool mispredicted(uint64_t Addr, bool Taken) {
    return mispredictedAt(indexOf(Addr), Taken);
  }

  /// Table index of the branch at \p Addr (for precomputing at decode
  /// time; branch addresses are static).
  size_t indexOf(uint64_t Addr) const { return (Addr >> 1) % Table.size(); }

  /// mispredicted() with the modulo folded out.
  bool mispredictedAt(size_t Idx, bool Taken) {
    uint8_t &State = Table[Idx];
    bool Predicted = State >= 2;
    if (Taken) {
      if (State < 3)
        ++State;
    } else if (State > 0) {
      --State;
    }
    return Predicted != Taken;
  }

private:
  std::vector<uint8_t> Table;
};

} // namespace csspgo

#endif // CSSPGO_SIM_COSTMODEL_H
