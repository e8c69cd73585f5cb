//===- codegen/MachineModule.h - Lowered machine code -----------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lowered "binary": a flat stream of machine instructions with byte
/// sizes and (after linking) byte addresses. Control flow is expressed the
/// way hardware sees it — conditional branches have one explicit taken
/// target and fall through otherwise — which is exactly the property LBR
/// sampling and range-based profile generation rely on.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_CODEGEN_MACHINEMODULE_H
#define CSSPGO_CODEGEN_MACHINEMODULE_H

#include "ir/Instruction.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace csspgo {

/// One machine instruction.
struct MInst {
  Opcode Op = Opcode::Mov;
  RegId Dst = InvalidReg;
  Operand A, B, C;
  std::vector<Operand> Args; ///< Call arguments.

  /// Call: index of the callee in Binary::Funcs.
  uint32_t CalleeIdx = ~0u;
  /// Tail calls lower to frame-replacing jumps.
  bool IsTailCall = false;

  /// CondBr: branch is taken when (cond != 0) XOR InvertCond. Fallthrough
  /// is the next instruction in layout order.
  bool InvertCond = false;

  /// Branch target as a global instruction index (CondBr taken target, Br
  /// target). -1 when not a branch.
  int64_t Target = -1;

  /// InstrProfIncr: global counter index.
  uint32_t CounterIdx = 0;

  /// Calls: the call-site id (probe id / value-site id) in the origin
  /// function's numbering; 0 when no anchors were inserted.
  uint32_t CallSiteId = 0;

  uint8_t Size = 0;   ///< Encoded size in bytes.
  uint64_t Addr = 0;  ///< Byte address (assigned by the linker).

  /// \name Symbolization metadata
  /// @{
  DebugLoc DL;
  uint64_t OriginGuid = 0; ///< Function owning DL's line numbering.
  /// Index into MachineFunction::InlineTable (0 = not inlined).
  uint32_t InlineId = 0;
  /// @}
};

/// A probe metadata record: probe (Guid, Id) attached to the instruction at
/// InstIdx (global index; address resolves after linking).
struct ProbeRecord {
  uint64_t Guid = 0;
  uint32_t ProbeId = 0;
  uint32_t InlineId = 0; ///< Inline context of the probe (function-local table).
  uint32_t FuncIdx = 0;  ///< Function whose InlineTable InlineId refers to.
  size_t InstIdx = 0;
  bool IsCallProbe = false;
};

/// Per-function info in the linked binary.
struct MachineFunction {
  std::string Name;
  uint64_t Guid = 0;
  uint32_t NumParams = 0;
  uint32_t NumRegs = 0;

  /// Global instruction index ranges. Hot part is [HotBegin, HotEnd);
  /// the split cold part is [ColdBegin, ColdEnd) (empty if not split).
  size_t HotBegin = 0, HotEnd = 0;
  size_t ColdBegin = 0, ColdEnd = 0;

  /// Entry instruction (global index) — first instruction of the hot part.
  size_t EntryIdx = 0;

  /// Unique inline stacks referenced by this function's instructions.
  /// Index 0 is always the empty stack.
  std::vector<std::vector<InlineFrame>> InlineTable;

  /// Instrumentation counters owned by this function occupy the global
  /// counter range [CounterBase + 1, CounterBase + NumCounters].
  uint32_t CounterBase = 0;
  uint32_t NumCounters = 0;

  bool containsIdx(size_t Idx) const {
    return (Idx >= HotBegin && Idx < HotEnd) ||
           (Idx >= ColdBegin && Idx < ColdEnd);
  }
};

/// The linked program image.
class Binary {
public:
  std::vector<MInst> Code;
  std::vector<MachineFunction> Funcs;
  std::vector<ProbeRecord> Probes;

  /// Symbol names from debug info / probe descriptors: covers functions
  /// whose standalone body was removed but whose inlined copies remain.
  std::map<uint64_t, std::string> DebugNames;

  /// Indirect-call dispatch table: slot -> function index in Funcs.
  std::vector<uint32_t> FuncTable;

  /// Total number of instrumentation counters (Instr PGO).
  uint32_t NumCounters = 0;

  /// Counter ownership: origin-function guid -> (global base, count).
  /// Counters are keyed by their *origin* function so clones inlined into
  /// other functions keep incrementing the origin's counters.
  std::map<uint64_t, std::pair<uint32_t, uint32_t>> CounterOwners;

  /// Base address of the text section.
  static constexpr uint64_t BaseAddr = 0x400000;

  /// Returns the function index containing global instruction \p Idx,
  /// or ~0u. O(1): buildAddrIndex records the owner of every instruction.
  uint32_t funcIndexOf(size_t Idx) const;

  /// Returns the global instruction index at byte address \p Addr (must be
  /// the start of an instruction), or SIZE_MAX.
  size_t indexOfAddr(uint64_t Addr) const;

  /// Text-section size in bytes.
  uint64_t textSize() const;

  /// Looks a function up by name; returns ~0u when absent.
  uint32_t funcIndexByName(const std::string &Name) const;

  /// Returns the full inlined frame stack for instruction \p Idx:
  /// outermost frame first; the last element is (OriginGuid, DL). Each
  /// entry is (function guid, location within that function).
  struct SymFrame {
    uint64_t Guid = 0;
    DebugLoc Loc;
    uint32_t CallProbeId = 0; ///< Call-site probe for non-leaf frames.
    bool operator==(const SymFrame &O) const {
      return Guid == O.Guid && Loc == O.Loc && CallProbeId == O.CallProbeId;
    }
  };
  std::vector<SymFrame> symbolize(size_t Idx) const;

  /// Rebuilds the address -> index and index -> function lookup tables;
  /// the linker calls this after assigning addresses.
  void buildAddrIndex();

private:
  std::vector<uint64_t> SortedAddrs; ///< Parallel to Code (layout order).
  std::vector<uint32_t> FuncOfIdx;   ///< Parallel to Code; ~0u = no owner.
};

} // namespace csspgo

#endif // CSSPGO_CODEGEN_MACHINEMODULE_H
