//===- ir/Function.h - Function ---------------------------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Function: an owned list of basic blocks (Blocks[0] is the entry; vector
/// order is also the layout order the block-placement pass edits), a
/// virtual-register frame, and PGO-related attributes (GUID, CFG checksum,
/// probe state, entry count).
///
/// The function numbers its blocks (BasicBlock::getNumber): createBlock
/// hands out the next number, the same counter that suffixes new labels,
/// so numbers stay below getMaxBlockNumber() and are not reused until
/// renumberBlocks restarts them at 0 in layout order.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_IR_FUNCTION_H
#define CSSPGO_IR_FUNCTION_H

#include "ir/BasicBlock.h"

#include <memory>
#include <string>
#include <vector>

namespace csspgo {

class Module;

class Function {
public:
  Function(Module *Parent, std::string Name, unsigned NumParams);

  Module *getParent() const { return Parent; }
  const std::string &getName() const { return Name; }
  uint64_t getGuid() const { return Guid; }
  unsigned getNumParams() const { return NumParams; }

  /// Number of virtual registers in the frame. Registers [0, NumParams) are
  /// the parameters. Grows as construction/inlining allocates registers.
  unsigned getNumRegs() const { return NumRegs; }

  /// Allocates a fresh virtual register.
  RegId allocReg() { return NumRegs++; }

  /// Ensures the frame has at least \p N registers (used by inlining when
  /// splicing a callee frame into the caller).
  void ensureRegs(unsigned N) {
    if (N > NumRegs)
      NumRegs = N;
  }

  /// Creates a new block appended to the layout order, numbered
  /// getMaxBlockNumber() (which then grows by one).
  BasicBlock *createBlock(const std::string &LabelHint);

  /// Removes \p BB from the function. The block must have no predecessors.
  void eraseBlock(BasicBlock *BB);

  BasicBlock *getEntry() const {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front().get();
  }

  /// Blocks in layout order. Entry is Blocks[0] and must stay first.
  std::vector<std::unique_ptr<BasicBlock>> Blocks;

  size_t size() const { return Blocks.size(); }

  /// \name Attributes
  /// @{
  bool NoInline = false;
  bool AlwaysInline = false;
  /// Entry point of the module (never inlined away, never dead).
  bool IsEntryPoint = false;
  /// @}

  /// \name Probe / profile state
  /// @{
  /// Next probe id to hand out; probe ids are unique within the function.
  uint32_t NextProbeId = 1;
  /// CFG checksum computed at probe-insertion time and persisted in the
  /// profile; used to detect stale profiles (§III-A "source drift").
  uint64_t ProbeCFGChecksum = 0;
  bool HasProbes = false;
  /// Number of instrumentation counters (Instr PGO).
  uint32_t NumCounters = 0;

  /// Profile-annotated entry count (set by the loader).
  bool HasEntryCount = false;
  uint64_t EntryCount = 0;
  /// @}

  /// Re-labels blocks to "<name>.bbN" making labels unique and stable, and
  /// renumbers them to N, their layout position.
  void renumberBlocks();

  /// One more than the largest block number handed out: the size of a
  /// vector indexed by block number.
  unsigned getMaxBlockNumber() const { return NextBlockId; }

  /// Returns the position of \p BB in layout order, or ~0u.
  unsigned blockIndex(const BasicBlock *BB) const;

  /// The layout position of every block, indexed by block number (size
  /// getMaxBlockNumber()); a number no block holds maps to ~0u. One pass,
  /// for callers that would otherwise call blockIndex per edge.
  std::vector<unsigned> blockPositions() const;

private:
  Module *Parent;
  std::string Name;
  uint64_t Guid;
  unsigned NumParams;
  unsigned NumRegs;
  unsigned NextBlockId = 0;
};

} // namespace csspgo

#endif // CSSPGO_IR_FUNCTION_H
