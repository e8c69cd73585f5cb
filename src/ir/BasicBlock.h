//===- ir/BasicBlock.h - Basic block ----------------------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Basic block: an instruction sequence ending in a single terminator.
/// Blocks also carry the profile annotation (execution count and outgoing
/// edge weights) that the profile loader installs and every transformation
/// is responsible for maintaining (the "profile maintenance" component of
/// Fig. 1 in the paper).
///
/// Block numbers: Function::createBlock gives each block a number, unique
/// within its function and smaller than Function::getMaxBlockNumber(), so
/// an analysis can index a vector by it instead of hashing the pointer.
/// A block keeps its number for its lifetime; erasing a block leaves a
/// gap, and the numbers of later blocks keep growing. Numbers follow
/// creation, not layout: only renumberBlocks and Module::clone number the
/// blocks 0..n-1 in layout order.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_IR_BASICBLOCK_H
#define CSSPGO_IR_BASICBLOCK_H

#include "ir/Instruction.h"

#include <string>
#include <vector>

namespace csspgo {

class BasicBlock;
class Function;

/// A block's successors held inline: a terminator has at most two, so
/// asking for them never allocates.
class SuccessorList {
public:
  void push_back(BasicBlock *B) {
    assert(N < 2 && "a terminator has at most two successors");
    Succs[N++] = B;
  }
  unsigned size() const { return N; }
  bool empty() const { return N == 0; }
  BasicBlock *operator[](unsigned I) const {
    assert(I < N && "successor index out of range");
    return Succs[I];
  }
  BasicBlock *const *begin() const { return Succs; }
  BasicBlock *const *end() const { return Succs + N; }

private:
  BasicBlock *Succs[2] = {nullptr, nullptr};
  unsigned N = 0;
};

class BasicBlock {
public:
  BasicBlock(Function *Parent, std::string Label, unsigned Number)
      : Parent(Parent), Label(std::move(Label)), Number(Number) {}

  Function *getParent() const { return Parent; }
  const std::string &getLabel() const { return Label; }
  void setLabel(std::string L) { Label = std::move(L); }

  /// The block's number within its function (see the file comment).
  unsigned getNumber() const { return Number; }

  std::vector<Instruction> Insts;

  /// Returns the terminator, i.e. the last instruction. The block must be
  /// non-empty and well formed.
  Instruction &terminator() {
    assert(!Insts.empty() && Insts.back().isTerminator() &&
           "block has no terminator");
    return Insts.back();
  }
  const Instruction &terminator() const {
    return const_cast<BasicBlock *>(this)->terminator();
  }

  bool hasTerminator() const {
    return !Insts.empty() && Insts.back().isTerminator();
  }

  /// Returns the successor blocks in terminator order (taken target first
  /// for CondBr), one entry per edge.
  SuccessorList successors() const {
    SuccessorList Succs;
    if (!hasTerminator())
      return Succs;
    const Instruction &T = Insts.back();
    if (T.Succ0)
      Succs.push_back(T.Succ0);
    if (T.Op == Opcode::CondBr && T.Succ1)
      Succs.push_back(T.Succ1);
    return Succs;
  }

  /// Returns the number of successors the terminator's opcode has (what
  /// successors().size() is on well-formed IR).
  unsigned numSuccessors() const;

  /// Replaces every successor edge to \p From with \p To.
  void replaceSuccessor(BasicBlock *From, BasicBlock *To);

  /// Returns the first PseudoProbe instruction of the block, or nullptr.
  /// Each block gets exactly one block probe when probes are inserted.
  const Instruction *getBlockProbe() const;

  /// \name Profile annotation
  /// @{

  /// Whether a profile count has been annotated on this block.
  bool HasCount = false;
  /// Execution count from the loaded profile (after inference).
  uint64_t Count = 0;
  /// Outgoing edge weights, parallel to successors(). Empty = unknown.
  std::vector<uint64_t> SuccWeights;

  void setCount(uint64_t C) {
    Count = C;
    HasCount = true;
  }
  void clearProfile() {
    HasCount = false;
    Count = 0;
    SuccWeights.clear();
  }

  /// Returns the weight of the edge to successor index \p SuccIdx, falling
  /// back to an even split of Count when edge weights are unknown.
  uint64_t succWeight(unsigned SuccIdx) const;
  /// @}

  /// Blocks moved to the cold section by function splitting.
  bool IsColdSection = false;

private:
  friend class Function; // renumberBlocks.
  Function *Parent;
  std::string Label;
  unsigned Number;
};

} // namespace csspgo

#endif // CSSPGO_IR_BASICBLOCK_H
