//===- ir/CFG.h - CFG utilities ---------------------------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CFG analyses shared by the optimizer: predecessor lists that passes keep
/// current as they edit edges, reverse post order, an index-based
/// dominator tree, natural-loop detection (back edges to a block that
/// dominates the source) and unreachable-block removal.
///
/// Every analysis here keys blocks by their number (BasicBlock::getNumber)
/// in vectors sized Function::getMaxBlockNumber(), never by pointer in a
/// hash container, and keeps that scratch in the call or the analysis
/// object, so analyses of different functions can run on different
/// threads. They assume that every block passed to them belongs to the
/// function they were built on, and that a block created after the
/// analysis has a number at or above the size it recorded (true of
/// createBlock): such a block reads as unreachable to a DominatorTree and
/// as unknown to a PredecessorMap until addBlock registers it.
/// renumberBlocks invalidates every live analysis of the function. The
/// orders they return come from the layout and the successor order, never
/// from numbers (Loop::Blocks, a set, is the one list kept by number), so
/// the same CFG under other numbers gives the same results.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_IR_CFG_H
#define CSSPGO_IR_CFG_H

#include "ir/Function.h"

#include <vector>

namespace csspgo {

/// The predecessors of every block of a function, one entry per edge (a
/// CondBr with both targets equal contributes two), each list in layout
/// order, as a rebuild would list them. A pass that edits the CFG keeps it
/// current by bracketing each edit of a block's terminator with
/// detachSuccessors / attachSuccessors instead of rebuilding it. Layout
/// order stays well defined because passes only append and erase blocks.
class PredecessorMap {
public:
  explicit PredecessorMap(Function &F);

  /// Predecessors of \p B in layout order (empty for a block the map does
  /// not know). The reference lasts until the next addBlock.
  const std::vector<BasicBlock *> &operator[](const BasicBlock *B) const;

  /// Removes \p B's edges from its successors' lists. Call before editing
  /// \p B's terminator.
  void detachSuccessors(const BasicBlock *B);
  /// Adds \p B's edges to its successors' lists, at \p B's layout
  /// position. Call after editing \p B's terminator.
  void attachSuccessors(BasicBlock *B);
  /// Registers \p B, just appended to the layout, with no edges yet.
  void addBlock(const BasicBlock *B);
  /// Detaches \p B's edges and forgets \p B. Call before erasing it.
  void eraseBlock(const BasicBlock *B);

private:
  static constexpr unsigned Unknown = ~0u;
  struct Entry {
    unsigned Order = Unknown; ///< Increases along the layout.
    std::vector<BasicBlock *> Preds;
  };
  /// The entry of a block the map knows, or nullptr.
  Entry *find(const BasicBlock *B);
  std::vector<Entry> Entries; ///< By block number.
  unsigned NextOrder = 0;
};

/// Returns blocks in reverse post order from the entry (unreachable blocks
/// excluded).
std::vector<BasicBlock *> reversePostOrder(Function &F);

/// The dominator tree of the blocks reachable from the entry: one
/// immediate dominator per block, indexed by reverse-post-order number and
/// computed by the Cooper-Harvey-Kennedy iteration.
class DominatorTree {
public:
  explicit DominatorTree(Function &F);

  bool isReachable(const BasicBlock *B) const {
    return rpoNumber(B) != Unreachable;
  }

  /// True if \p A dominates \p B (every reachable block dominates itself).
  /// False when either block is unreachable.
  bool dominates(const BasicBlock *A, const BasicBlock *B) const;

private:
  static constexpr unsigned Unreachable = ~0u;
  unsigned rpoNumber(const BasicBlock *B) const {
    unsigned N = B->getNumber();
    return N < RPONumber.size() ? RPONumber[N] : Unreachable;
  }
  /// RPO index by block number; Unreachable for blocks off the tree.
  std::vector<unsigned> RPONumber;
  std::vector<unsigned> IDom; ///< By RPO index; IDom[0] = 0 (the entry).
};

/// A natural loop: header plus body blocks (header included).
struct Loop {
  BasicBlock *Header = nullptr;
  /// The body, header included, in ascending block number. A block
  /// created after findLoops has the largest number yet, so appending it
  /// keeps the order.
  std::vector<BasicBlock *> Blocks;
  /// Latch blocks: sources of back edges into the header.
  std::vector<BasicBlock *> Latches;

  /// True if \p B is in the body (a binary search by block number).
  bool contains(const BasicBlock *B) const;
};

/// Finds natural loops (merging loops that share a header). Loops come in
/// the layout order of their first back edge's source; latches in layout
/// order of the back edges. A body holds every block that reaches a latch
/// without passing the header, unreachable predecessors included.
std::vector<Loop> findLoops(Function &F);

/// Removes blocks unreachable from the entry. Returns true if changed.
/// When \p Preds is given, it is kept current.
bool removeUnreachableBlocks(Function &F, PredecessorMap *Preds = nullptr);

} // namespace csspgo

#endif // CSSPGO_IR_CFG_H
