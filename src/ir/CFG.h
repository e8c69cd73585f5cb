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
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_IR_CFG_H
#define CSSPGO_IR_CFG_H

#include "ir/Function.h"

#include <set>
#include <unordered_map>
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
  /// not know).
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
  struct Entry {
    unsigned Order = 0; ///< Increases along the layout.
    std::vector<BasicBlock *> Preds;
  };
  std::unordered_map<const BasicBlock *, Entry> Map;
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

  bool isReachable(const BasicBlock *B) const { return Number.count(B); }

  /// True if \p A dominates \p B (every reachable block dominates itself).
  /// False when either block is unreachable.
  bool dominates(const BasicBlock *A, const BasicBlock *B) const;

private:
  std::unordered_map<const BasicBlock *, unsigned> Number; ///< RPO index.
  std::vector<unsigned> IDom; ///< By RPO index; IDom[0] = 0 (the entry).
};

/// A natural loop: header plus body blocks (header included).
struct Loop {
  BasicBlock *Header = nullptr;
  std::set<BasicBlock *> Blocks;
  /// Latch blocks: sources of back edges into the header.
  std::vector<BasicBlock *> Latches;
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
