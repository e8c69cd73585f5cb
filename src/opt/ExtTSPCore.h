//===- opt/ExtTSPCore.h - Ext-TSP scorer and chain solver -------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Ext-TSP layout objective and chain-merging solver (Newell &
/// Pupyrev, "Improved Basic Block Reordering"), factored out of the
/// IR-level layout pass so the post-link optimizer can score
/// reconstructed *binary* CFGs with the exact same objective. The score
/// of a layout sums, over CFG edges (s -> t) with weight w:
///   - w                          if t is placed directly after s;
///   - w * 0.1 * (1 - d / 1024)  for short forward jumps of distance d;
///   - w * 0.1 * (1 - d / 640)   for short backward jumps.
///
/// Blocks are abstract here: the caller supplies byte sizes, weighted
/// edges and the entry index; the solver returns a permutation with the
/// entry block first. ExtTSPLayout.cpp feeds it IR blocks;
/// postlink/PostLinkOptimizer.cpp feeds it disassembled machine blocks.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_OPT_EXTTSPCORE_H
#define CSSPGO_OPT_EXTTSPCORE_H

#include <cstdint>
#include <vector>

namespace csspgo {
namespace exttsp {

constexpr double ForwardWeight = 0.1;
constexpr double BackwardWeight = 0.1;
constexpr double ForwardDistance = 1024;
constexpr double BackwardDistance = 640;

/// One weighted CFG edge between block indices.
struct Edge {
  unsigned Src = 0;
  unsigned Dst = 0;
  double Weight = 0;
};

/// One layout problem: a byte size per block, the weighted edges between
/// them (parallel edges and self-loops allowed) and the entry block.
struct Instance {
  std::vector<uint64_t> Sizes;
  std::vector<Edge> Edges;
  unsigned Entry = 0;
};

/// The objective's term for one edge of weight \p Weight whose source
/// block ends at byte \p SrcEnd and whose destination begins at
/// \p DstBegin.
inline double edgeScore(uint64_t SrcEnd, uint64_t DstBegin, double Weight) {
  if (SrcEnd == DstBegin)
    return Weight;
  if (DstBegin > SrcEnd) {
    double D = static_cast<double>(DstBegin - SrcEnd);
    return D < ForwardDistance
               ? Weight * ForwardWeight * (1.0 - D / ForwardDistance)
               : 0.0;
  }
  double D = static_cast<double>(SrcEnd - DstBegin);
  return D < BackwardDistance
             ? Weight * BackwardWeight * (1.0 - D / BackwardDistance)
             : 0.0;
}

/// Ext-TSP score of placing the blocks of \p Order consecutively, summed
/// in edge order. Edges with an endpoint outside \p Order do not count.
double scoreOfOrder(const Instance &I, const std::vector<unsigned> &Order);

/// Greedy chain merging: starting from one chain per block, repeatedly
/// appends the chain pair with the largest Ext-TSP gain until one chain
/// is left, and returns it. The entry chain is only ever extended at its
/// tail, so the entry block comes first. Gains are cached per pair of
/// chains joined by an edge and recomputed only for the pairs a merge
/// touches. Ties go to the first (head, tail) pair in chain creation
/// order; when no pair gains anything, the first pair in that order is
/// merged.
std::vector<unsigned> solve(const Instance &I);

} // namespace exttsp
} // namespace csspgo

#endif // CSSPGO_OPT_EXTTSPCORE_H
