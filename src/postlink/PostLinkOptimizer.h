//===- postlink/PostLinkOptimizer.h - BOLT-style binary rewriter -*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The post-link optimizer (ROADMAP item 2): rewrite a linked Binary using
/// an execution profile, in the mold of "BOLT: A Practical Binary
/// Optimizer for Data Centers and Beyond". The pipeline is
///
///   reconstruct CFG  ->  map profile  ->  fold / reorder / split
///                    ->  reassemble through the linker's layout
///
/// with two hard gates: the disassemble->reassemble identity round-trip
/// must hold on the input (lossless recovery), and the layout transforms
/// only run when the mapped-sample rate clears a confidence threshold —
/// moving blocks on a profile that does not describe this binary is how a
/// post-link optimizer makes things slower.
///
/// Transforms, in order:
///  - identical-code folding: functions with equal canonical instruction
///    streams (addresses and debug metadata excluded, branch targets and
///    self-calls canonicalized) keep one body; calls and the indirect-call
///    table are redirected, duplicate bodies are dropped. Profile-
///    independent, so it runs first and unconditionally.
///  - basic-block reordering: the Ext-TSP solver shared with the IR-level
///    pass (opt/ExtTSPCore.h) re-lays each hot section out along its
///    mapped edge counts.
///  - hot/cold splitting: never-executed blocks of profiled functions move
///    behind the function's cold region, shrinking the hot text the
///    i-cache model has to cover.
///
/// The output binary runs unmodified on sim/Executor and is scored by
/// CostModel — the three-way PGO / BOLT / PGO+BOLT comparison lives in
/// bench/ablation_postlink.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_POSTLINK_POSTLINKOPTIMIZER_H
#define CSSPGO_POSTLINK_POSTLINKOPTIMIZER_H

#include "postlink/BinaryCFG.h"
#include "postlink/ProfileMap.h"

#include <memory>

namespace csspgo {
namespace postlink {

struct PostLinkOptions {
  bool Fold = true;    ///< Identical-code folding.
  bool Reorder = true; ///< Ext-TSP basic-block reordering.
  bool Split = true;   ///< Hot/cold block splitting.
  /// Minimum mapped-sample rate below which the layout transforms
  /// (reorder, split) are suppressed; folding is profile-independent and
  /// unaffected.
  double MinMappedRate = 0.5;
  /// Minimum Ext-TSP score gain (relative) a proposed reordering must
  /// show over the current layout to be applied. On an already-PGO'd
  /// binary the IR-level pass has optimized the same objective with the
  /// same profile, so near-tie proposals are churn: they add synthesized
  /// branches and move code for no modeled benefit.
  double ReorderMinGain = 0.02;
  /// Blocks with mapped count <= this threshold are split out of the hot
  /// section (0 = only never-executed blocks).
  uint64_t SplitThreshold = 0;
  /// Minimum total mapped count across a function's hot blocks before
  /// splitting it: a zero-count block in a barely-sampled function is no
  /// evidence of coldness, and production inputs drift — moving a block
  /// that does run costs a taken branch plus cold-region i-cache misses.
  uint64_t SplitMinFuncCount = 16;
};

struct PostLinkStats {
  ProfileMapStats Map;
  ReassembleStats Reassemble;
  unsigned FuncsFolded = 0;    ///< Duplicate bodies dropped.
  unsigned FuncsReordered = 0; ///< Functions with a changed hot layout.
  unsigned FuncsSplit = 0;     ///< Functions that shed cold blocks.
  unsigned BlocksSplit = 0;    ///< Blocks moved to the cold region.
  bool TransformsGated = false; ///< Layout transforms suppressed (low rate).
  uint64_t TextBytesBefore = 0;
  uint64_t TextBytesAfter = 0;
};

struct PostLinkResult {
  std::unique_ptr<Binary> Bin;
  PostLinkStats Stats;
};

/// Rewrites \p Bin under \p Opts. \p Samples are the LBR samples collected
/// from running exactly this binary; \p FnProf (optional, probe-keyed)
/// fills in LBR-dark functions and \p IR (optional) enables staleness
/// detection plus matcher routing for it. Fails with a clean Status when
/// the binary cannot be reconstructed or the identity round-trip does not
/// hold — in which case the input binary should be shipped unmodified.
Expected<PostLinkResult> runPostLink(const Binary &Bin,
                                     const std::vector<PerfSample> &Samples,
                                     const FlatProfile *FnProf = nullptr,
                                     const Module *IR = nullptr,
                                     const PostLinkOptions &Opts = {});

} // namespace postlink
} // namespace csspgo

#endif // CSSPGO_POSTLINK_POSTLINKOPTIMIZER_H
