//===- loader/Correlators.h - Profile correlation ---------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two correlation mechanisms of Fig. 2, plus the instrumentation one:
/// - debug-info correlation (AutoFDO): a block's weight is the MAX of the
///   per-line counts of its instructions — inherits every line-table
///   artifact the optimizer produced;
/// - probe correlation (CSSPGO): a block's weight is the count recorded
///   for its block probe id — one-to-one, checksum-guarded;
/// - counter correlation (Instr PGO): identical to probe correlation but
///   keyed by counter ids.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_LOADER_CORRELATORS_H
#define CSSPGO_LOADER_CORRELATORS_H

#include "ir/Module.h"
#include "profile/FunctionProfile.h"

#include <vector>

namespace csspgo {

/// Annotates \p Blocks from the line-keyed \p P. Only instructions whose
/// OriginGuid equals \p OriginGuid participate (inlined code correlates
/// against its own inlinee profile). Every block gets HasCount=true;
/// blocks with no matching samples get 0.
void annotateBlocksByLines(const std::vector<BasicBlock *> &Blocks,
                           const FunctionProfile &P, uint64_t OriginGuid);

/// Annotates \p Blocks from the anchor-keyed \p P (probe or counter ids).
void annotateBlocksByAnchors(const std::vector<BasicBlock *> &Blocks,
                             const FunctionProfile &P, uint64_t OriginGuid);

/// Returns the call-site profile key of call instruction \p Call under the
/// given correlation kind (line offset or call probe id).
ProfileKey callSiteKey(const Instruction &Call, ProfileKind Kind);

} // namespace csspgo

#endif // CSSPGO_LOADER_CORRELATORS_H
