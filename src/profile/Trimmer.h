//===- profile/Trimmer.h - Cold-context trimming ----------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cold-context trimming and merging (§III-B "Scalability"). Cold functions
/// are unlikely to be inlined, so keeping context-sensitive profiles for
/// them only bloats the profile. The trimmer merges every context whose
/// samples fall below a threshold into the base (top-level) context of its
/// leaf function, making the CS profile comparable in size to a regular
/// profile without losing the benefit for hot functions.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PROFILE_TRIMMER_H
#define CSSPGO_PROFILE_TRIMMER_H

#include "profile/ContextTrie.h"

namespace csspgo {

struct TrimStats {
  size_t ContextsBefore = 0;
  size_t ContextsAfter = 0;
  size_t ContextsMerged = 0;
};

/// Merges every context with TotalSamples below \p ColdThreshold into the
/// base context of its leaf function, then erases the merged nodes.
/// \p ColdThreshold is expressed in samples; a typical value is a small
/// percentile of the total.
TrimStats trimColdContexts(ContextProfile &Profile, uint64_t ColdThreshold);

} // namespace csspgo

#endif // CSSPGO_PROFILE_TRIMMER_H
