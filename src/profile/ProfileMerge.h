//===- profile/ProfileMerge.h - Profile merge statistics --------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observability record of profile merges. The production workflow
/// aggregates samples from many hosts before feeding PGO; the one view
/// merge that does it (mergeContextViews in ProfileArena.h, over flat and
/// context-sensitive views alike) serves as the reduction step of sharded
/// profile generation, fleet ingestion and the store's epoch fold, and
/// reports MergeStats so the reduction is observable.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PROFILE_PROFILEMERGE_H
#define CSSPGO_PROFILE_PROFILEMERGE_H

#include <cstdint>

namespace csspgo {

/// Observability record of one merge (or a whole shard reduction when
/// accumulated with +=).
struct MergeStats {
  /// Contexts newly created in Dst (a flat function entry is a one-frame
  /// context).
  uint64_t ContextsAdded = 0;
  /// Contexts / function entries that already existed and were summed.
  uint64_t ContextsMerged = 0;
  /// Total sample counts (body incl. nested inlinees, plus head samples)
  /// accumulated into Dst.
  uint64_t CountsSummed = 0;
  /// Count slots that clamped at UINT64_MAX during the merge instead of
  /// wrapping. Nonzero means the merged profile lost magnitude at the
  /// top end — still ordered correctly, but worth surfacing.
  uint64_t SaturatedCounts = 0;

  MergeStats &operator+=(const MergeStats &O) {
    ContextsAdded += O.ContextsAdded;
    ContextsMerged += O.ContextsMerged;
    CountsSummed += O.CountsSummed;
    SaturatedCounts += O.SaturatedCounts;
    return *this;
  }
};

} // namespace csspgo

#endif // CSSPGO_PROFILE_PROFILEMERGE_H
