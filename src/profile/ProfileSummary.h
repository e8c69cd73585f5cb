//===- profile/ProfileSummary.h - Hotness thresholds -------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Profile-summary style hotness thresholds shared by the profile loader,
/// the pre-inliner and the binary store: the hot threshold is the smallest
/// count among the hottest entries that together cover a cutoff fraction
/// of the total count mass (the same spirit as LLVM's ProfileSummaryInfo).
///
/// The count distribution is read from a ContextProfileView, flat or
/// context-sensitive, so the store writer's persisted summary and every
/// threshold come from one function. Callers holding the map containers
/// convert with flatViewOf / contextViewOf.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PROFILE_PROFILESUMMARY_H
#define CSSPGO_PROFILE_PROFILESUMMARY_H

#include "profile/ProfileArena.h"

#include <vector>

namespace csspgo {

/// Smallest count among the hottest entries covering \p Cutoff of the
/// total mass of \p Counts. Returns 1 for empty/zero inputs.
uint64_t summaryThreshold(std::vector<uint64_t> Counts, double Cutoff);

/// The count distribution hotThreshold() derives its threshold from: in a
/// CS view, each context's TotalSamples; in a flat view, the call-target
/// counts (nested inlinees included), falling back to the top-level body
/// counts for counter-keyed profiles, which record no call targets. Only
/// the multiset matters, so persisting it — the binary store's summary
/// section does — reproduces every threshold exactly without
/// materializing the profile.
std::vector<uint64_t> hotCountDistribution(const ContextProfileView &V);

/// summaryThreshold over hotCountDistribution(V): the hot-call-site
/// threshold of a flat profile, the hot-context threshold of a CS one.
uint64_t hotThreshold(const ContextProfileView &V, double Cutoff);

} // namespace csspgo

#endif // CSSPGO_PROFILE_PROFILESUMMARY_H
