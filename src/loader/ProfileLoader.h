//===- loader/ProfileLoader.h - Sample profile loader ------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sample-profile loader: correlates a profile onto pristine IR,
/// annotates block counts and entry counts, performs the *top-down*
/// profile-guided inlining the paper argues for (replaying profiled-binary
/// inlining for flat profiles; descending the context trie and honoring
/// pre-inliner decisions for context-sensitive profiles), and detects
/// stale probe profiles via CFG checksums.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_LOADER_PROFILELOADER_H
#define CSSPGO_LOADER_PROFILELOADER_H

#include "ir/Module.h"
#include "matcher/StaleMatcher.h"
#include "profile/ContextTrie.h"
#include "profile/FunctionProfile.h"
#include "support/Status.h"
#include "verify/ProfileVerifier.h"

#include <string>
#include <vector>

namespace csspgo {

struct LoaderOptions {
  /// Call-site count at/above which the loader inlines. 0 = derive a
  /// ProfileSummary-style threshold from the profile.
  uint64_t HotCallsiteThreshold = 0;
  /// Fraction of total call/context mass considered hot when deriving the
  /// threshold (LLVM's hot-count cutoff is similar in spirit).
  double HotCutoff = 0.9;
  /// Callee size cap (code instructions) for loader inlining.
  unsigned MaxInlineSize = 140;
  /// Replay inline decisions recorded in the profile (nested inlinee
  /// profiles / ShouldBeInlined contexts).
  bool ReplayInlining = true;
  /// For CS loading: also inline hot contexts the pre-inliner did not
  /// mark (used when the pre-inliner is disabled in ablations).
  bool InlineHotContexts = true;
  /// Promote dominant indirect-call targets to guarded direct calls
  /// (indirect-call promotion). Requires call-target records: exact value
  /// profiles for Instr PGO, LBR-observed targets for sampling PGO.
  bool PromoteIndirectCalls = true;
  /// Minimum share of a site's calls the dominant target needs.
  double ICPDominance = 0.5;
  /// Recover stale profiles by anchor matching (src/matcher) instead of
  /// dropping them. Probe profiles are matched on a CFG-checksum
  /// mismatch; line-based profiles on drifted call anchors (they are
  /// never dropped — a failed line match falls back to the profile
  /// as-is, AutoFDO's historical behavior).
  bool RecoverStaleProfiles = true;
  /// Confidence below which a matcher-recovered probe profile is still
  /// dropped (forwarded to MatcherConfig::MinConfidence).
  double StaleMatchMinConfidence = 0.5;
  /// Self-consistency verification of the input profile before loading
  /// (count conservation, head/call-edge conservation; see
  /// verify/ProfileVerifier.h). The loader only *records* violations in
  /// LoaderStats — it never rejects the profile, since a stale-but-usable
  /// profile is routinely fed here on purpose. Probe-table agreement is
  /// not checked (the input may legitimately predate the current build).
  VerifyLevel Verify = VerifyLevel::Summary;
  /// Include the cross-function head/call-edge conservation check in that
  /// verification. Lazy store loads turn this off: a module-scoped subset
  /// legitimately cuts edges into functions that were not materialized
  /// (same reasoning as the fuzz harness's truncated-profile stage).
  bool VerifyCrossEdges = true;
};

/// One stale-profile matching attempt (per function; CS profiles record
/// one entry per distinct stale function, not per context).
struct StaleMatchRecord {
  std::string Name;
  MatchStats Stats;
};

/// Deepest inline replay the loader performs below a function (flat
/// inlinee profiles and CS context levels alike): replaying at depth
/// MaxInlineReplayDepth + 1 stops, and LoaderStats::ReplayDepthCapped
/// counts each stop that leaves sampled levels behind.
constexpr int MaxInlineReplayDepth = 8;

struct LoaderStats {
  unsigned FunctionsAnnotated = 0;
  /// Checksum-mismatched profiles dropped (matcher off, match rejected,
  /// or below confidence). Counted per mismatch site, as before.
  unsigned StaleDropped = 0;
  /// Distinct stale functions the matcher recovered and the loader
  /// applied. Deduplicated per function: a function whose recovered
  /// profile is applied both top-level and at inline sites (or that was
  /// both matched and store-materialized) counts once, matching the CS
  /// pre-pass accounting.
  unsigned StaleMatched = 0;
  /// Call-site anchors the matcher aligned across applied recoveries.
  uint64_t StaleAnchorsMatched = 0;
  /// Body samples carried over to fresh keys across applied recoveries.
  uint64_t StaleCountsRecovered = 0;
  /// Per-function matching attempts (accepted and rejected).
  std::vector<StaleMatchRecord> StaleMatches;
  unsigned InlinedCallsites = 0;
  /// Inline replays that MaxInlineReplayDepth stopped while nested
  /// inlinee profiles (or child contexts) with samples remained, so those
  /// samples were not replayed inline.
  unsigned ReplayDepthCapped = 0;
  unsigned PromotedIndirectCalls = 0;
  uint64_t HotThresholdUsed = 0;
  /// Store-backed loads: functions materialized from the binary store, and
  /// store functions skipped because the module has no function of that
  /// name (the lazy-loading payoff).
  unsigned StoreFunctionsMaterialized = 0;
  unsigned StoreFunctionsSkipped = 0;
  /// Invariant violations the pre-load verification found in the input
  /// profile (0 when LoaderOptions::Verify is Off).
  uint64_t VerifyViolations = 0;
  /// First recorded violation, for diagnostics ("where: message").
  std::string VerifyFirst;
};

/// Loads a flat profile (AutoFDO line-based, probe-only, or Instr
/// counter-based — selected by \p Profile.Kind plus \p IsInstr).
LoaderStats loadFlatProfile(Module &M, const FlatProfile &Profile,
                            bool IsInstr, const LoaderOptions &Opts = {});

/// Loads a context-sensitive probe-based profile.
LoaderStats loadContextProfile(Module &M, const ContextProfile &Profile,
                               const LoaderOptions &Opts = {});

class ProfileStore;

/// Loads from a binary profile store (store/ProfileStore.h), flat or
/// context-sensitive and exact- or sampled-count as the store's flags
/// say. Lazy mode — the build-job default — materializes only the store
/// functions \p M actually contains, seeking each through the store's
/// per-function index; eager mode materializes everything first (tools /
/// analyses that want the whole database). Either way the hot threshold
/// comes from the store's persisted summary distribution, so lazy, eager,
/// and text-based loads of the same profile annotate bit-identically.
/// Compact-name stores are resolved against \p M before loading. A decode
/// failure surfaces as an error Status (the long-lived service skips the
/// epoch and reports, instead of dying).
Expected<LoaderStats> loadProfileFromStore(Module &M, ProfileStore &Store,
                                           const LoaderOptions &Opts = {},
                                           bool Lazy = true);

} // namespace csspgo

#endif // CSSPGO_LOADER_PROFILELOADER_H
