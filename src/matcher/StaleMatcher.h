//===- matcher/StaleMatcher.h - Stale-profile matching ----------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stale-profile matching: when a profile no longer correlates with the
/// current IR (probe CFG checksum mismatch after a CFG-changing source
/// edit, or line-based call anchors that drifted), recover the profile by
/// anchor alignment instead of dropping it.
///
/// The algorithm follows Meta's "Stale Profile Matching" (Ayupov,
/// Panchenko, Pupyrev) and LLVM's SampleProfileMatcher / BOLT's
/// StaleMatcher:
///
///  1. Extract an ordered **anchor sequence** from both sides. Call sites
///     are the strong anchors — they carry a callee name that survives
///     most edits. The stale side reads them from the profile's
///     call-target and inlinee records; the fresh side walks the
///     probe-decorated (or line-annotated) IR.
///  2. Align the two call-anchor sequences with an LCS dynamic program
///     whose equality test is callee-name intersection. It is exact at
///     every size: there is no cutoff and no fallback matcher.
///  3. Derive a stale→fresh key remapping: matched anchors map exactly;
///     every other key shifts by the delta of the nearest preceding
///     matched anchor, guarded so it neither crosses the next anchor nor
///     (for probe profiles) lands on a key of the wrong kind (block
///     probe vs call probe).
///  4. Rewrite body counts, call targets and nested inlinee profiles
///     through the remapping, recursing into inlinees against their
///     callee's fresh IR, and stamp the recovered profile with the fresh
///     checksum. The recursion is as deep as the profile's inlinee
///     nesting, which the profile readers bound at MaxInlineeNesting.
///
/// Per-function MatchStats report how much was recovered; a confidence
/// threshold decides whether the recovered profile is applied or the
/// stale one is still dropped.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_MATCHER_STALEMATCHER_H
#define CSSPGO_MATCHER_STALEMATCHER_H

#include "ir/Module.h"
#include "profile/ContextTrie.h"
#include "profile/FunctionProfile.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace csspgo {

struct MatcherConfig {
  /// Minimum confidence (recovered body-sample fraction) at which a
  /// recovered profile is applied; below it the stale profile is dropped
  /// exactly as without the matcher.
  double MinConfidence = 0.5;
};

/// Per-function (or per-context) record of one matching attempt.
struct MatchStats {
  /// Stale call-site anchors considered (including recursed inlinees).
  unsigned AnchorsTotal = 0;
  /// Anchors the LCS aligned to a fresh key.
  unsigned AnchorsMatched = 0;
  /// Body samples in the stale profile (including recursed inlinees).
  uint64_t SamplesTotal = 0;
  /// Body samples carried over to fresh keys.
  uint64_t SamplesRecovered = 0;
  /// SamplesRecovered / SamplesTotal (anchor fraction when sample-free).
  double Confidence = 0;
  /// Whether Confidence cleared MatcherConfig::MinConfidence.
  bool Accepted = false;
};

struct MatchResult {
  FunctionProfile Recovered;
  MatchStats Stats;
};

/// Matches the stale \p P against the fresh IR of \p F and returns the
/// recovered profile plus stats. \p Kind selects the anchor space (probe
/// ids or line offsets); \p M resolves callees for inlinee recursion.
/// The recovered profile carries F's checksum, so downstream staleness
/// checks and merges treat it as fresh.
MatchResult matchStaleProfile(const FunctionProfile &P, const Function &F,
                              const Module &M, ProfileKind Kind,
                              const MatcherConfig &Cfg = {});

/// Staleness detection for line-based profiles, which carry no CFG
/// checksum: true when any call anchor of \p P (a line key plus callee
/// names) has no identically-keyed call to one of those callees in \p F.
/// Profiles collected on the same source always pass, so this never
/// triggers matching on non-drifted loads.
bool lineProfileLooksStale(const FunctionProfile &P, const Function &F);

/// Aggregate result of matching a whole context trie.
struct ContextMatchSummary {
  /// Functions whose contexts were recovered / left stale (low confidence).
  unsigned FunctionsMatched = 0;
  unsigned FunctionsBelowConfidence = 0;
  /// Trie nodes rewritten into the fresh key space.
  unsigned ContextsRemapped = 0;
  /// Subtrees dropped because they hang off a call site that no longer
  /// exists (their site key did not survive the remap).
  unsigned ContextsDropped = 0;
  uint64_t AnchorsMatched = 0;
  uint64_t CountsRecovered = 0;
  /// Per-function records (one per distinct stale function).
  std::vector<std::pair<std::string, MatchStats>> PerFunction;
};

/// Matches every stale context of \p CS against \p M. One remapping is
/// computed per function from the *merged* anchor view of all its stale
/// contexts (every context of a function shares the profiled binary's
/// probe-id space), then applied node by node, re-keying child edges
/// through the owning function's remap. Returns a corrected copy of the
/// trie, or nullptr when no context is stale. Functions below the
/// confidence threshold keep their stale nodes unchanged, so the loader
/// drops them exactly as before.
std::unique_ptr<ContextProfile>
matchContextProfile(const ContextProfile &CS, const Module &M,
                    const MatcherConfig &Cfg, ContextMatchSummary &Summary);

} // namespace csspgo

#endif // CSSPGO_MATCHER_STALEMATCHER_H
