//===- tools/FuzzHarness.h - Differential profile-pipeline fuzzing -*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded differential fuzzing of the profile pipeline (the `csspgo_exp
/// fuzz` subcommand). Each iteration derives a randomized workload module
/// and sampling configuration from the iteration seed and cross-checks
/// every redundant pair the pipeline offers:
///
///  - fast-path vs reference-mode executor: bit-identical RunResults and
///    final memory images;
///  - serial vs sharded profile generation (CS and probe-only): identical
///    serialized bytes for a random shard count;
///  - ProfileVerifier at Full level (including probe-table agreement) on
///    every freshly generated profile — CS, probe-only, AutoFDO;
///  - serialize -> parse -> serialize fixpoint for both text formats;
///  - merge algebra: merging into an empty database is an identity,
///    re-merging doubles counts without creating contexts, and the result
///    still verifies;
///  - cold-context trimming is idempotent (a second trim at the same
///    threshold merges nothing and leaves the bytes unchanged) and the
///    trimmed trie still verifies;
///  - truncated profile text either fails to parse or parses to a profile
///    that is still self-consistent;
///  - stale-profile matching after a random CFG drift lands recovered
///    counts only on anchors that exist in the fresh IR;
///  - the min-cost flow solver behind profile inference reaches the test
///    oracle's optimal objective on random circulation networks, with
///    flow conserved at every node and 0 <= flow <= cap on every arc;
///  - the incremental Ext-TSP solver behind block layout returns the test
///    oracle's order, or one with a bit-equal score, on random layout
///    instances;
///  - the dominator tree and loop finder agree with the oracle's
///    set-based dominators and loops on random CFGs, and tail merge and
///    code motion print the oracle's IR there;
///  - a generated profile wrapped in 60..70 inlinee levels is accepted by
///    the text and store readers exactly when it nests at most
///    MaxInlineeNesting deep, and an accepted one round trips
///    text -> store -> text byte-identically;
///  - the interned two-phase CS generator (at a random shard count) and
///    the probe-only generator print the test oracle's string-keyed
///    profiles and count its stats, on a resampling with skid and
///    missing-frame inference drawn at random (stage 15);
///  - with one corruption of every ViolationKind planted in turn into
///    the probe-only, AutoFDO and CS profiles, the view verifier and the
///    map entry points report exactly what the oracle's map verifier
///    reports (trie shapes a view cannot carry: the map entry point
///    only), and writeStore over the view writes the oracle's map
///    writer's bytes (stage 16).
///
/// Iteration seeds are derived as Base + I * golden-ratio so a reported
/// failure reproduces in isolation with `csspgo_exp fuzz 1 <seed>`.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_TOOLS_FUZZHARNESS_H
#define CSSPGO_TOOLS_FUZZHARNESS_H

#include <cstdint>

namespace csspgo {

struct FuzzOptions {
  unsigned Iterations = 200;
  uint64_t BaseSeed = 0xC55;
  /// Print a progress line every 50 iterations.
  bool Verbose = true;
};

/// Runs the differential fuzz loop. Returns 0 when every iteration agreed
/// on every cross-check, 1 on the first divergence (after printing the
/// failing iteration's seed and a repro command line).
int runProfileFuzz(const FuzzOptions &Opts);

} // namespace csspgo

#endif // CSSPGO_TOOLS_FUZZHARNESS_H
