//===- profgen/ProfileGenerator.h - Unified profgen facade ------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single entry point for profile generation — our llvm-profgen
/// binary's API face. One options struct selects the generator kind
/// (context-sensitive CSSPGO, probe-only flat, AutoFDO, instrumentation)
/// and the knobs shared across them; one result struct carries the profile
/// plus the generation stats, so stats are never silently dropped the way
/// an optional out-param allows.
///
/// Shardable kinds (CS and ProbeOnly — both pure sums over samples)
/// honor Parallelism by partitioning the sample vector and reducing
/// per-shard views (ShardedProfGen); the result is bit-identical to the
/// serial path for any shard count. Their reduced view is verified once
/// and converted to the result's map once. AutoFDO takes the MAX over
/// per-address counts (§III-A's one-to-many heuristic), which does not
/// distribute over a partition of the samples, and instrumentation counts
/// arrive pre-aggregated in a counter dump — both run serially and ignore
/// Parallelism.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PROFGEN_PROFILEGENERATOR_H
#define CSSPGO_PROFGEN_PROFILEGENERATOR_H

#include "profgen/CSProfileGenerator.h"
#include "profile/ProfileMerge.h"
#include "verify/ProfileVerifier.h"

namespace csspgo {

struct CounterDump;
struct RunResult;

enum class ProfGenKind : uint8_t { CS, ProbeOnly, AutoFDO, Instr };

const char *profGenKindName(ProfGenKind K);

struct ProfGenOptions {
  ProfGenKind Kind = ProfGenKind::CS;
  /// Run the missing-frame inferrer (CS kind only).
  bool InferMissingFrames = true;
  /// Worker threads for shardable kinds: 0 = one per hardware thread,
  /// 1 = serial, K = shard the samples K ways.
  unsigned Parallelism = 1;
  /// Post-generation invariant verification of the freshly generated
  /// profile (verify/ProfileVerifier.h). Freshly generated profiles have
  /// no excuse for violations, so probe-table agreement is checked too
  /// (when the kind carries a probe table). The result is recorded in
  /// ProfGenResult::Verify; enforcement policy is the caller's call.
  VerifyLevel Verify = VerifyLevel::Summary;
};

struct ProfGenResult {
  /// Which member holds the profile: CS when true, Flat otherwise.
  bool IsCS = false;
  ContextProfile CS;
  FlatProfile Flat;

  /// Generation stats — part of the result, never dropped.
  CSProfileGenStats Stats;
  /// Shard-reduction observability; zeros when a single shard ran.
  MergeStats Reduce;
  /// Number of shards the samples were actually split into.
  unsigned ShardsUsed = 1;
  /// Invariant verification of the generated profile (empty/ok when
  /// ProfGenOptions::Verify is Off).
  VerifyReport Verify;

  /// Total samples of whichever shape was generated — the epoch weight the
  /// store ingestion path records (ProfileStore::ingestEpoch).
  uint64_t totalSamples() const {
    return IsCS ? CS.totalSamples() : Flat.totalSamples();
  }
};

class ProfileGenerator {
public:
  /// \p Probes supplies checksums/GUIDs and is required for the CS and
  /// ProbeOnly kinds; AutoFDO and Instr may pass nullptr.
  ProfileGenerator(const Binary &Bin, const ProbeTable *Probes = nullptr,
                   ProfGenOptions Opts = {});

  /// Generates from PMU samples (CS, ProbeOnly, AutoFDO kinds).
  ProfGenResult generate(const std::vector<PerfSample> &Samples) const;

  /// Generates from an instrumentation counter dump (Instr kind); \p Run,
  /// when given, contributes the indirect-call value profile.
  ProfGenResult generate(const CounterDump &Dump,
                         const RunResult *Run = nullptr) const;

  const ProfGenOptions &options() const { return Opts; }

private:
  const Binary &Bin;
  const ProbeTable *Probes;
  ProfGenOptions Opts;
};

} // namespace csspgo

#endif // CSSPGO_PROFGEN_PROFILEGENERATOR_H
