//===- pgo/PipelineStats.h - Unified pipeline observability -----*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One composable stats record for the whole profile pipeline. The stages
/// each keep their focused structs (CSProfileGenStats, MergeStats,
/// LoaderStats, VerifyReport) — what was scattered before was the
/// *aggregate*: every consumer (csspgo_exp run, the benches, now the fleet
/// dashboard) re-assembled its own subset from out-params and result
/// fields, which is how the StaleMatched double-count survived unnoticed.
/// PipelineStats is that aggregate: one value, filled in by
/// ProfilePipeline as stages run, summable across runs/epochs/services
/// with operator+=, and serializable with toJSON() for machine consumers
/// (`csspgo_exp run --json`, `csspgo_exp serve`).
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PGO_PIPELINESTATS_H
#define CSSPGO_PGO_PIPELINESTATS_H

#include "loader/ProfileLoader.h"
#include "profgen/CSProfileGenerator.h"
#include "profile/ProfileMerge.h"
#include "verify/ProfileVerifier.h"

#include <cstdint>
#include <string>

namespace csspgo {

/// Accumulates \p O into \p S: counters sum, attempt records concatenate,
/// scalar context fields (HotThresholdUsed, VerifyFirst) keep the first
/// nonzero/nonempty value.
LoaderStats &accumulate(LoaderStats &S, const LoaderStats &O);

/// Accumulates \p O into \p R (checked/violation counts sum; detail
/// records concatenate up to the usual cap).
VerifyReport &accumulate(VerifyReport &R, const VerifyReport &O);

struct PipelineStats {
  /// Profile generation (samples decoded, ranges, tail-call inference).
  CSProfileGenStats ProfGen;
  /// Shard-reduction of parallel generation (zeros when serial).
  MergeStats Reduce;
  /// Store epoch folding (ingestEpoch merges; zeros when no store).
  MergeStats Ingest;
  /// Annotation/load onto a module.
  LoaderStats Loader;
  /// Union of every verification the pipeline ran (generation-side,
  /// post-trim, ingest gating).
  VerifyReport Verify;

  /// Shards the generation actually used.
  unsigned ShardsUsed = 1;
  /// Store epochs folded through this pipeline.
  uint64_t EpochsFolded = 0;
  /// Total samples of the profiles generated through this pipeline.
  uint64_t TotalSamples = 0;

  PipelineStats &operator+=(const PipelineStats &O);

  /// Single-line JSON object with one key per stage; stable key order, so
  /// equal stats render byte-identically (the fleet-dashboard and
  /// transport-equivalence tests diff this text).
  std::string toJSON() const;
};

} // namespace csspgo

#endif // CSSPGO_PGO_PIPELINESTATS_H
