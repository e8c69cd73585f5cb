//===- pgo/ProfilePipeline.h - Unified profile pipeline ---------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one surface a profile consumer drives. Before this facade the
/// pipeline stages had divergent entry points — ProfileGenerator for
/// generation, free loadXxxProfile functions plus two store loaders for
/// application, ingestEpoch for persistence — each with its own options
/// struct, error convention and stats out-params. Every caller
/// (PGODriver, the benches, csspgo_exp) wired them together by hand, and
/// a long-running service would have had to repeat that wiring a fourth
/// time.
///
/// ProfilePipeline packages the wiring: one builder-style PipelineOptions
/// selects generator kind, parallelism, transport, loader and
/// verification policy; `generate` produces a ProfileBundle (including
/// full-CSSPGO post-processing: cold-context trimming and the
/// pre-inliner, both re-verified), `apply` routes a bundle into a module
/// through the configured transport, `ingest` folds it into a binary
/// store under decay. Failures come back as Status/Expected — strict
/// callers (PGODriver) abort on them exactly like before, the fleet
/// service skips the epoch and reports. Everything the stages observe
/// accumulates into one PipelineStats, queryable at any point.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PGO_PROFILEPIPELINE_H
#define CSSPGO_PGO_PROFILEPIPELINE_H

#include "pgo/BuildPipeline.h"
#include "pgo/PipelineStats.h"
#include "postlink/PostLinkOptimizer.h"
#include "profgen/ProfileGenerator.h"
#include "profile/ProfileArena.h"
#include "support/Status.h"
#include "trace/TraceDecoder.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace csspgo {

struct CounterDump;
struct RunResult;

/// Every knob of the pipeline, builder-style: chain the setters and hand
/// the result to ProfilePipeline. Defaults reproduce the paper pipeline
/// (full CSSPGO, serial, in-memory transport, strict full verification).
struct PipelineOptions {
  /// Profile shape to generate (pgo kind, not build variant).
  ProfGenKind Kind = ProfGenKind::CS;
  /// Shards for sample-sum generation; 0 = hardware threads, 1 = serial.
  unsigned Parallelism = 1;
  /// Run the missing-frame inferrer (CS kind only).
  bool InferMissingFrames = true;
  /// Transport `apply` routes bundles through.
  ProfileTransport Transport = ProfileTransport::InMemory;
  /// Loader configuration for `apply`.
  LoaderOptions Loader;

  /// Verification level for generation, post-transform re-checks and
  /// ingest gating.
  VerifyLevel Verify = VerifyLevel::Full;
  /// With verification on: violations become error Statuses (callers
  /// decide whether that aborts). Off records reports and carries on.
  bool Strict = true;

  /// Full-CSSPGO post-processing (CS kind only).
  bool TrimColdContexts = false;
  uint64_t TrimThresholdDivisor = 5000;
  bool RunPreInliner = false;

  /// Store ingestion: prior-aggregate weight (permille) and name table.
  uint32_t DecayPermille = 1000;
  bool CompactNames = false;

  /// Options of the post-link binary optimizer (reorder/split/fold) that
  /// ProfilePipeline::postlink runs, BOLT-style, on a final binary.
  postlink::PostLinkOptions PostLinkOpts;

  PipelineOptions &kind(ProfGenKind K) { Kind = K; return *this; }
  PipelineOptions &parallelism(unsigned N) { Parallelism = N; return *this; }
  PipelineOptions &inferMissingFrames(bool B) { InferMissingFrames = B; return *this; }
  PipelineOptions &transport(ProfileTransport T) { Transport = T; return *this; }
  PipelineOptions &loader(const LoaderOptions &L) { Loader = L; return *this; }
  PipelineOptions &verify(VerifyLevel V) { Verify = V; return *this; }
  PipelineOptions &strict(bool B) { Strict = B; return *this; }
  PipelineOptions &trimColdContexts(bool B, uint64_t Divisor = 5000) {
    TrimColdContexts = B;
    TrimThresholdDivisor = Divisor;
    return *this;
  }
  PipelineOptions &preInliner(bool B) { RunPreInliner = B; return *this; }
  PipelineOptions &decay(uint32_t Permille) { DecayPermille = Permille; return *this; }
  PipelineOptions &compactNames(bool B) { CompactNames = B; return *this; }
  PipelineOptions &postLinkOptions(const postlink::PostLinkOptions &O) {
    PostLinkOpts = O;
    return *this;
  }
};

class ProfilePipeline {
public:
  explicit ProfilePipeline(PipelineOptions Opts = {}) : Opts(std::move(Opts)) {}

  /// Generates a bundle from PMU samples (CS / ProbeOnly / AutoFDO kinds).
  /// For the CS kind this is the paper's full generation pipeline:
  /// sharded sample processing, cold-context trimming and the pre-inliner
  /// (when enabled), with the invariants re-verified after each transform.
  /// Strict verification failures return an error Status carrying the
  /// report.
  Expected<ProfileBundle> generate(const Binary &Bin, const ProbeTable *Probes,
                                   const std::vector<PerfSample> &Samples);

  /// Generates from an instrumentation counter dump (Instr kind); \p Run,
  /// when given, contributes the indirect-call value profile.
  Expected<ProfileBundle> generate(const Binary &Bin, const CounterDump &Dump,
                                   const RunResult *Run = nullptr);

  /// Generates from a core-instruction trace: replays \p Trace of a run of
  /// \p Bin started at \p Entry into the exact PerfSample stream the
  /// equivalent sampling run would have produced (trace/TraceDecoder),
  /// then flows through the configured sample pipeline — so the frequency
  /// profile is bit-identical to the sampling path's whenever frequencies
  /// suffice. The bundle additionally carries the trace's measured
  /// per-block TimingProfile; replay/validation stats are kept for
  /// lastTraceReplay(). Corrupt traces come back as an error Status.
  Expected<ProfileBundle> generate(const Binary &Bin, const ProbeTable *Probes,
                                   const TraceData &Trace,
                                   const TraceReplayOptions &Replay,
                                   const std::string &Entry = "main");

  /// Annotates \p M with \p Profile through the configured transport
  /// (in-memory, text round trip, binary store eager/lazy). All four
  /// routes produce bit-identical annotation; a serialization failure
  /// (impossible for freshly generated bundles, routine for a service fed
  /// from the outside) is an error Status, never an abort.
  Expected<LoaderStats> apply(Module &M, const ProfileBundle &Profile);

  /// Folds the epoch view \p Fresh into the store held in \p StoreBytes
  /// under the configured decay, verifier-gated; \p StoreBytes is
  /// untouched on error. Empty \p StoreBytes creates a single-epoch store,
  /// with exact-count (Instr) semantics when \p ExactCounts is set.
  Status ingest(std::string &StoreBytes, const ContextProfileView &Fresh,
                uint64_t Timestamp, bool ExactCounts = false);
  /// The same fold for a bundle, converted to its view once.
  Status ingest(std::string &StoreBytes, const ProfileBundle &Profile,
                uint64_t Timestamp);

  /// Rewrites \p Bin with the post-link optimizer under the configured
  /// PostLinkOpts: CFG reconstruction (identity-gated), profile mapping
  /// from \p Samples (plus \p FnProf for LBR-dark functions, stale
  /// profiles routed through the matcher when \p IR is given), then
  /// fold / reorder / split and re-layout. The per-run stats are kept for
  /// lastPostLink(). Errors mean "ship the input binary unmodified".
  Expected<postlink::PostLinkResult>
  postlink(const Binary &Bin, const std::vector<PerfSample> &Samples,
           const FlatProfile *FnProf = nullptr, const Module *IR = nullptr);

  const PipelineOptions &options() const { return Opts; }

  /// Everything the stages observed so far, across all calls on this
  /// pipeline; sum over pipelines with PipelineStats::operator+=. The
  /// mutable overload lets an orchestrator (the fleet service) fold in
  /// observations from work it ran outside the pipeline — per-host
  /// generation stats, host-order reductions — so one record still tells
  /// the whole story.
  const PipelineStats &stats() const { return Stats; }
  PipelineStats &stats() { return Stats; }
  PipelineStats takeStats() { return std::move(Stats); }

  /// The most recent verification report (post-transform when trimming or
  /// the pre-inliner ran) — what a caller reports as "the" verdict on the
  /// last profile; Stats.Verify is the union over every check instead.
  const VerifyReport &lastVerify() const { return LastVerify; }

  /// Stats of the most recent postlink() call on this pipeline.
  const postlink::PostLinkStats &lastPostLink() const { return LastPostLink; }

  /// Replay/validation stats of the most recent trace generate() call
  /// (Samples and Timing cleared — they were consumed into the bundle).
  const TraceReplayResult &lastTraceReplay() const { return LastTraceReplay; }

private:
  Status recordVerify(VerifyReport R, const std::string &What);

  PipelineOptions Opts;
  PipelineStats Stats;
  VerifyReport LastVerify;
  postlink::PostLinkStats LastPostLink;
  TraceReplayResult LastTraceReplay;
};

/// The inverse of ProfilePipeline::ingest: decodes the merged aggregate
/// of the store in \p StoreBytes into a bundle. The store's flags decide
/// its shape: context-sensitive or flat, and IsInstr from the exact-counts
/// flag, so the loader checks an ingested Instr profile as exact counts.
/// A store that does not open or decode comes back as its error Status.
Expected<ProfileBundle> loadStoreBundle(std::string_view StoreBytes);

} // namespace csspgo

#endif // CSSPGO_PGO_PROFILEPIPELINE_H
