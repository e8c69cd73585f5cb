//===- pgo/PGODriver.h - End-to-end PGO experiments --------------*- C++ -*-===//
//
// Part of the CSSPGO reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end experiment driver replicating the paper's methodology
/// (§IV-A): build the profiling binary, run it on training input with PMU
/// sampling (or counters), generate the variant's profile (including
/// cold-context trimming, Algorithm-3 size extraction and the pre-inliner
/// for full CSSPGO), rebuild with the profile, and measure cycles on
/// evaluation inputs drawn from a slightly shifted distribution.
///
//===----------------------------------------------------------------------===//

#ifndef CSSPGO_PGO_PGODRIVER_H
#define CSSPGO_PGO_PGODRIVER_H

#include "pgo/BuildPipeline.h"
#include "postlink/PostLinkOptimizer.h"
#include "profgen/ProfileGenerator.h"
#include "sim/Executor.h"
#include "workload/ProgramGenerator.h"

#include <map>
#include <memory>

namespace csspgo {

struct ExperimentConfig {
  WorkloadConfig Workload;

  uint64_t TrainSeed = 7;
  uint64_t EvalSeedBase = 5000;
  unsigned EvalRuns = 3;
  /// Train/eval input distribution shift (production drift).
  double EvalShift = 0.04;

  uint64_t SamplePeriodCycles = 4001;
  bool PreciseSampling = true; ///< PEBS on (the paper's setup).

  /// Cost model for every run the driver executes. The perturbation knobs
  /// (CounterCost, SampleInterruptCost, TraceByteCost) make
  /// PGODriver::overheadPct reflect each mode's real collection cost:
  /// counter increments for Instr, interrupt delivery for the sampling
  /// variants, packet writes for Trace.
  CostModel Costs;
  /// Core-instruction-trace knobs for the Trace variant (buffer bound,
  /// timestamp density, compression). Enabled is set by the driver.
  TraceConfig Trace;

  /// Full-CSSPGO profile-generation pipeline knobs.
  bool TrimColdContexts = true;
  uint64_t TrimThresholdDivisor = 5000; ///< threshold = total/divisor.
  bool RunPreInliner = true;
  bool InferMissingFrames = true;

  /// Worker threads for sharded profile generation (CS / probe-only
  /// variants): 0 = one per hardware thread, 1 = serial. Any value yields
  /// bit-identical profiles; this is purely a throughput knob.
  unsigned Parallelism = 1;

  /// Base build configuration (variant-specific fields are filled in).
  OptOptions Opt;
  InlineParams Inline;
  LoaderOptions Loader;
  bool EnableInference = true;

  /// Transport the optimized builds consume profiles through (in-memory,
  /// text round trip, or binary store; `csspgo_exp --format`). The
  /// sampling variants build bit-identically under all of them.
  ProfileTransport Transport = ProfileTransport::InMemory;

  /// Run the ProfileVerifier over every profile the pipeline produces or
  /// consumes: Full verification at generation time (including probe-table
  /// agreement), a re-check after cold-context trimming and the
  /// pre-inliner, and pre-load verification inside the loader. See
  /// verify/ProfileVerifier.h for the invariants.
  bool VerifyProfiles = true;
  /// With VerifyProfiles: treat any violation as a fatal pipeline bug
  /// (every profile in this driver is freshly generated, so violations
  /// are never expected). Off records the report and carries on.
  bool VerifyStrict = true;
};

struct VariantOutcome {
  PGOVariant Variant = PGOVariant::None;

  /// Cycles of the profiling run on the training input; for the plain
  /// variant, the plain binary's cycles on that input (the reference
  /// PGODriver::overheadPct measures against).
  uint64_t ProfilingCycles = 0;

  /// Mean optimized-binary cycles over the eval inputs (the performance
  /// metric; lower is better) and the per-run values (for error bars).
  double EvalCyclesMean = 0;
  std::vector<uint64_t> EvalCycles;

  uint64_t CodeSizeBytes = 0;
  int64_t ExitValue = 0; ///< Semantics check: identical across variants.

  /// Microarchitectural counters from the first eval run (diagnostics).
  uint64_t EvalInstructions = 0;
  uint64_t EvalICacheMisses = 0;
  uint64_t EvalMispredicts = 0;
  uint64_t EvalTakenBranches = 0;
  uint64_t EvalCalls = 0;

  /// Trace variant: encoded trace size, truncation, and the number of TSC
  /// packets failing the replay's write-cost cross-check (0 expected).
  uint64_t TraceBytes = 0;
  bool TraceTruncated = false;
  uint64_t TracePackets = 0;
  uint64_t TraceBranchEvents = 0;
  uint64_t TraceTimestamps = 0;
  uint64_t TraceTimestampMismatches = 0;

  ProfileBundle Profile;
  CSProfileGenStats ProfGen;
  /// Shard-reduction stats of the profile generation (zeros when serial).
  MergeStats ProfGenReduce;
  /// Verification report of the generated profile (after trimming and
  /// pre-inlining for full CSSPGO); empty when verification is off.
  VerifyReport ProfGenVerify;
  std::unique_ptr<BuildResult> Build;
};

/// Outcome of a PGO variant with the post-link optimizer stacked on top:
/// the variant's own outcome, the rewrite stats, and the rewritten
/// binary's evaluation numbers (same inputs as Base's, so the two
/// EvalCyclesMean values are directly comparable — the PGO vs PGO+BOLT
/// axis of the ablation).
struct PostLinkOutcome {
  VariantOutcome Base;
  postlink::PostLinkStats Stats;

  /// Guarded rollout: modeled cycles of the variant's binary and of the
  /// rewrite on the *training* input (no eval input is consulted). The
  /// rewrite ships only when it strictly wins there; otherwise the
  /// variant's binary ships unmodified and RewriteKept is false.
  uint64_t TrainCyclesVariant = 0;
  uint64_t TrainCyclesRewrite = 0;
  bool RewriteKept = false;

  double EvalCyclesMean = 0;
  int64_t ExitValue = 0; ///< Must equal Base.ExitValue (semantics check).
  uint64_t CodeSizeBytes = 0;

  std::unique_ptr<Binary> Bin; ///< The rewritten binary.
};

class PGODriver {
public:
  explicit PGODriver(ExperimentConfig Config);

  /// Drives the pipeline over an externally constructed \p Source instead
  /// of generating one from Config.Workload (the drift benches profile an
  /// already-edited variant of a program).
  PGODriver(ExperimentConfig Config, std::unique_ptr<Module> Source);

  /// Runs \p V's pipeline, and nothing else. Results are deterministic.
  /// The plain variant ships its profiling build (it has no profile to
  /// rebuild with).
  VariantOutcome run(PGOVariant V);

  /// Runs \p V, then stacks the post-link optimizer on the optimized
  /// binary: re-profiles it on the training input (the deployed-binary
  /// samples BOLT consumes), rewrites it through
  /// ProfilePipeline::postlink, and re-evaluates on the same eval inputs.
  /// V == None gives the BOLT-only cell of the ablation; a PGO variant
  /// gives the stacked cell.
  PostLinkOutcome runPostLink(PGOVariant V,
                              const postlink::PostLinkOptions &Opts = {});

  /// Stacks the post-link optimizer on an already-computed \p Base, with
  /// the rewriter's samples collected under input (\p SampleSeed,
  /// \p SampleShift) instead of the training input. runPostLink is this
  /// with (run(V), TrainSeed, 0.0); the release train passes an
  /// eval-shifted previous-release seed to measure binary-level staleness.
  /// The guarded rollout still consults only the training input.
  PostLinkOutcome stackPostLink(VariantOutcome Base,
                                const postlink::PostLinkOptions &Opts,
                                uint64_t SampleSeed, double SampleShift);

  /// Percentage improvement of \p V over \p Baseline (positive = faster),
  /// computed from EvalCyclesMean.
  static double improvementPct(const VariantOutcome &V,
                               const VariantOutcome &Baseline);

  /// Profiling overhead of \p V vs \p Plain on the training input, in
  /// percent (Fig. 8 / Table I "profiling overhead"): sampling itself is
  /// free in the PMU, so the delta comes from the anchors (counters cost
  /// cycles, probes at most block optimizations) and the modeled
  /// collection costs.
  static double overheadPct(const VariantOutcome &V,
                            const VariantOutcome &Plain);

  const Module &source() const { return *Source; }
  const ExperimentConfig &config() const { return Config; }

  /// The plain (None) outcome, run on first use and cached.
  const VariantOutcome &baseline();

private:
  BuildConfig makeBuildConfig(PGOVariant V) const;
  ProfileBundle collectProfile(PGOVariant V, const BuildResult &ProfBuild,
                               VariantOutcome &Out);

  ExperimentConfig Config;
  std::unique_ptr<Module> Source;
  std::unique_ptr<VariantOutcome> Baseline;
};

/// The build configuration the stale-profile experiments (drift ablation,
/// release train) use when re-applying a previous release's profile to an
/// edited source: a *default* BuildConfig for the variant — deliberately
/// not PGODriver's (which copies Opt/Inline/Loader from the experiment
/// config) — with the pre-inliner's InlineHotContexts rule preserved.
BuildConfig staleVariantBuildConfig(PGOVariant V,
                                    const ExperimentConfig &Config);

/// The eval runs of one binary: per-run cycles, their mean (a long double
/// sum divided by the run count) and the first run's full result.
struct EvalResult {
  std::vector<uint64_t> Cycles;
  double Mean = 0;
  RunResult First;
};

/// Runs \p Bin under \p Costs, with no collection enabled, on \p Config's
/// eval inputs (seeds EvalSeedBase..+EvalRuns at EvalShift) — the one
/// evaluation of PGODriver::run, the post-link rewrite, the drift ablation
/// and the release train.
EvalResult evaluateBinary(const Binary &Bin, const ExperimentConfig &Config,
                          const CostModel &Costs = CostModel());

} // namespace csspgo

#endif // CSSPGO_PGO_PGODRIVER_H
