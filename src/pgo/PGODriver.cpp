//===- pgo/PGODriver.cpp - End-to-end PGO experiments ------------------------===//

#include "pgo/PGODriver.h"

#include "pgo/ProfilePipeline.h"
#include "probe/ProbeTable.h"
#include "sim/InstrRuntime.h"

#include <cstdio>
#include <cstdlib>

namespace csspgo {

PGODriver::PGODriver(ExperimentConfig Config) : Config(std::move(Config)) {
  Source = generateProgram(this->Config.Workload);
}

PGODriver::PGODriver(ExperimentConfig Config, std::unique_ptr<Module> Source)
    : Config(std::move(Config)), Source(std::move(Source)) {}

BuildConfig PGODriver::makeBuildConfig(PGOVariant V) const {
  BuildConfig B;
  B.Variant = V;
  B.Opt = Config.Opt;
  B.Inline = Config.Inline;
  B.Loader = Config.Loader;
  B.EnableInference = Config.EnableInference;
  if (Config.VerifyProfiles)
    B.Loader.Verify = VerifyLevel::Full;
  if (V == PGOVariant::CSSPGOFull && Config.RunPreInliner) {
    // With the pre-inliner's global decisions persisted in the profile,
    // the loader honors them instead of its own local hot heuristic.
    B.Loader.InlineHotContexts = false;
  }
  return B;
}

/// The ProfilePipeline options a PGODriver generates \p V's profile with.
static PipelineOptions pipelineOptions(const ExperimentConfig &Config,
                                       PGOVariant V) {
  PipelineOptions PipeOpts;
  PipeOpts.InferMissingFrames = Config.InferMissingFrames;
  PipeOpts.Parallelism = Config.Parallelism;
  PipeOpts.Transport = Config.Transport;
  PipeOpts.Verify =
      Config.VerifyProfiles ? VerifyLevel::Full : VerifyLevel::Off;
  PipeOpts.Strict = Config.VerifyStrict;
  switch (V) {
  case PGOVariant::Instr:
    PipeOpts.Kind = ProfGenKind::Instr;
    break;
  case PGOVariant::AutoFDO:
    PipeOpts.Kind = ProfGenKind::AutoFDO;
    break;
  case PGOVariant::CSSPGOProbeOnly:
    PipeOpts.Kind = ProfGenKind::ProbeOnly;
    break;
  case PGOVariant::CSSPGOFull:
  case PGOVariant::Trace:
    PipeOpts.Kind = ProfGenKind::CS;
    PipeOpts.trimColdContexts(Config.TrimColdContexts,
                              Config.TrimThresholdDivisor);
    PipeOpts.RunPreInliner = Config.RunPreInliner;
    break;
  case PGOVariant::None:
    break;
  }
  return PipeOpts;
}

ProfileBundle PGODriver::collectProfile(PGOVariant V,
                                        const BuildResult &ProfBuild,
                                        VariantOutcome &Out) {
  std::vector<int64_t> TrainMem =
      generateInput(Config.Workload, Config.TrainSeed);

  // The three collection modes are mutually exclusive: counters (Instr),
  // the core-instruction trace (Trace), or PMU sampling (the rest). Each
  // pays its own modeled perturbation through Config.Costs.
  bool TraceMode = V == PGOVariant::Trace;
  ExecConfig Exec;
  Exec.Costs = Config.Costs;
  Exec.Sampler.Enabled = V != PGOVariant::Instr && !TraceMode;
  Exec.Sampler.PeriodCycles = Config.SamplePeriodCycles;
  Exec.Sampler.Precise = Config.PreciseSampling;
  Exec.Sampler.Seed = Config.TrainSeed;
  Exec.Trace = Config.Trace;
  Exec.Trace.Enabled = TraceMode;
  // Value profiling is part of the instrumentation runtime.
  Exec.CollectValueProfile = V == PGOVariant::Instr;

  RunResult Train =
      execute(*ProfBuild.Bin, "main", TrainMem, Exec);
  Out.ProfilingCycles = Train.Cycles;
  if (TraceMode) {
    Out.TraceBytes = Train.Trace.Bytes.size();
    Out.TraceTruncated = Train.Trace.Truncated;
    Out.TracePackets = Train.Trace.Packets;
    Out.TraceBranchEvents = Train.Trace.BranchEvents;
  }

  // All four profile shapes flow through the ProfilePipeline facade; the
  // CS and probe-only kinds honor Config.Parallelism (sharded generation,
  // bit-identical to serial), and full CSSPGO gets its cold-context
  // trimming and pre-inliner pass inside the pipeline, re-verified. The
  // optimized builds later consume the bundle through the configured
  // transport (in-memory / text / binary store, see BuildPipeline.h).
  ProfilePipeline Pipeline(pipelineOptions(Config, V));
  bool Probed = V == PGOVariant::CSSPGOProbeOnly ||
                V == PGOVariant::CSSPGOFull || V == PGOVariant::Trace;
  Expected<ProfileBundle> Generated = [&]() -> Expected<ProfileBundle> {
    if (V == PGOVariant::Instr)
      return Pipeline.generate(*ProfBuild.Bin,
                               dumpCounters(*ProfBuild.Bin, Train), &Train);
    if (TraceMode) {
      // Replay the trace against the sampling configuration the other CS
      // variants use, so the frequency profile is bit-identical to theirs
      // whenever frequencies suffice; the bundle additionally carries the
      // measured per-block timing.
      TraceReplayOptions Replay;
      Replay.Sampler.Enabled = true;
      Replay.Sampler.PeriodCycles = Config.SamplePeriodCycles;
      Replay.Sampler.Precise = Config.PreciseSampling;
      Replay.Sampler.Seed = Config.TrainSeed;
      Replay.Costs = Config.Costs;
      Replay.Format = Exec.Trace;
      return Pipeline.generate(*ProfBuild.Bin, &ProfBuild.ProbeDescs,
                               Train.Trace, Replay);
    }
    return Pipeline.generate(*ProfBuild.Bin,
                             Probed ? &ProfBuild.ProbeDescs : nullptr,
                             Train.Samples);
  }();
  if (TraceMode) {
    Out.TraceTimestamps = Pipeline.lastTraceReplay().Timestamps;
    Out.TraceTimestampMismatches =
        Pipeline.lastTraceReplay().TimestampMismatches;
  }
  if (!Generated) {
    // Strict-mode enforcement: every profile this driver handles is
    // freshly generated against the binary it came from, so a verifier
    // violation is a pipeline bug, not bad input — fail loudly.
    std::fprintf(stderr, "csspgo: %s", Generated.status().message().c_str());
    std::abort();
  }
  ProfileBundle Bundle = Generated.take();

  if (V != PGOVariant::Instr)
    Out.ProfGen = Pipeline.stats().ProfGen;
  if (Probed)
    Out.ProfGenReduce = Pipeline.stats().Reduce;
  Out.ProfGenVerify = Pipeline.lastVerify();
  return Bundle;
}

const VariantOutcome &PGODriver::baseline() {
  if (!Baseline) {
    Baseline = std::make_unique<VariantOutcome>(run(PGOVariant::None));
  }
  return *Baseline;
}

VariantOutcome PGODriver::run(PGOVariant V) {
  VariantOutcome Out;
  Out.Variant = V;

  // 1. Profiling build (plain pipeline + variant anchors, no profile).
  BuildConfig BC = makeBuildConfig(V);
  auto ProfBuild =
      std::make_unique<BuildResult>(buildWithPGO(*Source, BC, nullptr));

  // 2. Profile collection + generation. The plain binary instead records
  //    its train-input cycles, the overhead reference, and ships as is.
  if (V == PGOVariant::None) {
    std::vector<int64_t> TrainMem =
        generateInput(Config.Workload, Config.TrainSeed);
    ExecConfig Plain;
    Plain.Costs = Config.Costs;
    Out.ProfilingCycles =
        execute(*ProfBuild->Bin, "main", TrainMem, Plain).Cycles;
  } else {
    Out.Profile = collectProfile(V, *ProfBuild, Out);
  }

  // 3. Optimized build.
  std::unique_ptr<BuildResult> Build =
      V == PGOVariant::None
          ? std::move(ProfBuild)
          : std::make_unique<BuildResult>(buildWithPGO(
                *Source, BC, Out.Profile.Has ? &Out.Profile : nullptr));
  if (Config.VerifyProfiles && Config.VerifyStrict && Out.Profile.Has &&
      Build->Loader.VerifyViolations) {
    // The loader re-verified the profile it consumed; our profiles are
    // fresh, so any violation it recorded is a pipeline bug.
    std::fprintf(stderr,
                 "csspgo: loader-side profile verification failed "
                 "(%llu violations; first: %s)\n",
                 static_cast<unsigned long long>(
                     Build->Loader.VerifyViolations),
                 Build->Loader.VerifyFirst.c_str());
    std::abort();
  }
  Out.CodeSizeBytes = Build->Bin->textSize();

  // 4. Evaluation runs (no collection enabled, so the perturbation knobs
  //    never fire; Costs still flows through for cost-model ablations).
  EvalResult Eval = evaluateBinary(*Build->Bin, Config, Config.Costs);
  Out.EvalCycles = std::move(Eval.Cycles);
  Out.EvalCyclesMean = Eval.Mean;
  Out.ExitValue = Eval.First.ExitValue;
  Out.EvalInstructions = Eval.First.Instructions;
  Out.EvalICacheMisses = Eval.First.ICacheMisses;
  Out.EvalMispredicts = Eval.First.Mispredicts;
  Out.EvalTakenBranches = Eval.First.TakenBranches;
  Out.EvalCalls = Eval.First.Calls;
  Out.Build = std::move(Build);
  return Out;
}

PostLinkOutcome PGODriver::runPostLink(PGOVariant V,
                                       const postlink::PostLinkOptions &Opts) {
  return stackPostLink(run(V), Opts, Config.TrainSeed, 0.0);
}

PostLinkOutcome PGODriver::stackPostLink(VariantOutcome Base,
                                         const postlink::PostLinkOptions &Opts,
                                         uint64_t SampleSeed,
                                         double SampleShift) {
  PostLinkOutcome Out;
  Out.Base = std::move(Base);
  const Binary &OptBin = *Out.Base.Build->Bin;

  // Re-profile the deployed (optimized) binary — normally on the training
  // input, so the samples describe exactly the binary being rewritten and
  // the mapped-sample rate should be ~1. The release train instead passes
  // the previous release's eval-shifted seed here, making these the
  // one-release-stale samples whose binary-level cost it measures.
  std::vector<int64_t> TrainMem =
      generateInput(Config.Workload, SampleSeed, SampleShift);
  ExecConfig Exec;
  Exec.Sampler.Enabled = true;
  Exec.Sampler.PeriodCycles = Config.SamplePeriodCycles;
  Exec.Sampler.Precise = Config.PreciseSampling;
  Exec.Sampler.Seed = SampleSeed;
  RunResult Train = execute(OptBin, "main", TrainMem, Exec);

  // For probed binaries, also derive a flat probe profile from the same
  // run: it backfills functions the LBR ring left dark.
  ProfileBundle ProbeBundle;
  const FlatProfile *FnProf = nullptr;
  if (!OptBin.Probes.empty()) {
    ProfilePipeline ProbePipe(
        pipelineOptions(Config, PGOVariant::CSSPGOProbeOnly));
    Expected<ProfileBundle> Generated = ProbePipe.generate(
        OptBin, &Out.Base.Build->ProbeDescs, Train.Samples);
    if (Generated) {
      ProbeBundle = Generated.take();
      FnProf = &ProbeBundle.Flat;
    }
  }

  ProfilePipeline Pipeline(PipelineOptions().postLinkOptions(Opts));
  Expected<postlink::PostLinkResult> Rewritten = Pipeline.postlink(
      OptBin, Train.Samples, FnProf, Out.Base.Build->IR.get());
  if (!Rewritten) {
    // Same policy as strict verification: the input binary came straight
    // out of our own linker, so a reconstruction failure is a bug.
    std::fprintf(stderr, "csspgo: %s\n",
                 Rewritten.status().message().c_str());
    std::abort();
  }
  Out.Stats = Rewritten->Stats;
  Out.Bin = std::move(Rewritten->Bin);

  // Guarded rollout: the rewrite must strictly win on the training input
  // (plain run, no sampling) or the variant's binary ships unmodified.
  // Layout transforms trade modeled i-cache placement against extra
  // branches, and an unlucky line alignment can flip the sign — the
  // guard catches that with data the optimizer is allowed to see; the
  // eval inputs stay untouched.
  {
    std::vector<int64_t> MemVariant =
        generateInput(Config.Workload, Config.TrainSeed);
    RunResult Variant = execute(OptBin, "main", MemVariant, {});
    std::vector<int64_t> MemRewrite =
        generateInput(Config.Workload, Config.TrainSeed);
    RunResult Rewrite = execute(*Out.Bin, "main", MemRewrite, {});
    Out.TrainCyclesVariant = Variant.Cycles;
    Out.TrainCyclesRewrite = Rewrite.Cycles;
    Out.RewriteKept = Rewrite.ExitValue == Variant.ExitValue &&
                      Rewrite.Cycles < Variant.Cycles;
    if (!Out.RewriteKept)
      Out.Bin = std::make_unique<Binary>(OptBin);
  }
  Out.CodeSizeBytes = Out.Bin->textSize();

  // Evaluate the rewritten binary on the exact inputs Base saw.
  EvalResult Eval = evaluateBinary(*Out.Bin, Config);
  Out.EvalCyclesMean = Eval.Mean;
  Out.ExitValue = Eval.First.ExitValue;
  return Out;
}

double PGODriver::improvementPct(const VariantOutcome &V,
                                 const VariantOutcome &Baseline) {
  if (!Baseline.EvalCyclesMean)
    return 0;
  return 100.0 * (Baseline.EvalCyclesMean - V.EvalCyclesMean) /
         Baseline.EvalCyclesMean;
}

double PGODriver::overheadPct(const VariantOutcome &V,
                              const VariantOutcome &Plain) {
  if (!Plain.ProfilingCycles)
    return 0;
  return 100.0 *
         (static_cast<double>(V.ProfilingCycles) - Plain.ProfilingCycles) /
         Plain.ProfilingCycles;
}

BuildConfig staleVariantBuildConfig(PGOVariant V,
                                    const ExperimentConfig &Config) {
  BuildConfig BC;
  BC.Variant = V;
  if (V == PGOVariant::CSSPGOFull && Config.RunPreInliner)
    BC.Loader.InlineHotContexts = false;
  return BC;
}

EvalResult evaluateBinary(const Binary &Bin, const ExperimentConfig &Config,
                          const CostModel &Costs) {
  EvalResult Out;
  ExecConfig Exec;
  Exec.Costs = Costs;
  long double Sum = 0;
  for (unsigned E = 0; E != Config.EvalRuns; ++E) {
    std::vector<int64_t> Mem = generateInput(
        Config.Workload, Config.EvalSeedBase + E, Config.EvalShift);
    RunResult R = execute(Bin, "main", Mem, Exec);
    Out.Cycles.push_back(R.Cycles);
    Sum += R.Cycles;
    if (E == 0)
      Out.First = std::move(R);
  }
  Out.Mean = Config.EvalRuns ? static_cast<double>(Sum / Config.EvalRuns) : 0;
  return Out;
}

} // namespace csspgo
