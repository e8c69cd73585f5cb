//===- pgo/BuildPipeline.cpp - PGO build pipelines ---------------------------===//

#include "pgo/BuildPipeline.h"

#include "codegen/Linker.h"
#include "inference/ProfileInference.h"
#include "ir/Verifier.h"
#include "pgo/ProfilePipeline.h"
#include "probe/ProbeInserter.h"

#include <cstdio>
#include <cstdlib>

namespace csspgo {

const char *variantName(PGOVariant V) {
  switch (V) {
  case PGOVariant::None:
    return "None";
  case PGOVariant::Instr:
    return "InstrPGO";
  case PGOVariant::AutoFDO:
    return "AutoFDO";
  case PGOVariant::CSSPGOProbeOnly:
    return "CSSPGO-probe-only";
  case PGOVariant::CSSPGOFull:
    return "CSSPGO";
  case PGOVariant::Trace:
    return "TracePGO";
  }
  return "<unknown>";
}

const char *transportName(ProfileTransport T) {
  switch (T) {
  case ProfileTransport::InMemory:
    return "memory";
  case ProfileTransport::Text:
    return "text";
  case ProfileTransport::BinaryEager:
    return "binary";
  case ProfileTransport::BinaryLazy:
    return "binary-lazy";
  }
  return "<unknown>";
}

static bool usesProbes(PGOVariant V) {
  return V == PGOVariant::CSSPGOProbeOnly || V == PGOVariant::CSSPGOFull ||
         V == PGOVariant::Trace;
}

/// Routes the profile into the loader through the bundle's transport
/// (ProfilePipeline::apply). A transport failure is a pipeline bug here —
/// the bundle was produced by our own generators an instant earlier — so
/// it aborts like verifyOrDie; the fleet service uses the pipeline
/// directly and survives the same failure by skipping the work item.
static LoaderStats loadThroughTransport(Module &M,
                                        const ProfileBundle &Profile,
                                        const LoaderOptions &Opts) {
  ProfilePipeline Pipeline(
      PipelineOptions().transport(Profile.Transport).loader(Opts));
  Expected<LoaderStats> Stats = Pipeline.apply(M, Profile);
  if (!Stats) {
    std::fprintf(stderr, "csspgo: profile transport failed: %s\n",
                 Stats.status().message().c_str());
    std::abort();
  }
  return Stats.take();
}

BuildResult buildWithPGO(const Module &Source, const BuildConfig &Config,
                         const ProfileBundle *Profile) {
  BuildResult Result;
  Result.IR = Source.clone();
  Module &M = *Result.IR;

  // 1. Correlation anchors, inserted on pristine IR (before any
  //    transformation), exactly like the profiling build did.
  if (usesProbes(Config.Variant)) {
    insertProbes(M, AnchorKind::PseudoProbe);
    Result.ProbeDescs = ProbeTable::fromModule(M);
  } else if (Config.Variant == PGOVariant::Instr) {
    insertProbes(M, AnchorKind::InstrCounter);
  }

  // 2. Profile correlation, annotation and top-down loader inlining,
  //    through whatever transport the bundle prescribes (in-memory by
  //    default; text or binary-store round trips under --format).
  if (Profile && Profile->Has) {
    Result.Loader = loadThroughTransport(M, *Profile, Config.Loader);
    // The release build of Instr PGO carries no counters: they only
    // existed to establish the correlation, which annotation completed.
    if (Config.Variant == PGOVariant::Instr)
      stripProbes(M);
    if (Config.EnableInference)
      inferModuleProfile(M);
  } else if (Config.Variant == PGOVariant::Instr) {
    // Profiling build of Instr PGO keeps its counters (run-time cost +
    // optimization barriers).
  }
  verifyOrDie(M, "after profile loading");

  // 3. Bottom-up inlining (profile-aware when counts are annotated).
  InlineParams Inline = Config.Inline;
  if (Profile && Profile->Has && Result.Loader.HotThresholdUsed)
    Inline.HotCallsiteCount = Result.Loader.HotThresholdUsed;
  Result.Inliner = runBottomUpInliner(M, Inline);
  verifyOrDie(M, "after bottom-up inlining");
  if (Profile && Profile->Has && Config.EnableInference)
    inferModuleProfile(M);

  // 4. Mid-level pipeline and late (layout/splitting) pipeline. A bundle
  //    carrying measured block timing (Trace variant) arms the
  //    timing-aware transform gates; frequency-only bundles leave the
  //    pipeline behavior unchanged.
  OptOptions Opt = Config.Opt;
  if (Profile && Profile->Has && Profile->Timing && !Profile->Timing->empty())
    Opt.Timing = Profile->Timing.get();
  runMidLevelPipeline(M, Opt);
  runLatePipeline(M, Opt);

  // 5. Codegen.
  Result.Bin = compileToBinary(M);
  return Result;
}

std::unique_ptr<Module> annotateForQuality(const Module &Source,
                                           const ProfileBundle &Profile,
                                           const LoaderOptions &Base) {
  auto M = Source.clone();
  // Anchors matching the profile kind so correlation works; counter and
  // probe insertion add the same one-intrinsic-per-block shape, keeping
  // modules block-for-block comparable across kinds.
  if (Profile.IsInstr)
    insertProbes(*M, AnchorKind::InstrCounter);
  else if (Profile.IsCS || Profile.Flat.Kind == ProfileKind::ProbeBased)
    insertProbes(*M, AnchorKind::PseudoProbe);

  LoaderOptions NoInline = Base;
  NoInline.ReplayInlining = false;
  NoInline.InlineHotContexts = false;
  NoInline.MaxInlineSize = 0;
  if (Profile.IsCS)
    loadContextProfile(*M, Profile.CS, NoInline);
  else
    loadFlatProfile(*M, Profile.Flat, Profile.IsInstr, NoInline);
  inferModuleProfile(*M);
  return M;
}

} // namespace csspgo
